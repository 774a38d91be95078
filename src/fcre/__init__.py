"""fcre: few-shot continual relation classification engine.

A small, fully deterministic engine for continual N-way-K-shot
classification experiments: a trainable two-layer encoder, four
description-anchored training losses with hand-derived gradients,
memory-based rehearsal across a stream of disjoint tasks, and two
prediction heads (nearest class mean and descriptive rank fusion).

The package exports what the README's library example uses; everything
else is imported from its module (``fcre.inference``, ``fcre.losses``, ...).
"""

from fcre.continual import init_state, run_task
from fcre.datagen import SyntheticSpec, generate_stream
from fcre.descriptions import DescriptionSet, synth_descriptions
from fcre.losses import HyperParams

__version__ = "0.1.0"
