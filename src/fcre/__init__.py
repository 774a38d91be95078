"""fcre: few-shot continual relation classification engine.

A small, fully deterministic engine for continual N-way-K-shot
classification experiments: a trainable two-layer encoder, four
description-anchored training losses with hand-derived gradients,
memory-based rehearsal across a stream of disjoint tasks, and two
prediction heads (nearest class mean and descriptive rank fusion).
"""

from fcre.geometry import RankTable, cosine, euclidean, exp_cos_score, rank_scores
from fcre.encoder import (
    AdamState,
    BilinearForm,
    EncoderParams,
    encode,
    encode_backward,
    init_adam,
    init_bilinear,
    init_encoder,
    step,
)
from fcre.losses import (
    Batch,
    HyperParams,
    MiningSets,
    hm_loss,
    hsmt_loss,
    joint_loss,
    mi_loss,
    mine_hard,
    scl_loss,
)
from fcre.descriptions import (
    DescriptionFormatError,
    DescriptionSet,
    ingest_descriptions,
    synth_descriptions,
)
from fcre.datagen import (
    DatasetFormatError,
    GenerationError,
    SyntheticSpec,
    generate_stream,
    ingest_dataset,
    write_dataset,
)
from fcre.continual import (
    ContinualState,
    MemoryBuffer,
    ProtocolError,
    PrototypeStore,
    Task,
    TaskStream,
    build_prototypes,
    init_state,
    run_task,
    select_memory,
)
from fcre.inference import (
    MetricsReport,
    TaskAccuracy,
    dri_predict,
    dri_score,
    evaluate,
    ncm_predict,
)

__version__ = "0.1.0"
