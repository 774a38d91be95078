import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

# Property tests draw the same examples on every run, and a slow example
# (a loss kernel pass, a training step) is not a failure.
settings.register_profile("fcre", derandomize=True, deadline=None)
settings.load_profile("fcre")
