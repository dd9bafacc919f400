# keeps this directory on sys.path so tests can import shared helpers
import os

# One BLAS thread: the scorer's matmuls are small, and on a shared machine
# a thread per core makes them several times slower. It takes effect only
# because numpy is not imported yet; a setting in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402

# Property tests replay the same examples on every run and machine, and a
# slow example is not a failure.
settings.register_profile("nerrank", derandomize=True, deadline=None)
settings.load_profile("nerrank")
