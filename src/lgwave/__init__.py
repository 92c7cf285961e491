"""Classical wave-model Monte Carlo of a heralded Leggett-Garg interferometry test."""

import os

# The worker pool runs every matrix product on its own threads, so OpenBLAS's
# thread pool would only cost start-up time.  Set before any module imports
# numpy; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
