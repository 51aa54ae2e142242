import os

# OpenBLAS reads this once, when numpy is first imported: the oracle's small
# float64 matmuls gain no wall time from extra threads, only burn their CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
