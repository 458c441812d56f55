"""hivc runs on one thread.

A per-plane thread pool for the intra solve once measured slower on 2
cores, while the CG's whole-plane dot products still ran on OpenBLAS
threads. Those dots now run over at most 4096 values each and the
residual products over 63 blocks each, below OpenBLAS's threading
thresholds, so the decode path starts no BLAS threads and its floats
do not depend on their count.
"""


def get_num_threads() -> int:
    """Worker threads hivc uses, as reports print it."""
    return 1
