"""hivc runs on one thread.

A per-plane thread pool for the intra solve measured slower on 2 cores,
because the CG's BLAS calls start threads of their own.
"""


def get_num_threads() -> int:
    """Worker threads hivc uses, as reports print it."""
    return 1
