"""hivc runs on one thread.

A per-plane thread pool for the intra solve once measured slower on 2
cores. The decode path starts no BLAS threads either: the intra CG
computes every dot product and norm as a NumPy pairwise sum, never a
BLAS call (homogeneous._dot), and the residual products run over 63
blocks each, below OpenBLAS's threading threshold. The decoded floats
do not depend on it: the residual product's sums are exact.
"""


def get_num_threads() -> int:
    """Worker threads hivc uses, as reports print it."""
    return 1
