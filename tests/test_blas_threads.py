"""The decode path's floats do not depend on the BLAS thread count, on
the BLAS kernel or, in the intra solve and the residual product, on
numpy's SIMD kernels; nor do the encoder's Brox flows.

OpenBLAS reads its thread count and kernel when it loads, and numpy its
disabled CPU features, so each setting gets a fresh interpreter. Every
child computes the same thing on the same seeded data and prints a
SHA-256 of the float64 result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import dispatched_simd, supported_coretypes

SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = str(Path(__file__).resolve().parent)

# a 144x336 plane, the benchmark's frame size, holds more pixels than
# the length at which OpenBLAS splits a whole-plane dot across threads
SOLVE = """
from hivc.homogeneous import solve_homogeneous
rng = np.random.default_rng(5)
f = rng.uniform(0, 255, (144, 336))
mask = rng.random((144, 336)) < 0.09
out = solve_homogeneous(f, mask, tol=1e-6, max_iter=2000)
"""

# longer than the length at which OpenBLAS threads a dot, in both of the
# solver's dtypes
WIDE_DOT = """
from hivc.homogeneous import _dot
rng = np.random.default_rng(7)
a, b = rng.standard_normal((2, 3, 30001))
a32, b32 = a.astype(np.float32), b.astype(np.float32)
out = np.array([_dot(a, b, np.empty_like(a)), _dot(a32, b32, np.empty_like(a32))])
"""

# about as many blocks as an all-intra decode of that frame size codes,
# with dead-zone indices as weights, as the decoder passes them
RECONSTRUCT = """
from hivc.pseudodiff import reconstruct_blocks
rng = np.random.default_rng(6)
w = rng.integers(-127, 128, (2100, 8, 8)) * (rng.random((2100, 8, 8)) < 0.1)
out = reconstruct_blocks(w.astype(np.float64), rng.standard_normal(2100), 0.37)
"""

# the decoder's intra solve, at the benchmark's frame size and about the
# mask density of its intra frames
INTRA_SOLVE = """
from hivc.homogeneous import solve_homogeneous
from hivc.prediction import INTRA_SOLVE_ITERS, INTRA_SOLVE_TOL
rng = np.random.default_rng(12)
f = rng.uniform(0, 255, (144, 336))
mask = rng.random((144, 336)) < 0.06
out = solve_homogeneous(f, mask, tol=INTRA_SOLVE_TOL, max_iter=INTRA_SOLVE_ITERS)
"""

# one Brox flow of the benchmark's 336x144 pan: the encoder's flow runs
# in float32, where a kernel that rounds or orders differently would
# show first
BROX = f"""
import sys
sys.path.insert(0, {TESTS!r})
from conftest import moving_clip
from hivc.flow import flow_brox
prev, cur = (f.planes[0] for f in moving_clip(2, 144, 336, seed=11))
flow = flow_brox(cur, prev)
out = np.stack((flow.u, flow.v))
"""


def _hash_in_child(code, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (
        "import hashlib\nimport numpy as np\n"
        + code
        + "print(hashlib.sha256(np.ascontiguousarray(out, dtype=np.float64).tobytes()).hexdigest())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[-1]


@pytest.mark.parametrize(
    "code",
    [SOLVE, WIDE_DOT, RECONSTRUCT],
    ids=["solve_homogeneous", "wide_dot", "reconstruct_blocks"],
)
def test_same_floats_under_one_and_two_blas_threads(code):
    assert _hash_in_child(code, OPENBLAS_NUM_THREADS="1") == _hash_in_child(
        code, OPENBLAS_NUM_THREADS="2"
    )


def _hashes_under_every_kernel(code):
    """Hashes of `code` at the default settings, under each OpenBLAS kernel
    this CPU runs, and with numpy's dispatched SIMD kernels disabled."""
    hashes = {"default": _hash_in_child(code)}
    for core in supported_coretypes():
        hashes[core] = _hash_in_child(code, OPENBLAS_CORETYPE=core)
    dispatched = dispatched_simd()
    if dispatched:
        hashes["baseline_simd"] = _hash_in_child(code, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    return hashes


def test_intra_solve_gives_the_same_floats_under_every_kernel():
    hashes = _hashes_under_every_kernel(INTRA_SOLVE)
    assert len(set(hashes.values())) == 1, hashes


def test_residual_product_gives_the_same_floats_under_every_kernel():
    hashes = _hashes_under_every_kernel(RECONSTRUCT)
    assert len(set(hashes.values())) == 1, hashes


def test_brox_flow_gives_the_same_floats_under_every_kernel():
    hashes = _hashes_under_every_kernel(BROX)
    assert len(set(hashes.values())) == 1, hashes
