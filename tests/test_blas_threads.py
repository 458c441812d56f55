"""The decode path's floats do not depend on the BLAS thread count.

OpenBLAS reads its thread count when it loads, so each count gets a
fresh interpreter. Both children compute the same thing on the same
seeded data and print a SHA-256 of the float64 result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# a 144x336 plane, the benchmark's frame size, holds more pixels than
# the length at which OpenBLAS splits a whole-plane dot across threads
SOLVE = """
from hivc.homogeneous import solve_homogeneous
rng = np.random.default_rng(5)
f = rng.uniform(0, 255, (144, 336))
mask = rng.random((144, 336)) < 0.09
out = solve_homogeneous(f, mask, tol=1e-6, max_iter=2000)
"""

# a frame may be up to 65535 pixels wide, so no row length is safe
WIDE_DOT = """
from hivc.homogeneous import _dot, _runs
rng = np.random.default_rng(7)
a, b = rng.standard_normal((2, 3, 30001))
out = np.array([_dot(_runs(a), _runs(b))])
"""

# about as many blocks as an all-intra decode of that frame size codes
RECONSTRUCT = """
from hivc.pseudodiff import reconstruct_blocks
rng = np.random.default_rng(6)
mc = rng.standard_normal((2100, 8, 8)) * (rng.random((2100, 8, 8)) < 0.1)
out = reconstruct_blocks(mc, rng.standard_normal(2100))
"""


def _hash_under_threads(code, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
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
    assert _hash_under_threads(code, 1) == _hash_under_threads(code, 2)
