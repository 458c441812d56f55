"""Golden vectors: committed streams that pin the encoder and decoder bits.

Each clip below is encoded with its config and must reproduce the
committed stream in `tests/golden/` byte for byte; decoding it must
reproduce the committed SHA-256 of the decoded frames. Three more tests
decode every stream in subprocesses, under several OpenBLAS kernels, with
one OpenBLAS thread and with numpy's optional SIMD kernels disabled, and
require the same frame hashes, since the residual reconstruction and the
intra solver run through BLAS and numpy's vector loops. The colour clip
is also encoded under each of those three settings and must give the
committed stream.

A change to these files is a change of the format's bits. Regenerate
them with `python tests/test_golden.py write` only together with a
`VERSION` bump and a note in CHANGES.md.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))

from conftest import moving_clip  # noqa: E402
from hivc.codec import EncoderConfig, decode, encode  # noqa: E402
from hivc.frame import Frame  # noqa: E402

CORETYPES = ("Haswell", "SkylakeX", "Prescott")
# the CPU feature each forced kernel executes
_CORE_FEATURE = {"Haswell": "AVX2", "SkylakeX": "AVX512F", "Prescott": "SSE3"}


def _gray(frames):
    return [Frame((f.planes[1],), colorspace="gray") for f in frames]


# name -> (clip factory, EncoderConfig fields)
CLIPS = {
    "gray": (lambda: _gray(moving_clip(3, 24, 32, seed=1)), dict(gop_size=3)),
    "color": (lambda: moving_clip(3, 24, 32, seed=2), dict(gop_size=3)),
    "odd": (lambda: moving_clip(2, 29, 37, seed=3, step=1), dict(gop_size=2)),
    "lossless": (
        lambda: moving_clip(2, 16, 24, seed=4),
        dict(gop_size=1, intra_mask_fraction=1.0, intra_levels=256),
    ),
    "multigop": (lambda: moving_clip(5, 24, 32, seed=5), dict(gop_size=2)),
}


def frames_sha256(frames):
    """SHA-256 over every frame's colorspace and int32 little-endian planes."""
    h = hashlib.sha256()
    for f in frames:
        h.update(f.colorspace.encode())
        for p in f.planes:
            h.update(np.ascontiguousarray(p, dtype="<i4").tobytes())
    return h.hexdigest()


def _encode_clip(name):
    make, fields = CLIPS[name]
    return encode(make(), EncoderConfig(**fields))


def _load_hashes():
    return json.loads((GOLDEN / "hashes.json").read_text())


def _decode_all():
    return {name: frames_sha256(decode((GOLDEN / f"{name}.hivc").read_bytes())) for name in CLIPS}


def _openblas_query(name, restype):
    """Call `<prefix>get_<name>` of numpy's bundled OpenBLAS; None if unknown."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for sym in (f"scipy_openblas_get_{name}64_", f"openblas_get_{name}64_", f"openblas_get_{name}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def _openblas_corename():
    """Name of the kernel numpy's bundled OpenBLAS runs, or None if unknown."""
    name = _openblas_query("corename", ctypes.c_char_p)
    return None if name is None else name.decode()


def _openblas_threads():
    """Thread count numpy's bundled OpenBLAS uses, or None if unknown."""
    return _openblas_query("num_threads", ctypes.c_int)


@pytest.mark.parametrize("name", sorted(CLIPS))
def test_golden_stream_reencodes_and_decodes(name):
    expect = _load_hashes()[name]
    stream = (GOLDEN / f"{name}.hivc").read_bytes()
    assert hashlib.sha256(stream).hexdigest() == expect["stream_sha256"]
    assert _encode_clip(name) == stream
    assert frames_sha256(decode(stream)) == expect["frames_sha256"]


def _expected_frame_hashes():
    return {name: h["frames_sha256"] for name, h in _load_hashes().items()}


def _simd_extensions():
    return np.show_config(mode="dicts")["SIMD Extensions"]


def _run_in_subprocess(command, **env_vars):
    """Run this file's `command` (decode: every golden stream; encode: the
    colour clip) in a fresh interpreter; returns its report."""
    src = str(Path(__import__("hivc").__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, __file__, command], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_golden_decode_is_the_same_under_every_blas_kernel():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    expect = _expected_frame_hashes()
    cores = set()
    for core in CORETYPES:
        if not __cpu_features__.get(_CORE_FEATURE[core], False):
            continue
        report = _run_in_subprocess("decode", OPENBLAS_CORETYPE=core)
        assert report["hashes"] == expect, core
        cores.add(report["core"])
    # the forced kernels really ran: each reports its own name
    if None not in cores:
        assert len(cores) == sum(__cpu_features__.get(_CORE_FEATURE[c], False) for c in CORETYPES)


def test_golden_decode_is_the_same_with_one_blas_thread():
    report = _run_in_subprocess("decode", OPENBLAS_NUM_THREADS="1")
    assert report["hashes"] == _expected_frame_hashes()
    # the child really ran single-threaded
    assert report["blas_threads"] in (1, None)


def test_golden_decode_is_the_same_under_baseline_simd():
    # every optional kernel numpy dispatches to on this CPU, switched off
    dispatched = _simd_extensions().get("found", [])
    if not dispatched:
        pytest.skip("numpy dispatches no optional SIMD kernels on this CPU")
    report = _run_in_subprocess("decode", NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    assert report["hashes"] == _expected_frame_hashes()
    # the child really ran on the baseline kernels
    assert set(dispatched) <= set(report["simd_not_found"])


def _encode_environments():
    """Each setting the colour stream's encode is pinned under: one
    OpenBLAS thread, the oldest forced OpenBLAS kernel, and numpy's
    baseline SIMD kernels only."""
    dispatched = _simd_extensions().get("found", [])
    return [
        pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="one_blas_thread"),
        pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="prescott_kernel"),
        pytest.param(
            {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)},
            id="baseline_simd",
            marks=pytest.mark.skipif(not dispatched, reason="no optional SIMD kernels dispatched"),
        ),
    ]


@pytest.mark.parametrize("env", _encode_environments())
def test_golden_colour_encode_is_the_same_in_every_environment(env):
    # the encoder's closed loop runs the same BLAS and SIMD kernels as the
    # decoder, plus its own fits, so its bits must not depend on them either
    report = _run_in_subprocess("encode", **env)
    assert bytes.fromhex(report["stream"]) == (GOLDEN / "color.hivc").read_bytes()
    # the child really ran under the setting
    if "OPENBLAS_NUM_THREADS" in env:
        assert report["blas_threads"] in (1, None)
    if "OPENBLAS_CORETYPE" in env and None not in (report["core"], _openblas_corename()):
        assert report["core"] != _openblas_corename()
    if "NPY_DISABLE_CPU_FEATURES" in env:
        assert set(env["NPY_DISABLE_CPU_FEATURES"].split()) <= set(report["simd_not_found"])


def _write():
    GOLDEN.mkdir(exist_ok=True)
    hashes = {}
    for name in CLIPS:
        stream = _encode_clip(name)
        (GOLDEN / f"{name}.hivc").write_bytes(stream)
        hashes[name] = {
            "stream_sha256": hashlib.sha256(stream).hexdigest(),
            "frames_sha256": frames_sha256(decode(stream)),
            "bytes": len(stream),
        }
    (GOLDEN / "hashes.json").write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["write"]:
        _write()
    elif sys.argv[1:] in (["decode"], ["encode"]):
        report = {
            "core": _openblas_corename(),
            "blas_threads": _openblas_threads(),
            "simd_not_found": _simd_extensions().get("not found", []),
        }
        if sys.argv[1] == "decode":
            report["hashes"] = _decode_all()
        else:
            report["stream"] = _encode_clip("color").hex()
        print(json.dumps(report))
    else:
        sys.exit("usage: python tests/test_golden.py {write|decode|encode}")
