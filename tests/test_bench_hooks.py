"""The benchmark under `perfbench/` reaches into hivc by name.

`perfbench/spans.py` wraps functions under the module attributes its
callers look up, and `perfbench/run.py` reads the thread count from
`hivc.runtime`. A rename or deletion in `src/hivc`, or a name that stays
importable but is no longer called, would otherwise only show when the
benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _hooked():
    spans = _spans()
    return sorted({(m, attr) for m, attr, *_ in spans.TARGETS + spans.COUNTED})


@pytest.mark.parametrize("module,attr", _hooked())
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_runtime_thread_count_resolves():
    from hivc import runtime

    assert isinstance(runtime.get_num_threads(), int)


@pytest.mark.parametrize("joint", [False, True])
def test_subdivision_reaches_region_ssd_through_the_module(monkeypatch, joint):
    # spans.py counts `subdivision.region_ssd_calls` by patching this
    # module attribute; an inlined or locally bound error would read 0
    from hivc import subdivision

    calls = []
    real = subdivision.region_ssd

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(subdivision, "region_ssd", counting)
    plane = np.arange(64, dtype=np.float64).reshape(8, 8) ** 2
    error_fn = subdivision.joint_ssd_error([plane, plane.T]) if joint else None
    tree = subdivision.subdivide_by_error(plane, 5, error_fn=error_fn)
    assert len(tree.leaves()) == 5
    # two children per split, each plane of the joint error once
    assert len(calls) == 2 * 4 * (2 if joint else 1)


# the decode-side names spans.py wraps, each of which a colour stream
# with an inter frame and coded residual blocks must reach
DECODE_HOOKS = (
    ("hivc.flow", "deserialize_tree"),
    ("hivc.codec", "parse_mask"),
    ("hivc.prediction", "parse_mask"),
    ("hivc.entropy", "decode_symbols"),
    ("hivc.entropy", "decode_signed_values"),
)


def test_decode_reaches_every_wrapped_decode_function(monkeypatch):
    from hivc import codec

    hooked = set(_hooked())
    assert set(DECODE_HOOKS) <= hooked
    calls = {hook: [] for hook in DECODE_HOOKS}
    for module, attr in DECODE_HOOKS:
        mod = importlib.import_module(module)

        def counting(*args, _real=getattr(mod, attr), _calls=calls[(module, attr)], **kwargs):
            result = _real(*args, **kwargs)
            _calls.append(result)
            return result

        monkeypatch.setattr(mod, attr, counting)
    stream = (Path(__file__).resolve().parent / "golden" / "color.hivc").read_bytes()
    frames = codec.decode(stream)
    assert len(frames) == 3 and frames[0].channels == 3
    for hook, results in calls.items():
        assert results, f"{hook} never called"
    # spans.py counts symbols as len(result[0])
    for result in calls[("hivc.entropy", "decode_symbols")]:
        assert isinstance(result, tuple) and len(result) == 2
