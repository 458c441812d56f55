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
COLOR = Path(__file__).resolve().parent / "golden" / "color.hivc"


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
    planes = [plane, plane.T] if joint else [plane]
    _, leaves = subdivision.subdivide_by_error(planes, 5)
    assert len(leaves) == 5
    # two children per split, each plane of the joint error once
    assert len(calls) == 2 * 4 * len(planes)


# the decode-side names spans.py wraps, each of which a colour stream
# with an inter frame and coded residual blocks must reach
DECODE_HOOKS = (
    ("hivc.flow", "deserialize_tree"),
    ("hivc.codec", "parse_mask"),
    ("hivc.prediction", "parse_mask"),
    ("hivc.prediction", "solve_homogeneous"),
    ("hivc.entropy", "decode_symbols"),
    ("hivc.entropy", "decode_signed_values"),
)


def _record_results(monkeypatch, hooks):
    """Wrap each hooked name as spans.py does; returns {hook: results}."""
    assert set(hooks) <= set(_hooked())
    calls = {hook: [] for hook in hooks}
    for module, attr in hooks:
        mod = importlib.import_module(module)

        def counting(*args, _real=getattr(mod, attr), _calls=calls[(module, attr)], **kwargs):
            result = _real(*args, **kwargs)
            _calls.append(result)
            return result

        monkeypatch.setattr(mod, attr, counting)
    return calls


def test_decode_reaches_every_wrapped_decode_function(monkeypatch):
    from hivc import codec

    calls = _record_results(monkeypatch, DECODE_HOOKS)
    frames = codec.decode(COLOR.read_bytes())
    assert len(frames) == 3 and frames[0].channels == 3
    for hook, results in calls.items():
        assert results, f"{hook} never called"
    # spans.py counts symbols as len(result[0])
    for result in calls[("hivc.entropy", "decode_symbols")]:
        assert isinstance(result, tuple) and len(result) == 2


def test_decode_reports_cg_iterations_to_the_solver_hook(monkeypatch):
    # spans.py's wrapper passes `stats={}` to each intra solve, and
    # `_solve_stats` sums the iterations of `level_iterations` from it
    from collections import Counter

    from hivc import codec, prediction

    spans = _spans()
    counters = Counter()
    stats_seen = []
    real = prediction.solve_homogeneous

    def wrapper(*args, **kwargs):
        kwargs["stats"] = {}
        result = real(*args, **kwargs)
        spans._solve_stats(args, kwargs, result, counters)
        stats_seen.append(kwargs["stats"])
        return result

    monkeypatch.setattr(prediction, "solve_homogeneous", wrapper)
    frames = codec.decode(COLOR.read_bytes())
    # one intra frame of three planes
    assert len(stats_seen) == counters["homogeneous.calls"] == 3
    for stats in stats_seen:
        finest_pixels, finest_iterations = stats["level_iterations"][-1]
        assert finest_pixels == frames[0].width * frames[0].height
        assert finest_iterations > 0
    assert counters["homogeneous.cg_iterations"] == sum(
        it for stats in stats_seen for _, it in stats["level_iterations"]
    )


# the encode-side names spans.py wraps or counts below the encoder's
# entry points, each of which the colour encode behind the golden colour
# stream (an inter frame, coded residual blocks) must reach
ENCODE_HOOKS = (
    ("hivc.entropy", "encode_symbols"),
    ("hivc.entropy", "encode_signed_values"),
    ("hivc.codec", "solve_block_coefficients_batch"),
    ("hivc.prediction", "optimize_mask_values"),
    ("hivc.subdivision", "region_ssd"),
    ("hivc.codec", "subdivide_by_error"),
    ("hivc.prediction", "subdivide_by_error"),
    ("hivc.flow", "subdivide_by_error"),
)


def test_encode_reaches_every_wrapped_encode_function(monkeypatch):
    from conftest import moving_clip
    from hivc import codec

    calls = _record_results(monkeypatch, ENCODE_HOOKS)
    stream = codec.encode(moving_clip(3, 24, 32, seed=2), codec.EncoderConfig(gop_size=3))
    assert stream == COLOR.read_bytes()
    for hook, results in calls.items():
        assert results, f"{hook} never called"
