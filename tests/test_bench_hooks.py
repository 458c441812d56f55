"""The benchmark under `perfbench/` reaches into hivc by name.

`perfbench/spans.py` wraps functions under the module attributes its
callers look up, and `perfbench/run.py` reads the thread count from
`hivc.runtime`. A rename or deletion in `src/hivc` would otherwise only
show when the benchmark runs with `--trace 1`.
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
    assert tree.leaf_count == 5
    # two children per split, each plane of the joint error once
    assert len(calls) == 2 * 4 * (2 if joint else 1)
