"""The benchmark under `perfbench/` reaches into hivc by name.

`perfbench/spans.py` wraps functions under the module attributes its
callers look up, and `perfbench/run.py` reads the thread count from
`hivc.runtime`. A rename or deletion in `src/hivc` would otherwise only
show when the benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

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
