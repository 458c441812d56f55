"""In-memory span tracing of hivc's layers, installed from outside.

Each public function of a layer is replaced, under the name its caller
looks up, by a wrapper that records a span: id, parent id, the id of
the benchmark operation it belongs to (its trace), name, start, end.
Spans stay in memory and are written out once, at the end of a run.
A layer's self time is the length of its spans minus their child spans.
Layers are named after the `src/hivc` modules; a span's layer is the
part of its name before the dot.

`region_ssd` runs hundreds of thousands of times per encode, so it is
counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from itertools import count

LAYERS = ("flow", "subdivision", "prediction", "homogeneous", "pseudodiff", "entropy", "codec")


def _solve_stats(args, kwargs, result, counters):
    counters["homogeneous.calls"] += 1
    counters["homogeneous.cg_iterations"] += sum(
        it for _, it in kwargs["stats"].get("level_iterations", ())
    )


def _encode_call(args, kwargs, result, counters):
    counters["codec.encode_calls"] += 1


def _reconstruct_blocks(args, kwargs, result, counters):
    counters["pseudodiff.reconstruct_calls"] += 1
    counters["pseudodiff.blocks"] += len(result)


def _symbols_out(args, kwargs, result, counters):
    counters["entropy.symbols"] += len(result[0])


# (module, attribute the caller looks up, span name, counting hook)
TARGETS = (
    ("hivc.codec", "encode_target_ratio", "codec.encode_target_ratio", None),
    ("hivc.codec", "encode", "codec.encode", _encode_call),
    ("hivc.codec", "decode", "codec.decode", None),
    ("hivc.codec", "flow_brox", "flow.brox", None),
    ("hivc.codec", "compress_flow", "flow.compress", None),
    ("hivc.codec", "decompress_flow", "flow.decompress", None),
    ("hivc.prediction", "warp_planes", "flow.warp", None),
    ("hivc.codec", "encode_intra", "prediction.encode_intra", None),
    ("hivc.codec", "decode_intra", "prediction.decode_intra", None),
    ("hivc.codec", "predict_inter", "prediction.predict_inter", None),
    ("hivc.prediction", "optimize_mask_values", "prediction.tonal", None),
    ("hivc.prediction", "solve_homogeneous", "homogeneous.solve", _solve_stats),
    ("hivc.codec", "subdivide_by_error", "subdivision.subdivide", None),
    ("hivc.prediction", "subdivide_by_error", "subdivision.subdivide", None),
    ("hivc.flow", "subdivide_by_error", "subdivision.subdivide", None),
    ("hivc.codec", "parse_mask", "subdivision.parse_mask", None),
    ("hivc.prediction", "parse_mask", "subdivision.parse_mask", None),
    ("hivc.flow", "deserialize_tree", "subdivision.deserialize_tree", None),
    ("hivc.codec", "solve_block_coefficients_batch", "pseudodiff.fit", None),
    ("hivc.codec", "reconstruct_blocks", "pseudodiff.reconstruct", _reconstruct_blocks),
    ("hivc.entropy", "encode_symbols", "entropy.encode", None),
    ("hivc.entropy", "decode_symbols", "entropy.decode", _symbols_out),
    ("hivc.entropy", "encode_signed_values", "entropy.encode", None),
    ("hivc.entropy", "decode_signed_values", "entropy.decode", None),
)

# counted per call, without a span
COUNTED = (("hivc.subdivision", "region_ssd", "subdivision.region_ssd_calls"),)

# per-layer metrics taken from the encode operation: self seconds of
# one span name, or a counter
ENCODE_SPANS = {
    "flow.brox_s": "flow.brox",
    "flow.compress_s": "flow.compress",
    "prediction.tonal_s": "prediction.tonal",
    "prediction.encode_intra_s": "prediction.encode_intra",
    "subdivision.subdivide_s": "subdivision.subdivide",
    "pseudodiff.fit_s": "pseudodiff.fit",
    "pseudodiff.reconstruct_s": "pseudodiff.reconstruct",
    "entropy.encode_s": "entropy.encode",
}
ENCODE_COUNTS = (
    "codec.encode_calls",
    "subdivision.region_ssd_calls",
    "pseudodiff.reconstruct_calls",
    "pseudodiff.blocks",
)
# ... and from the decode operations, per decode of the whole stream
DECODE_SPANS = {
    "homogeneous.solve_s": "homogeneous.solve",
    "flow.decompress_s": "flow.decompress",
    "flow.warp_s": "flow.warp",
    "prediction.decode_intra_s": "prediction.decode_intra",
    "subdivision.parse_mask_s": "subdivision.parse_mask",
    "entropy.decode_s": "entropy.decode",
}
DECODE_COUNTS = ("homogeneous.calls", "homogeneous.cg_iterations", "entropy.symbols")
OVERHEAD = ("trace.encode_wall_s", "trace.decode_wall_s", "trace.decode_overhead_s")

METRIC_UNITS = {
    **{k: "s" for k in ENCODE_SPANS},
    **{k: "count" for k in ENCODE_COUNTS},
    **{f"{layer}.encode_self_s": "s" for layer in LAYERS},
    **{k: "s" for k in DECODE_SPANS},
    **{k: "count" for k in DECODE_COUNTS},
    **{f"{layer}.decode_self_s": "s" for layer in LAYERS},
    **{k: "s" for k in OVERHEAD},
}


class Tracer:
    """Records spans and counters while installed; restores on uninstall.

    Every hivc call must happen inside an `operation`, whose name keys
    the counters. The benchmark calls hivc from one thread and hivc keeps
    its default of one worker thread, so one span stack serves.
    """

    def __init__(self):
        self.spans = []  # (id, parent, trace, name, t0, t1)
        self.counters = defaultdict(lambda: defaultdict(int))
        self._ids = count(1)
        self._stack = []
        self._saved = []

    def operation(self, name):
        """Root span of one benchmark operation; its id is the trace id."""
        return _Span(self, name)

    def _current(self):
        return self.counters[self._stack[0].name]

    def _wrap(self, name, fn, hook):
        tracer = self
        wants_stats = hook is _solve_stats

        def wrapper(*args, **kwargs):
            if wants_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}  # the solve then reports its CG iterations
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result, tracer._current())
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._current()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, mod_name, attr, make):
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def install(self):
        for mod_name, attr, name, hook in TARGETS:
            self._patch(mod_name, attr, lambda fn: self._wrap(name, fn, hook))
        for mod_name, attr, name in COUNTED:
            self._patch(mod_name, attr, lambda fn: self._counted(name, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_times(self):
        """{(operation, span name): self seconds} over all recorded spans."""
        child = defaultdict(float)
        for sid, parent, trace, name, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        roots = {sid: name for sid, parent, _, name, _, _ in self.spans if not parent}
        out = defaultdict(float)
        for sid, parent, trace, name, t0, t1 in self.spans:
            if parent:
                out[(roots[trace], name)] += (t1 - t0) - child[sid]
        return out

    def layer_metrics(self, n_decodes):
        """Per-layer metrics: encode totals, decode values per decode."""
        st = self.self_times()
        enc, dec = self.counters["encode"], self.counters["decode"]
        out = {k: st[("encode", span)] for k, span in ENCODE_SPANS.items()}
        out.update({k: enc[k] for k in ENCODE_COUNTS})
        out.update({k: st[("decode", span)] / n_decodes for k, span in DECODE_SPANS.items()})
        out.update({k: dec[k] / n_decodes for k in DECODE_COUNTS})
        for layer in LAYERS:
            for op in ("encode", "decode"):
                total = sum(v for (o, name), v in st.items() if o == op and name.split(".")[0] == layer)
                out[f"{layer}.{op}_self_s"] = total / (n_decodes if op == "decode" else 1)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "trace", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        self.sid = next(self.tracer._ids)
        if stack:
            self.parent = stack[-1].sid
            self.trace = stack[-1].trace
        else:
            self.parent = 0
            self.trace = self.sid
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append((self.sid, self.parent, self.trace, self.name, self.t0, t1))
        return False
