"""hivc benchmark: run one workload once and print one JSON result line.

    python3 perfbench/run.py --workload ratio100 --seed 11 --seconds 6 --trace 0

Each workload is a closed loop with one caller: a single process calls
hivc's public functions one at a time, waits for each, and checks every
output. It builds the synthetic pan clip from `--seed`, encodes it, and
decodes the stream repeatedly for `--seconds` seconds in all, in turns
with fresh `python -m hivc.cli decode` processes, fresh set-up processes
and, on the intra workloads, repeated encodes. hivc keeps its default of
one worker thread.

With `--trace 0` the last line carries the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` hivc's layers are wrapped from outside
(see spans.py) and the last line carries the per-layer metrics. The line
before it holds the environment and details that are not metrics. Spans
of a traced run are written to perfbench/out/. `--smoke` runs on a tiny
clip, for the benchmark's own tests.

Exit codes: 0 when every output checked out, 1 when one did not, 2 when
the hivc sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# All workloads use one frame size, so that their per-frame figures
# compare. It is smaller than the 480x205 bench clip of the test suite
# because BENCHMARK.json's run count must finish in under an hour on 2
# cores: at 480x205, ratio100's encode alone takes over 70 s. 336x144
# is about the smallest size at which an 8-frame pan still reaches
# 100:1; below it, per-frame headers dominate the stream. An intra
# encode takes under 10 s, too short to average out the machine's
# drift, so those workloads encode 3 times.
HEIGHT, WIDTH = 144, 336
WORKLOADS = {
    "ratio100": dict(frames=8, encodes=1, config=dict(gop_size=8), target=100.0),
    "all-intra": dict(frames=2, encodes=3, config=dict(gop_size=1)),
    "lossless": dict(
        frames=2,
        encodes=3,
        config=dict(gop_size=1, intra_mask_fraction=1.0, intra_levels=256),
        exact=True,
    ),
}
# a tiny clip for the benchmark's tests; 100:1 is out of reach at this size
SMOKE = dict(frames=3, height=24, width=40)
SMOKE_TARGET = 4.0

# A shared 2-core machine runs the same Python loop anywhere from 1x to
# 1.8x slower, in streaks of seconds to minutes. So that each median
# spans as much of a run as it can, the repeated operations take turns
# in ROUNDS rounds: encodes, warm decodes, set-up processes and CLI
# decodes.
ROUNDS = 5
MIN_DECODES = 20  # the tail percentile keeps 10 samples beyond it
RATIO_TOLERANCE = 0.10  # criterion 9's band around the target ratio

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_s_per_frame": "s/frame",
    "decode_fps": "frames/s",
    "decode_fps_tail": "frames/s",
    "cli_decode_s": "s",
    "compression_ratio": "raw/stream",
    "psnr_db": "dB",
    "peak_rss_mb": "MiB",
}


def _environment():
    from hivc import runtime

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "hivc_threads": runtime.get_num_threads(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HIVC_THREADS")},
        "machine": platform.platform(),
    }


def _commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _psnr_db(source, decoded):
    """Mean per-frame PSNR, with each frame's MSE floored at one level
    of error on one sample: an exact frame reads 10*log10(255^2 * n)."""
    out = []
    for a, b in zip(source, decoded):
        err = sum(float(np.sum((pa.astype(np.float64) - pb) ** 2)) for pa, pb in zip(a.planes, b.planes))
        n = a.width * a.height * a.channels
        out.append(10.0 * math.log10(255.0**2 / max(err / n, 1.0 / n)))
    return statistics.fmean(out)


def _median(samples):
    return statistics.median(samples) if samples else None


def _tail(samples):
    """(sample, percentile) of the highest percentile that has 10 samples beyond it."""
    if len(samples) < 11:
        return None, None
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _operation(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.operation(name)


class Run:
    """One workload run: counts attempted and failed operations."""

    def __init__(self, spec, seed):
        self.spec, self.seed = spec, seed
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def encode(self, frames, raw):
        from hivc import codec

        cfg = codec.EncoderConfig(self_check=True, **self.spec["config"])
        t0 = time.perf_counter()
        try:
            if "target" in self.spec:
                stream, _, _ = codec.encode_target_ratio(frames, cfg, self.spec["target"])
            else:
                stream = codec.encode(frames, cfg)
        except Exception as e:  # a failed encode is counted, never retried
            self.check(False, f"encode raised {type(e).__name__}: {e}")
            return None, None
        seconds = time.perf_counter() - t0
        self.check(True, "encode")  # self_check=True verified closed-loop bit identity
        if "target" in self.spec:
            ratio = raw / len(stream)
            self.check(
                abs(ratio - self.spec["target"]) <= RATIO_TOLERANCE * self.spec["target"],
                f"ratio {ratio:.2f} outside {RATIO_TOLERANCE:.0%} of {self.spec['target']}",
            )
        return stream, seconds

    def decode(self, stream, reference, tracer=None):
        """Seconds of one warm decode, which must equal the reference
        decode; None when it raised."""
        from hivc import codec

        t0 = time.perf_counter()
        try:
            with _operation(tracer, "decode"):
                out = codec.decode(stream)
        except Exception as e:  # counted, never retried
            self.check(False, f"decode raised {type(e).__name__}: {e}")
            return None
        dt = time.perf_counter() - t0
        self.check(out == reference, "repeated decode differs")
        return dt

    def setup(self):
        """Seconds of one fresh process importing hivc and making the clip."""
        s = self.spec
        argv = [sys.executable, str(HERE / "setup_probe.py")]
        argv += [str(v) for v in (s["frames"], s["height"], s["width"], self.seed)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if self.check(done.returncode == 0, f"setup probe exit {done.returncode}: {done.stderr[-300:]}"):
            return float(done.stdout.split()[-1])
        return None

    def cli_decode(self, path, reference):
        """Wall seconds of one fresh `python -m hivc.cli decode` process,
        whose Y4M output must equal the reference decode."""
        from hivc import video_io

        dst = path.with_suffix(".y4m")
        argv = [sys.executable, "-m", "hivc.cli", "decode", str(path), str(dst)]
        t0 = time.perf_counter()
        done = subprocess.run(
            argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, timeout=120
        )
        dt = time.perf_counter() - t0
        ok = done.returncode == 0 and video_io.read_y4m(dst)[0] == reference
        dst.unlink(missing_ok=True)
        return dt if self.check(ok, f"cli decode exit {done.returncode}: {done.stderr[-300:]!r}") else None

    def measure(self, frames, raw, stream, reference, seconds):
        """The workload's further encodes, which must reproduce the first
        stream, and warm decodes for `seconds` (at least MIN_DECODES),
        set-up processes and CLI decodes, in turns. Returns their times."""
        encodes, decodes, setups, clis = [], [], [], []
        encode_rounds = {i * ROUNDS // self.spec["encodes"] for i in range(1, self.spec["encodes"])}
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = Path(tmp) / "stream.hivc"
            path.write_bytes(stream)
            for i in range(ROUNDS):
                if i in encode_rounds:
                    again, enc_s = self.encode(frames, raw)
                    if again is not None and self.check(again == stream, "encode is not deterministic"):
                        encodes.append(enc_s)
                end = time.perf_counter() + seconds / ROUNDS
                tries = 0
                while tries < -(-MIN_DECODES // ROUNDS) or time.perf_counter() < end:
                    tries += 1
                    decodes.append(self.decode(stream, reference))
                setups.append(self.setup())
                clis.append(self.cli_decode(path, reference))
        return [[t for t in ts if t is not None] for ts in (encodes, decodes, setups, clis)]

    def measure_traced(self, stream, reference, seconds, tracer):
        """Traced and untraced warm decodes, alternating, for `seconds`."""
        traced, untraced = [], []
        end = time.perf_counter() + seconds
        while len(traced) < MIN_DECODES or time.perf_counter() < end:
            tracer.install()
            try:
                traced.append(self.decode(stream, reference, tracer))
            finally:
                tracer.uninstall()
            untraced.append(self.decode(stream, reference))
        return [[t for t in ts if t is not None] for ts in (traced, untraced)]


def run(workload, seed, seconds, trace, smoke):
    from hivc import codec
    from clipgen import moving_clip

    spec = dict(WORKLOADS[workload], height=HEIGHT, width=WIDTH)
    if smoke:
        spec.update(SMOKE)
        if "target" in spec:
            spec["target"] = SMOKE_TARGET
    r = Run(spec, seed)
    frames = moving_clip(spec["frames"], spec["height"], spec["width"], seed)
    n = len(frames)
    raw = n * frames[0].width * frames[0].height * frames[0].channels
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke,
              "frames": n, "height": spec["height"], "width": spec["width"]}

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with _operation(tracer, "encode"):
            stream, enc_s = r.encode(frames, raw)
        if stream is None:
            return r, detail, None
        with _operation(tracer, "warmup"):
            reference = codec.decode(stream)  # the output every decode must match
    finally:
        if tracer is not None:
            tracer.uninstall()
    r.check(len(reference) == n, "decoded frame count")
    if spec.get("exact"):
        r.check(reference == frames, "lossless decode is not bit-exact")
    detail.update(stream_bytes=len(stream), ratio=raw / len(stream))

    if tracer is not None:
        traced, untraced = r.measure_traced(stream, reference, seconds, tracer)
        metrics = tracer.layer_metrics(max(len(traced), 1))
        metrics["trace.encode_wall_s"] = enc_s
        metrics["trace.decode_wall_s"] = _median(traced)
        if traced and untraced:
            metrics["trace.decode_overhead_s"] = _median(traced) - _median(untraced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path)
        detail.update(traced_decodes=len(traced), untraced_decodes=len(untraced),
                      spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        return r, detail, metrics

    encodes, decodes, setups, clis = r.measure(frames, raw, stream, reference, seconds)
    tail_s, tail_pct = _tail(decodes)
    detail.update(encodes=1 + len(encodes), decodes=len(decodes), tail_percentile=tail_pct,
                  tail_samples_beyond=10)
    metrics = {
        "setup_s": _median(setups),
        "encode_s_per_frame": _median([enc_s] + encodes) / n,
        "decode_fps": n / _median(decodes) if decodes else None,
        "decode_fps_tail": n / tail_s if tail_s else None,
        "cli_decode_s": _median(clis),
        "compression_ratio": raw / len(stream),
        "psnr_db": _psnr_db(frames, reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return r, detail, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny clip, for the benchmark's tests")
    args = p.parse_args(argv)

    if not (SRC / "hivc" / "__init__.py").is_file():
        print(f"hivc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    r, detail, metrics = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    metrics = {k: v for k, v in (metrics or {}).items() if v is not None}
    units = END_TO_END_UNITS
    if args.trace:
        from spans import METRIC_UNITS as units
    if any(k not in declared or units[k] != declared[k] for k in metrics):
        raise SystemExit(f"emitted metrics do not match BENCHMARK.json: {sorted(metrics)}")
    correct = set(metrics) == set(declared) and r.failed == 0
    detail.update(error_rate=r.failed / max(r.attempted, 1), failures=r.notes[:20])
    print(json.dumps({"env": _environment(), "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
