"""Command line front end.

Subcommands: encode, decode, metrics, inspect. Reports are flat
key=value lines on stdout (or into --report FILE).

Exit codes: 0 success, 1 usage error, 2 file I/O error, 3 codec
failure, 4 corrupt or truncated stream.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import struct
import sys
import time
from dataclasses import fields

import numpy as np

from hivc import bitstream, codec, runtime, video_io
from hivc.frame import psnr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CODEC = 3
EXIT_CORRUPT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_lines(args):
    inputs = [getattr(args, k) for k in ("input", "reference") if getattr(args, k, None)]
    return [
        ("input", inputs[0] if inputs else ""),
        ("threads", runtime.get_num_threads()),
        ("machine", platform.platform()),
    ]


def _report(lines, path):
    text = "".join(f"{k}={v}\n" for k, v in lines)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# key -> converter of its text value, from EncoderConfig's annotations
_CONVERTERS = {
    "int": int,
    "float": float,
    "bool": lambda v: v.lower() in ("1", "true", "yes", "on"),
}
_CONFIG_TYPES = {f.name: _CONVERTERS[f.type] for f in fields(codec.EncoderConfig)}


def _parse_config_file(path):
    """Flat key=value encoder settings; unknown keys are rejected."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                out[key] = _CONFIG_TYPES[key](value)
            except ValueError as e:
                raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from e
    return out


def _build_parser():
    p = _Parser(prog="hivc", description="Inpainting-based video codec")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a y4m/pnm input")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--config", help="key=value settings file")
    enc.add_argument("--gop-size", type=int, dest="gop_size")
    enc.add_argument("--mask-fraction", type=float, dest="intra_mask_fraction")
    enc.add_argument("--residual-points", type=int, dest="residual_points")
    enc.add_argument("--flow-points", type=int, dest="flow_points")
    enc.add_argument("--intra-levels", type=int, dest="intra_levels")
    enc.add_argument("--flow-levels", type=int, dest="flow_levels")
    enc.add_argument("--residual-levels", type=int, dest="residual_levels")
    enc.add_argument("--target-ratio", type=float, help="search budgets for this ratio")
    enc.add_argument("--self-check", action="store_true", help="decode and verify while encoding")
    enc.add_argument("--report", help="write the run report to a file")

    dec = sub.add_parser("decode", help="decompress a stream")
    dec.add_argument("input")
    dec.add_argument("output", help=".y4m sequence or .pgm/.ppm single frame")
    dec.add_argument("--bench", type=int, nargs="?", const=5, default=0,
                     help="time repeated decodes (at least 5 runs)")
    dec.add_argument("--report", help="write the run report to a file")

    met = sub.add_parser("metrics", help="frame-wise quality of a decoded sequence")
    met.add_argument("reference")
    met.add_argument("distorted")
    met.add_argument("--report", help="write the run report to a file")

    ins = sub.add_parser("inspect", help="stream structure and byte shares")
    ins.add_argument("input")
    ins.add_argument("--report", help="write the run report to a file")
    return p


def _encoder_config(args, fps) -> codec.EncoderConfig:
    """The input's frame rate, overridden by the config file, overridden
    by the flags."""
    kv = {"fps_num": fps[0], "fps_den": fps[1]}
    if args.config:
        kv.update(_parse_config_file(args.config))
    for key in _CONFIG_TYPES:
        if key != "self_check" and getattr(args, key, None) is not None:
            kv[key] = getattr(args, key)
    if args.self_check:
        kv["self_check"] = True
    try:
        return codec.EncoderConfig(**kv)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _cmd_encode(args):
    frames, fps = video_io.read_frames(args.input)
    cfg = _encoder_config(args, fps)
    t0 = time.perf_counter()
    if args.target_ratio:
        stream, ratio, cfg = codec.encode_target_ratio(frames, cfg, args.target_ratio)
    else:
        stream = codec.encode(frames, cfg)
        ratio = _raw_size(frames) / len(stream)
    elapsed = time.perf_counter() - t0
    with open(args.output, "wb") as fh:
        fh.write(stream)
    lines = _common_lines(args) + [
        ("frames", len(frames)),
        ("width", frames[0].width),
        ("height", frames[0].height),
        ("stream_bytes", len(stream)),
        ("compression_ratio", f"{ratio:.3f}"),
        ("encode_seconds", f"{elapsed:.3f}"),
        ("self_check", "ok" if cfg.self_check else "skipped"),
    ]
    lines += [(f"config_{k}", v) for k, v in sorted(_cfg_dict(cfg).items())]
    _report(lines, args.report)
    return EXIT_OK


def _cfg_dict(cfg):
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _raw_size(frames):
    return len(frames) * frames[0].width * frames[0].height * frames[0].channels


def _write_replacing(path, write):
    """Call write(tmp) on a file beside `path`, then move it to `path`;
    on any failure no file is left. Returns what write returned."""
    path = os.path.realpath(path)  # through a symlink to its target
    if os.path.exists(path) and not os.path.isfile(path):
        return write(path)  # a device or a pipe: nothing to replace
    tmp = f"{path}.{os.getpid()}.part"
    try:
        result = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def _cmd_decode(args):
    with open(args.input, "rb") as fh:
        data = fh.read()
    header = bitstream.unpack_header(data)
    to_y4m = args.output.endswith(".y4m")
    if not to_y4m and header.frame_count != 1:
        raise UsageError("multi-frame stream needs a .y4m output")
    timings = {}
    frames = codec.iter_decode(data, timings)
    if to_y4m:
        fps = (header.fps_num, header.fps_den)
        count = _write_replacing(args.output, lambda tmp: video_io.write_y4m(tmp, frames, fps))
    else:
        (frame,) = frames  # the header promised one; this also ends the decode
        _write_replacing(args.output, lambda tmp: video_io.write_pnm(tmp, frame))
        count = 1
    lines = _common_lines(args) + [
        ("frames", count),
        ("width", header.width),
        ("height", header.height),
        ("decode_seconds", f"{timings['total']:.4f}"),
        ("decode_fps", f"{count / timings['total']:.2f}"),
    ]
    for k in sorted(timings):
        if k != "total":
            lines.append((f"stage_{k}_seconds", f"{timings[k]:.4f}"))
    if args.bench:
        runs = max(5, args.bench)
        samples = []
        stage_acc = {}
        for _ in range(runs):
            t = {}
            for _frame in codec.iter_decode(data, t):
                pass  # decoded and dropped: a timed run keeps no frame
            samples.append(count / t["total"])
            for k, v in t.items():
                stage_acc[k] = stage_acc.get(k, 0.0) + v
        lines.append(("bench_runs", runs))
        lines.append(("bench_median_fps", f"{statistics.median(samples):.2f}"))
        for k in sorted(stage_acc):
            if k != "total":
                lines.append((f"bench_stage_{k}_share", f"{stage_acc[k] / stage_acc['total']:.3f}"))
    _report(lines, args.report)
    return EXIT_OK


def _cmd_metrics(args):
    ref, _ = video_io.read_frames(args.reference)
    dist, _ = video_io.read_frames(args.distorted)
    if len(ref) != len(dist):
        raise UsageError(f"frame count mismatch: {len(ref)} vs {len(dist)}")
    values = [psnr(a, b) for a, b in zip(ref, dist)]
    lines = _common_lines(args) + [("frames", len(ref))]
    for i, v in enumerate(values):
        lines.append((f"psnr_frame_{i}", f"{v:.4f}"))
    finite = [v for v in values if np.isfinite(v)]
    lines.append(("psnr_mean", f"{np.mean(finite):.4f}" if finite else "inf"))
    _report(lines, args.report)
    return EXIT_OK


def _cmd_inspect(args):
    with open(args.input, "rb") as fh:
        data = fh.read()
    # a full decode vets every payload, so a corrupt stream exits 4
    # before any byte share is reported; no frame is kept
    for _ in codec.iter_decode(data):
        pass
    header, payloads = bitstream.read_stream(data)
    lines = _common_lines(args) + [
        ("width", header.width),
        ("height", header.height),
        ("frame_count", header.frame_count),
        ("fps", f"{header.fps_num}/{header.fps_den}"),
        ("gop_size", header.gop_size),
        ("channels", header.channels),
        ("intra_levels", header.intra_levels),
        ("flow_levels", header.flow_levels),
        ("residual_levels", header.residual_levels),
        ("stream_bytes", len(data)),
        ("groups", len(payloads)),
    ]
    shares = {"intra": 0, "flow": 0, "residual": 0}
    for gi, payload in enumerate(payloads):
        lines.append((f"group_{gi}_bytes", len(payload)))
        for ftype, pred, res in codec.frame_records(header, payload, gi):
            shares["intra" if ftype == 0 else "flow"] += len(pred)
            shares["residual"] += len(res)
    # the header, and each group's and record's own fields
    shares["framing"] = len(data) - sum(shares.values())
    for k, v in shares.items():
        lines.append((f"bytes_{k}", v))
        lines.append((f"share_{k}", f"{v / len(data):.4f}"))
    _report(lines, args.report)
    return EXIT_OK


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "metrics": _cmd_metrics,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (bitstream.BitstreamError, struct.error) as e:
        print(f"corrupt stream: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except ValueError as e:
        print(f"codec error: {e}", file=sys.stderr)
        return EXIT_CODEC
    except (OSError, video_io.VideoIOError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
