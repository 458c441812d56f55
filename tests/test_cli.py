import json
import os
import stat
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import moving_clip
from hivc import bitstream, cli, codec, entropy, video_io
from hivc.bitstream import StreamHeader, write_stream
from hivc.cli import main
from hivc.frame import Frame
from test_entropy import huge_count_payload
from test_video_io import y4m_with_field


def _report_dict(path):
    out = {}
    for line in path.read_text().splitlines():
        k, v = line.split("=", 1)
        out[k] = v
    return out


@pytest.fixture()
def clip_y4m(tmp_path):
    clip = moving_clip(4, 32, 48, seed=20)
    path = tmp_path / "in.y4m"
    video_io.write_y4m(path, clip, fps=(25, 1))
    return path, clip


def test_encode_decode_round_trip(tmp_path, clip_y4m):
    src, clip = clip_y4m
    stream = tmp_path / "out.hivc"
    report = tmp_path / "enc.txt"
    rc = main(["encode", str(src), str(stream), "--gop-size", "4", "--self-check", "--report", str(report)])
    assert rc == 0
    rep = _report_dict(report)
    assert rep["self_check"] == "ok"
    assert int(rep["frames"]) == 4
    assert float(rep["compression_ratio"]) > 1.0
    assert rep["config_gop_size"] == "4"

    out = tmp_path / "dec.y4m"
    dec_report = tmp_path / "dec.txt"
    rc = main(["decode", str(stream), str(out), "--report", str(dec_report)])
    assert rc == 0
    frames, _ = video_io.read_y4m(out)
    assert len(frames) == 4
    drep = _report_dict(dec_report)
    assert "decode_fps" in drep
    assert "stage_intra_solve_seconds" in drep


def test_decode_bench_reports_runs_and_shares(tmp_path, clip_y4m):
    src, _ = clip_y4m
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--gop-size", "4"]) == 0
    report = tmp_path / "bench.txt"
    rc = main(["decode", str(stream), str(tmp_path / "o.y4m"), "--bench", "--report", str(report)])
    assert rc == 0
    rep = _report_dict(report)
    assert int(rep["bench_runs"]) >= 5
    assert float(rep["bench_median_fps"]) > 0
    assert "bench_stage_residual_transform_share" in rep


def test_metrics_identical_inputs(tmp_path, clip_y4m):
    src, _ = clip_y4m
    report = tmp_path / "m.txt"
    rc = main(["metrics", str(src), str(src), "--report", str(report)])
    assert rc == 0
    rep = _report_dict(report)
    assert rep["psnr_frame_0"] == "inf"
    assert rep["psnr_mean"] == "inf"


def test_metrics_lossy_pair(tmp_path, clip_y4m):
    src, _ = clip_y4m
    stream = tmp_path / "s.hivc"
    decoded = tmp_path / "d.y4m"
    assert main(["encode", str(src), str(stream), "--gop-size", "4"]) == 0
    assert main(["decode", str(stream), str(decoded)]) == 0
    report = tmp_path / "m.txt"
    assert main(["metrics", str(src), str(decoded), "--report", str(report)]) == 0
    rep = _report_dict(report)
    assert float(rep["psnr_mean"]) > 20.0


def test_inspect_byte_accounting(tmp_path, clip_y4m):
    src, _ = clip_y4m
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--gop-size", "2"]) == 0
    report = tmp_path / "i.txt"
    assert main(["inspect", str(stream), "--report", str(report)]) == 0
    rep = _report_dict(report)
    total = sum(int(rep[f"bytes_{k}"]) for k in ("intra", "flow", "residual", "framing"))
    assert total == int(rep["stream_bytes"]) == stream.stat().st_size
    assert int(rep["groups"]) == 2
    # the container's own fields: the header; each group's length, CRC32
    # and frame count; each record's type, prediction and residual lengths
    framing = bitstream.HEADER_SIZE + 2 * (4 + 4 + 2) + 4 * (1 + 4 + 4)
    assert int(rep["bytes_framing"]) == framing


def test_inspect_truncated_stream_exits_corrupt(tmp_path, clip_y4m):
    src, _ = clip_y4m
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--gop-size", "4"]) == 0
    data = stream.read_bytes()
    trunc = tmp_path / "t.hivc"
    trunc.write_bytes(data[:-10])
    assert main(["inspect", str(trunc)]) == 4
    assert main(["decode", str(trunc), str(tmp_path / "o.y4m")]) == 4


def _two_gop_stream(tmp_path):
    """A 4-frame colour stream in two groups of two, on disk."""
    stream = tmp_path / "s.hivc"
    clip = moving_clip(4, 16, 24, seed=24)
    stream.write_bytes(codec.encode(clip, codec.EncoderConfig(gop_size=2)))
    return stream


def test_decode_failing_in_the_last_group_leaves_no_file(tmp_path, monkeypatch, capsys):
    stream = _two_gop_stream(tmp_path)
    header, payloads = bitstream.read_stream(stream.read_bytes())
    *_, (_, _, res) = codec.frame_records(header, payloads[-1], len(payloads) - 1)
    # the last residual payload ends the stream; its marker becomes
    # invalid, under a matching CRC32
    last = bytearray(payloads[-1])
    last[len(last) - len(res)] = 2
    stream.write_bytes(write_stream(header, payloads[:-1] + [bytes(last)]))
    written = []
    real = video_io.write_y4m

    def spying(path, frames, fps):
        return real(path, (written.append(f) or f for f in frames), fps)

    monkeypatch.setattr(video_io, "write_y4m", spying)
    assert main(["decode", str(stream), str(tmp_path / "o.y4m")]) == 4
    assert "bad residual payload marker" in capsys.readouterr().err
    # the three good frames were written as they came, then discarded
    assert len(written) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.hivc"]


def test_decode_to_an_image_needs_a_one_frame_stream(tmp_path, monkeypatch):
    stream = _two_gop_stream(tmp_path)
    calls = []
    real = codec.decode_intra
    monkeypatch.setattr(codec, "decode_intra", lambda *a: calls.append(1) or real(*a))
    for name in ("o.ppm", "o.pgm"):
        assert main(["decode", str(stream), str(tmp_path / name)]) == 1
    assert calls == []  # refused before anything was decoded
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.hivc"]


def test_decode_output_replaces_an_old_file_with_the_usual_mode(tmp_path):
    stream = _two_gop_stream(tmp_path)
    out = tmp_path / "o.y4m"
    out.write_bytes(b"old")
    assert main(["decode", str(stream), str(out)]) == 0
    assert len(video_io.read_y4m(out)[0]) == 4
    umask = os.umask(0o022)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.y4m", "s.hivc"]


def test_decode_writes_through_a_fifo_and_a_symlink_without_replacing_them(tmp_path):
    stream = _two_gop_stream(tmp_path)
    fifo = tmp_path / "player.y4m"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["decode", str(stream), str(fifo)]) == 0
    reader.join(timeout=60)
    assert stat.S_ISFIFO(fifo.lstat().st_mode) and got
    target, link = tmp_path / "target.y4m", tmp_path / "link.y4m"
    link.symlink_to(target)
    assert main(["decode", str(stream), str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == got[0]
    assert len(video_io.read_y4m(target)[0]) == 4


def _intra_stream(width, height, pred):
    """A width x height gray stream of one intra frame: the intra payload
    `pred` and an empty residual."""
    header = StreamHeader(width, height, 1, 25, 1, 1, 1, 256, 256, 63)
    gop = struct.pack("<HBI", 1, 0, len(pred)) + pred + struct.pack("<I", 1) + b"\x00"
    return write_stream(header, [gop])


def _one_pixel_stream(values_payload):
    """A 1x1 gray intra stream whose luma value stream (the value block's
    indices) is `values_payload`: a one-leaf tree, then the block."""
    return _intra_stream(1, 1, b"\x00" + struct.pack("<ii", 0, 255) + values_payload)


def test_decode_huge_entropy_count_fails_without_traceback(tmp_path, capsys):
    # a 1x1 gray intra frame whose luma value stream claims a 2^63 count
    stream = tmp_path / "huge.hivc"
    stream.write_bytes(_one_pixel_stream(huge_count_payload()))
    assert main(["decode", str(stream), str(tmp_path / "o.y4m")]) == 4
    assert main(["inspect", str(stream)]) == 4
    assert "Traceback" not in capsys.readouterr().err


def test_decode_rejects_runs_cut_short_without_a_traceback(tmp_path, capsys):
    # a 1x1 frame's one value takes no FSE bits
    assert entropy.encode_symbols([0]) == b"\x01\x20\x20\x00"
    assert codec.decode(_one_pixel_stream(entropy.encode_symbols([0])))[0].planes[0].shape == (1, 1)
    # a 2x1 frame: a split root and two leaves, then two values whose
    # FSE bits fill the last byte of the payload
    values = entropy.encode_symbols([0, 1])
    pred = b"\x80" + struct.pack("<ii", 0, 255) + values
    assert codec.decode(_intra_stream(2, 1, pred))[0].planes[0].shape == (1, 2)
    cut_short = {
        "fse": _intra_stream(2, 1, pred[:-1]),
        # the tree of the largest frame a stream may hold, its splits cut
        # short after two bytes
        "tree": _intra_stream(3840, 2160, b"\xff\xff"),
    }
    for name, data in cut_short.items():
        t0 = time.perf_counter()
        with pytest.raises(bitstream.Truncated, match="run out"):
            codec.decode(data)
        assert time.perf_counter() - t0 < 5.0
        stream = tmp_path / f"{name}.hivc"
        stream.write_bytes(data)
        assert main(["decode", str(stream), str(tmp_path / "o.y4m")]) == 4
        assert main(["inspect", str(stream)]) == 4
    assert "Traceback" not in capsys.readouterr().err


def test_stream_over_pixel_limit_exits_corrupt(tmp_path, clip_y4m, monkeypatch, capsys):
    src, _ = clip_y4m
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--gop-size", "4"]) == 0
    monkeypatch.setattr(bitstream, "MAX_PIXELS", 32 * 48 - 1)
    assert main(["decode", str(stream), str(tmp_path / "o.y4m")]) == 4
    assert main(["inspect", str(stream)]) == 4
    # an oversize input frame is a codec error, not a corrupt stream
    assert main(["encode", str(src), str(tmp_path / "t.hivc")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_header_declaring_zero_frames_exits_corrupt(tmp_path, capsys):
    # the 22-byte header of a 16x16 gray stream, frame_count (bytes 9-12) 0
    data = bytearray(StreamHeader(16, 16, 1, 25, 1, 8, 1, 256, 256, 63).pack())
    data[9:13] = bytes(4)
    stream = tmp_path / "empty.hivc"
    stream.write_bytes(bytes(data))
    assert main(["decode", str(stream), str(tmp_path / "o.y4m")]) == 4
    assert main(["decode", str(stream), str(tmp_path / "o.pgm")]) == 4
    assert main(["inspect", str(stream)]) == 4
    assert "at least one frame" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.hivc"]


def test_missing_input_exits_io(tmp_path):
    assert main(["encode", str(tmp_path / "nope.y4m"), str(tmp_path / "o.hivc")]) == 2
    assert main(["decode", str(tmp_path / "nope.hivc"), str(tmp_path / "o.y4m")]) == 2


@pytest.mark.parametrize("field", [b"Wx", b"F25", b"W-4", b"F25:0"])
def test_malformed_y4m_header_exits_io(tmp_path, capsys, field):
    src = y4m_with_field(tmp_path / "in.y4m", field)
    assert main(["encode", str(src), str(tmp_path / "o.hivc")]) == 2
    assert main(["metrics", str(src), str(src)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"i/o error: bad header field '{field.decode()}'") == 2
    assert not (tmp_path / "o.hivc").exists()


def test_usage_errors(tmp_path, clip_y4m, capsys, monkeypatch):
    assert main(["frobnicate"]) == 1
    assert main(["encode"]) == 1
    # options hivc does not have
    assert main(["--threads", "2", "encode", "in.y4m", "out.hivc"]) == 1
    assert main(["encode", "in.y4m", "out.hivc", "--flow-method", "brox"]) == 1

    # a value the stream header cannot hold, rejected before any flow
    def no_flow(*args):
        raise AssertionError("flow computed for an illegal setting")

    monkeypatch.setattr(codec, "flow_brox", no_flow)
    src, _ = clip_y4m
    out = tmp_path / "o.hivc"
    for flag, value in (
        ("--residual-levels", "4"),
        ("--residual-levels", "1"),
        ("--intra-levels", "300"),
        ("--flow-levels", "1"),
        # and a ratio rate control cannot aim at
        ("--target-ratio", "nan"),
        ("--target-ratio", "inf"),
        ("--target-ratio", "0"),
        ("--target-ratio", "0.5"),
    ):
        capsys.readouterr()
        assert main(["encode", str(src), str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
    cfg = tmp_path / "c.cfg"
    for lam in ("nan", "inf", "-1"):
        cfg.write_text(f"residual_lambda={lam}\n")
        assert main(["encode", str(src), str(out), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("usage error: residual_lambda")
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--target-ratio", "15"]])
def test_a_failed_self_check_exits_as_a_codec_error(tmp_path, clip_y4m, capsys, monkeypatch, extra):
    real_decode = codec.iter_decode

    def wrong_decode(data, timings=None):
        for i, frame in enumerate(real_decode(data, timings)):
            if i == 1:
                planes = [p.copy() for p in frame.planes]
                planes[0][0, 0] ^= 1
                frame = Frame(tuple(planes), colorspace=frame.colorspace)
            yield frame

    monkeypatch.setattr(codec, "iter_decode", wrong_decode)
    src, _ = clip_y4m
    out = tmp_path / "o.hivc"
    assert main(["encode", str(src), str(out), "--gop-size", "2", "--self-check", *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("codec error: ") and "self-check failed at frame 1" in err
    assert not out.exists()


def test_config_file_applies_and_rejects_unknown_keys(tmp_path, clip_y4m, capsys):
    src, _ = clip_y4m
    good = tmp_path / "good.cfg"
    good.write_text("gop_size=2\nintra_mask_fraction=0.2  # comment\nself_check=true\n")
    stream = tmp_path / "s.hivc"
    report = tmp_path / "r.txt"
    rc = main(["encode", str(src), str(stream), "--config", str(good), "--report", str(report)])
    assert rc == 0
    rep = _report_dict(report)
    assert rep["config_gop_size"] == "2"
    assert rep["config_intra_mask_fraction"] == "0.2"
    assert rep["self_check"] == "ok"

    bad = tmp_path / "bad.cfg"
    bad.write_text("gop_size=2\nturbo_mode=yes\n")
    assert main(["encode", str(src), str(stream), "--config", str(bad)]) == 1
    bad.write_text("flow_method=brox\n")
    assert main(["encode", str(src), str(stream), "--config", str(bad)]) == 1
    for line in ("gop_size=two", "intra_mask_fraction=abc", "self_check=banana", "self_check="):
        capsys.readouterr()
        bad.write_text(f"self_check=true\n{line}\n")
        assert main(["encode", str(src), str(stream), "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {bad}:2: ")
        assert repr(line.split("=")[0]) in err


@pytest.mark.parametrize(
    "text,on", [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                ("0", False), ("False", False), ("NO", False), ("Off", False)]
)
def test_config_file_reads_each_boolean_word(tmp_path, text, on):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"self_check = {text}\n")
    assert cli._parse_config_file(cfg) == {"self_check": on}


def test_flag_overrides_config(tmp_path, clip_y4m):
    src, _ = clip_y4m
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gop_size=2\n")
    stream = tmp_path / "s.hivc"
    report = tmp_path / "r.txt"
    rc = main(["encode", str(src), str(stream), "--config", str(cfg), "--gop-size", "4", "--report", str(report)])
    assert rc == 0
    assert _report_dict(report)["config_gop_size"] == "4"


@pytest.mark.parametrize(
    "text,rate", [("", (30, 1)), ("fps_den=2\n", (30, 2)), ("fps_num=24\n", (24, 1))]
)
def test_config_file_frame_rate_overrides_input_rate_key_by_key(tmp_path, text, rate):
    src = tmp_path / "in.y4m"
    video_io.write_y4m(src, moving_clip(1, 16, 16, seed=23), fps=(30, 1))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--config", str(cfg), "--gop-size", "1"]) == 0
    header = bitstream.unpack_header(stream.read_bytes())
    assert (header.fps_num, header.fps_den) == rate


def test_target_ratio_flag(tmp_path):
    clip = moving_clip(4, 48, 96, seed=21)
    src = tmp_path / "in.y4m"
    video_io.write_y4m(src, clip)
    stream = tmp_path / "s.hivc"
    report = tmp_path / "r.txt"
    rc = main(["encode", str(src), str(stream), "--gop-size", "4", "--target-ratio", "15", "--report", str(report)])
    assert rc == 0
    ratio = float(_report_dict(report)["compression_ratio"])
    assert 13.5 <= ratio <= 16.5


def test_target_ratio_report_traces_the_rate_search(tmp_path):
    clip = moving_clip(2, 24, 32, seed=23)
    src = tmp_path / "in.y4m"
    video_io.write_y4m(src, clip)
    stream = tmp_path / "s.hivc"
    report = tmp_path / "r.txt"
    args = ["encode", str(src), str(stream), "--gop-size", "2", "--report", str(report)]
    assert main(args + ["--target-ratio", "12"]) == 0
    rep = _report_dict(report)
    npasses = int(rep["rate_passes"])
    assert 1 <= npasses <= 1 + codec.TARGET_RATIO_PASSES
    assert 1 <= int(rep["rate_probes"]) <= 1 + codec.TARGET_RATIO_PASSES
    assert "rate_fitted_passes" not in rep
    # one line per full encode: multiplier, ratio, stream bytes, seconds
    passes = [rep[f"rate_pass_{i}"].split(",") for i in range(1, npasses + 1)]
    assert f"rate_pass_{npasses + 1}" not in rep
    assert all(len(p) == 4 and float(p[3]) >= 0.0 for p in passes)
    assert all(float(r) == pytest.approx(2 * 24 * 32 * 3 / int(b)) for _, r, b, _ in passes)
    # the search lands, or writes the pass closest to the target
    ratios = [float(r) for _, r, _, _ in passes]
    ratio = float(rep["compression_ratio"])
    assert abs(ratio - 12) <= 0.03 * 12 or abs(ratio - 12) == pytest.approx(min(abs(r - 12) for r in ratios))
    assert int(rep["stream_bytes"]) in [int(b) for _, _, b, _ in passes]
    # the written stream is the one its multiplier's settings give
    multiplier = float(rep["rate_multiplier"])
    assert float(passes[[float(m) for m, *_ in passes].index(multiplier)][1]) == pytest.approx(ratio, abs=1e-3)
    cfg = codec._scaled_config(codec.EncoderConfig(gop_size=2), multiplier, 24 * 32)
    assert rep["config_residual_lambda"] == str(cfg.residual_lambda)
    assert stream.read_bytes() == codec.encode(clip, cfg)
    # a plain encode runs no search
    assert main(args) == 0
    assert not any(k.startswith("rate_") for k in _report_dict(report))


def test_single_frame_pnm_pipeline(tmp_path):
    f = moving_clip(1, 24, 24, seed=22)[0]
    src = tmp_path / "f.ppm"
    video_io.write_pnm(src, f)
    stream = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(stream), "--mask-fraction", "1.0", "--intra-levels", "256", "--gop-size", "1"]) == 0
    out = tmp_path / "o.ppm"
    assert main(["decode", str(stream), str(out)]) == 0
    assert video_io.read_pnm(out) == f


def test_encode_of_a_one_pixel_wide_clip_exits_cleanly(tmp_path):
    # 1x8 frames: the flow's x derivative runs along an axis of length 1
    clip = [
        Frame(tuple(p[:, :1] for p in f.planes), colorspace="rgb")
        for f in moving_clip(3, 8, 16, seed=21)
    ]
    src = tmp_path / "in.y4m"
    video_io.write_y4m(src, clip, fps=(25, 1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-m", "hivc.cli", "encode", str(src), str(tmp_path / "s.hivc"), "--gop-size", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert [f.planes[0].shape for f in codec.decode((tmp_path / "s.hivc").read_bytes())] == [(8, 1)] * 3


@pytest.mark.parametrize("size", [b"0 4", b"4 0"])
def test_encode_of_frames_without_pixels_exits_as_a_codec_error(tmp_path, capsys, size):
    src = tmp_path / "frames"
    src.mkdir()
    for name in ("a.pgm", "b.pgm"):
        (src / name).write_bytes(b"P5 " + size + b" 255\n")
    out = tmp_path / "s.hivc"
    assert main(["encode", str(src), str(out), "--gop-size", "2"]) == 3
    err = capsys.readouterr().err
    assert "hold no pixels" in err and "Traceback" not in err
    assert not out.exists()


# a child interpreter in which any import of scipy fails, as if it were
# not installed; it prints the scipy modules loaded at its end
NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"no module named {name!r}")

sys.meta_path.insert(0, NoScipy())
from hivc import cli
"""


def test_no_entry_point_loads_scipy(tmp_path):
    video_io.write_y4m(tmp_path / "in.y4m", moving_clip(2, 16, 24, seed=3), fps=(25, 1))
    # the golden colour stream has inter frames: flow decoding and warping run
    stream = Path(__file__).parent / "golden" / "color.hivc"
    commands = [
        ["encode", "in.y4m", "plain.hivc", "--gop-size", "2"],
        ["encode", "in.y4m", "ratio.hivc", "--gop-size", "2", "--target-ratio", "8"],
        ["decode", "ratio.hivc", "ratio.y4m"],
        ["decode", str(stream), "color.y4m"],
        ["inspect", "plain.hivc"],
        ["metrics", "in.y4m", "ratio.y4m"],
    ]
    code = NO_SCIPY + "".join(f"assert cli.main({c!r}) == 0\n" for c in commands)
    code += "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
    assert len(video_io.read_y4m(tmp_path / "ratio.y4m")[0]) == 2
    assert len(video_io.read_y4m(tmp_path / "color.y4m")[0]) == 3
