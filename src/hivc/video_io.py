"""Image and video file I/O.

Still images use binary PNM (P5 gray, P6 color, maxval 255). Sequences
use a YUV4MPEG2-style container restricted to 8-bit 4:4:4 planes; for
color material the three planes carry the untransformed R, G and B
channels (flagged via the XCS=RGB parameter), since the codec applies
its own reversible color transform internally.
"""

from __future__ import annotations

import glob
import itertools
import os
import re

import numpy as np

from hivc.frame import Frame


class VideoIOError(IOError):
    pass


# ---------------------------------------------------------------------------
# PNM
# ---------------------------------------------------------------------------


def _read_pnm_tokens(data: bytes, count: int):
    """First `count` whitespace tokens after the magic, honoring comments."""
    pos = 2
    tokens = []
    while len(tokens) < count:
        if pos >= len(data):
            raise VideoIOError("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise VideoIOError("truncated header")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            m = re.match(rb"[0-9]+", data[pos:])
            if not m:
                raise VideoIOError("malformed header")
            tokens.append(int(m.group()))
            pos += m.end()
    return tokens, pos + 1  # single whitespace after maxval


def read_pnm(path) -> Frame:
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise VideoIOError(f"unsupported image format {magic!r}")
    (w, h, maxval), pos = _read_pnm_tokens(data, 3)
    if maxval != 255:
        raise VideoIOError(f"only maxval 255 supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    if len(data) - pos < need:
        raise VideoIOError("pixel data truncated")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        px = raw.reshape(h, w, 3).astype(np.int32)
        return Frame((px[:, :, 0], px[:, :, 1], px[:, :, 2]), colorspace="rgb")
    return Frame((raw.reshape(h, w).astype(np.int32),), colorspace="gray")


def write_pnm(path, frame: Frame):
    if frame.channels == 3:
        head = b"P6 %d %d 255\n" % (frame.width, frame.height)
        body = np.stack(frame.planes, axis=-1).astype(np.uint8).tobytes()
    else:
        head = b"P5 %d %d 255\n" % (frame.width, frame.height)
        body = frame.planes[0].astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(head + body)


# ---------------------------------------------------------------------------
# Frame sequences
# ---------------------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"


def write_y4m(path, frames, fps=(25, 1)):
    """Write frames from any iterable as they come; returns how many."""
    frames = iter(frames)
    frame = next(frames, None)
    if frame is None:
        raise VideoIOError("no frames to write")
    geometry = (frame.width, frame.height, frame.channels)
    cs = b"C444 XCS=RGB" if frame.channels == 3 else b"Cmono"
    with open(path, "wb") as fh:
        fh.write(
            _Y4M_MAGIC
            + b" W%d H%d F%d:%d Ip A1:1 %s\n" % (frame.width, frame.height, fps[0], fps[1], cs)
        )
        for count, frame in enumerate(itertools.chain([frame], frames), 1):
            if (frame.width, frame.height, frame.channels) != geometry:
                raise VideoIOError("frame geometry mismatch")
            fh.write(b"FRAME\n")
            for p in frame.planes:
                fh.write(np.ascontiguousarray(p, dtype=np.uint8).tobytes())
    return count


def _positive_fields(token: bytes, count: int):
    """The `count` colon-separated integers, each at least 1, of a header token."""
    nums = token[1:].split(b":")
    if len(nums) != count or not all(n.isdigit() and int(n) >= 1 for n in nums):
        raise VideoIOError(f"bad header field {token.decode(errors='replace')!r}")
    return [int(n) for n in nums]


def read_y4m(path):
    """Returns (frames, (fps_num, fps_den))."""
    with open(path, "rb") as fh:
        data = fh.read()
    nl = data.find(b"\n")
    if nl < 0 or not data.startswith(_Y4M_MAGIC):
        raise VideoIOError("not a YUV4MPEG2 stream")
    params = data[len(_Y4M_MAGIC) : nl].split()
    w = h = None
    fps = (25, 1)
    channels = 3
    colorspace_tag = "444"
    for p in params:
        key, val = p[:1], p[1:]
        if key == b"W":
            (w,) = _positive_fields(p, 1)
        elif key == b"H":
            (h,) = _positive_fields(p, 1)
        elif key == b"F":
            fps = tuple(_positive_fields(p, 2))
        elif key == b"C":
            colorspace_tag = val.decode(errors="replace")
            if val == b"mono":
                channels = 1
            elif not val.startswith(b"444"):
                raise VideoIOError(f"unsupported chroma mode C{colorspace_tag}")
    if not w or not h:
        raise VideoIOError("missing frame dimensions")
    frames = []
    pos = nl + 1
    plane_bytes = w * h
    while pos < len(data):
        fnl = data.find(b"\n", pos)
        if fnl < 0 or not data[pos:fnl].startswith(b"FRAME"):
            raise VideoIOError(f"bad frame marker at byte {pos}")
        pos = fnl + 1
        need = plane_bytes * channels
        if pos + need > len(data):
            raise VideoIOError("frame data truncated")
        planes = tuple(
            np.frombuffer(data, dtype=np.uint8, count=plane_bytes, offset=pos + i * plane_bytes)
            .reshape(h, w)
            .astype(np.int32)
            for i in range(channels)
        )
        pos += need
        frames.append(Frame(planes, colorspace="rgb" if channels == 3 else "gray"))
    if not frames:
        raise VideoIOError("stream holds no frames")
    return frames, fps


def read_frames(path):
    """Load a frame sequence.

    Accepts a .y4m file, a single PNM image, a glob pattern over PNM
    images, or a directory of them (sorted by name).
    """
    path = str(path)
    if path.endswith(".y4m"):
        return read_y4m(path)
    if any(ch in path for ch in "*?[") or os.path.isdir(path):
        if os.path.isdir(path):
            names = sorted(
                os.path.join(path, n)
                for n in os.listdir(path)
                if n.endswith((".pgm", ".ppm", ".pnm"))
            )
        else:
            names = sorted(glob.glob(path))
        if not names:
            raise VideoIOError(f"no frames match {path!r}")
        return [read_pnm(n) for n in names], (25, 1)
    return [read_pnm(path)], (25, 1)
