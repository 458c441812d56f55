"""Image/video containers, the reversible color transform, and quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Value bounds per plane after the reversible color transform.
Y_RANGE = (0, 255)
UV_RANGE = (-255, 255)


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
class Frame:
    """Planar integer image with 1 (gray / Y) or 3 (RGB or YUV) channels.

    Planes are int32 arrays of shape (height, width), row-major,
    top-left origin. Frames are immutable after construction and safe
    to share across threads.
    """

    planes: tuple
    colorspace: str = "rgb"  # "rgb", "yuv" (RCT domain) or "gray"

    def __post_init__(self):
        if len(self.planes) not in (1, 3):
            raise FrameError(f"expected 1 or 3 planes, got {len(self.planes)}")
        shape = self.planes[0].shape
        planes = []
        for p in self.planes:
            if p.shape != shape or p.ndim != 2:
                raise FrameError("plane shape mismatch")
            planes.append(np.ascontiguousarray(p, dtype=np.int32))
            planes[-1].setflags(write=False)
        object.__setattr__(self, "planes", tuple(planes))

    @property
    def width(self):
        return self.planes[0].shape[1]

    @property
    def height(self):
        return self.planes[0].shape[0]

    @property
    def channels(self):
        return len(self.planes)

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.colorspace == other.colorspace
            and self.channels == other.channels
            and all(np.array_equal(a, b) for a, b in zip(self.planes, other.planes))
        )


def _require_rgb(frame: Frame):
    if frame.channels != 3:
        raise FrameError(f"need 3 channels, got {frame.channels}")


def rct_forward(rgb: Frame) -> Frame:
    """JPEG2000 reversible color transform, integer-exact invertible.

    Y = floor((R + 2G + B) / 4), U = B - G, V = R - G.
    Y stays in [0, 255]; U, V lie in [-255, 255].
    """
    _require_rgb(rgb)
    r, g, b = (p.astype(np.int64) for p in rgb.planes)
    y = (r + 2 * g + b) >> 2
    u = b - g
    v = r - g
    return Frame((y, u, v), colorspace="yuv")


def rct_inverse(yuv: Frame) -> Frame:
    """Inverse of rct_forward: G = Y - floor((U + V) / 4), R = V + G, B = U + G."""
    _require_rgb(yuv)
    y, u, v = yuv.planes
    if y.min() < 0 or y.max() > 255 or any(
        p.min(initial=0) < -255 or p.max(initial=0) > 255 for p in (u, v)
    ):
        raise FrameError("YUV planes out of RCT range")
    # in range, so the int32 planes cannot overflow here
    g = y - ((u + v) >> 2)
    r = v + g
    b = u + g
    return Frame((r, g, b), colorspace="rgb")


def plane_groups(channels: int):
    """Indices of the planes that share one subdivision tree, group by
    group: Y alone, then U and V together (gray frames have only Y)."""
    return [[0], [1, 2]] if channels == 3 else [[0]]


def psnr(a: Frame, b: Frame) -> float:
    """PSNR in dB with peak 255, MSE pooled over all channels.

    Returns math.inf for identical frames.
    """
    if a.width != b.width or a.height != b.height or a.channels != b.channels:
        raise FrameError("frame geometry mismatch")
    err = 0.0
    for pa, pb in zip(a.planes, b.planes):
        d = pa.astype(np.float64) - pb.astype(np.float64)
        err += float(np.sum(d * d))
    mse = err / (a.width * a.height * a.channels)
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / math.sqrt(mse))


def clip_plane(values: np.ndarray, channel_index: int, colorspace: str) -> np.ndarray:
    """Round and clip a real-valued plane back to its legal integer range."""
    if colorspace == "yuv" and channel_index > 0:
        lo, hi = UV_RANGE
    else:
        lo, hi = Y_RANGE
    out = np.rint(values)
    return np.clip(out, lo, hi, out=out).astype(np.int32)
