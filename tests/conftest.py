"""Shared synthetic clip generators for the test suite."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from hivc.frame import Frame


def smooth_texture(height, width, seed=0, sigma=1.5, lo=0.0, hi=255.0):
    """Band-limited random texture, useful as flow-friendly content."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=(height, width))
    t = gaussian_filter(base, sigma, mode="reflect")
    t -= t.min()
    span = t.max() if t.max() > 0 else 1.0
    return lo + (hi - lo) * t / span


def shifted_pair(height, width, dx, dy, seed=0, sigma=1.5, margin=8):
    """Two crops of one texture, the second shifted by integer (dx, dy)."""
    big = smooth_texture(height + 2 * margin, width + 2 * margin, seed, sigma)
    prev = big[margin : margin + height, margin : margin + width]
    # Backward flow convention: prev sampled at (x + dx, y + dy) equals cur.
    cur = big[margin + dy : margin + dy + height, margin + dx : margin + dx + width]
    return cur.copy(), prev.copy()


def rgb_frame(height, width, seed=0):
    rng = np.random.default_rng(seed)
    planes = tuple(
        smooth_texture(height, width, seed * 3 + c, sigma=2.0).round().astype(np.int32)
        for c in range(3)
    )
    del rng
    return Frame(planes, colorspace="rgb")


def moving_clip(n_frames, height, width, seed=0, step=2):
    """RGB clip whose content pans horizontally by `step` px per frame."""
    margin = step * n_frames + 4
    frames = []
    big = [
        smooth_texture(height + 2 * margin, width + 2 * margin, seed * 7 + c, sigma=2.5)
        for c in range(3)
    ]
    for t in range(n_frames):
        off = margin - step * t
        planes = tuple(
            np.rint(b[margin : margin + height, off : off + width]).astype(np.int32)
            for b in big
        )
        frames.append(Frame(planes, colorspace="rgb"))
    return frames


def two_motion_clip(n_frames, height, width, seed=0, step=2):
    """RGB clip of two textured halves moving apart: per frame the left
    half pans left by `step` px and the right half pans up by `step` px,
    so its backward flow is (step, 0) on the left and (0, step) on the
    right."""
    margin = step * n_frames + 4
    half = width // 2
    left = [
        smooth_texture(height + 2 * margin, width + 2 * margin, seed * 7 + c, sigma=2.5)
        for c in range(3)
    ]
    right = [
        smooth_texture(height + 2 * margin, width + 2 * margin, seed * 7 + 3 + c, sigma=2.5)
        for c in range(3)
    ]
    frames = []
    for t in range(n_frames):
        off = margin + step * t
        planes = tuple(
            np.rint(
                np.hstack(
                    [
                        a[margin : margin + height, off : off + half],
                        b[off : off + height, margin : margin + width - half],
                    ]
                )
            ).astype(np.int32)
            for a, b in zip(left, right)
        )
        frames.append(Frame(planes, colorspace="rgb"))
    return frames


def static_clip(n_frames, height, width, seed=0):
    f = rgb_frame(height, width, seed)
    return [f] * n_frames


@pytest.fixture(scope="session")
def bench_clip():
    """The desk-scale benchmarking clip: 8 frames at 480x205."""
    return moving_clip(8, 205, 480, seed=11, step=2)
