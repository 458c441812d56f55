"""Synthetic pan clip used by every workload.

The generator is the benchmark's own copy of the `moving_clip` pan of
the test suite, so the benchmark does not import from `tests/`. At seed
11, 8 frames of 480x205 and a 2 px step it reproduces the test suite's
bench clip bit for bit; `BENCH_CLIP_SHA256` pins that output.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.ndimage import gaussian_filter

from hivc.frame import Frame

# SHA-256 of moving_clip(8, 205, 480, seed=11, step=2), planes as int32
BENCH_CLIP_SHA256 = "c2dd080d93812476ca9ff9b55e7511c8c941d90b57df9f1de0e963794c6a0995"


def smooth_texture(height, width, seed, sigma):
    """Band-limited random texture scaled to [0, 255]."""
    rng = np.random.default_rng(seed)
    t = gaussian_filter(rng.uniform(0.0, 1.0, size=(height, width)), sigma, mode="reflect")
    t -= t.min()
    span = t.max() if t.max() > 0 else 1.0
    return 255.0 * t / span


def moving_clip(n_frames, height, width, seed, step=2):
    """RGB clip whose content pans horizontally by `step` px per frame."""
    margin = step * n_frames + 4
    big = [
        smooth_texture(height + 2 * margin, width + 2 * margin, seed * 7 + c, sigma=2.5)
        for c in range(3)
    ]
    frames = []
    for t in range(n_frames):
        off = margin - step * t
        planes = tuple(
            np.rint(b[margin : margin + height, off : off + width]).astype(np.int32) for b in big
        )
        frames.append(Frame(planes, colorspace="rgb"))
    return frames


def clip_digest(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for p in f.planes:
            h.update(np.ascontiguousarray(p, dtype=np.int32).tobytes())
    return h.hexdigest()
