"""Scalar quantizers.

Plain uniform quantization covers intra mask values and flow leaf
averages. Green's-function weights and constants are dead-zone
quantized against a per-frame scale: with lmax = (levels - 1) / 2, the
step is scale / lmax, the zero bin is anchored so that zero values
reconstruct as exactly zero (no flickering), and reconstruction
contracts toward zero. Values beyond the scale clip to +-lmax.
"""

from __future__ import annotations

import numpy as np

from hivc.bitstream import CodecError

SCALE_PERCENTILE = 99.9


class QuantizeError(ValueError):
    pass


def coefficient_scale(c: np.ndarray) -> float:
    """Per-frame scale: the 99.9th percentile of |c| (outliers clip)."""
    if c.size == 0:
        raise QuantizeError("empty coefficient set")
    scale = float(np.percentile(np.abs(c), SCALE_PERCENTILE))
    return scale if scale > 0 else 1.0


def deadzone_step(scale: float, levels: int) -> float:
    """Step of the dead-zone quantizer with `levels` reconstruction
    levels, index * step for index in -lmax..lmax: scale / lmax."""
    if levels < 3 or levels % 2 == 0:
        raise QuantizeError("dead-zone levels must be odd and >= 3")
    return scale / ((levels - 1) // 2)


def deadzone_quantize(c: np.ndarray, scale: float, levels: int):
    """index = sign(c) * min(floor(|c| / step), lmax); toward zero."""
    idx = np.minimum(np.floor(np.abs(c) / deadzone_step(scale, levels)), (levels - 1) // 2)
    return (np.sign(c) * idx).astype(np.int64)


def deadzone_indices(index, levels: int) -> np.ndarray:
    """Dead-zone indices as float64, the value in units of the step; an
    index beyond +-(levels - 1) / 2 raises CodecError."""
    lmax = (levels - 1) // 2
    return _checked_index(index, -lmax, lmax, levels)


def uniform_quantize(x, lo: float, hi: float, levels: int):
    """Uniform quantizer over [lo, hi] with reconstruction points at
    lo + i * (hi - lo) / (levels - 1); error <= half a step."""
    if not lo < hi:
        raise QuantizeError("need lo < hi")
    if levels < 2:
        raise QuantizeError("need levels >= 2")
    x = np.asarray(x, dtype=np.float64)
    step = (hi - lo) / (levels - 1)
    idx = np.rint((x - lo) / step)
    return np.clip(idx, 0, levels - 1).astype(np.int64)


def uniform_dequantize(index, lo: float, hi: float, levels: int):
    """lo + index * step, for lo < hi; an index outside [0, levels)
    raises CodecError."""
    step = (hi - lo) / (levels - 1)
    return lo + _checked_index(index, 0, levels - 1, levels) * step


def _checked_index(index, lo: int, hi: int, levels: int) -> np.ndarray:
    """Quantizer indices as float64, once each is checked to lie in [lo, hi]."""
    index = np.asarray(index)
    outside = index[(index < lo) | (index > hi)]
    if outside.size:
        raise CodecError(f"quantizer index {outside[0]} of {levels} levels")
    return index.astype(np.float64)
