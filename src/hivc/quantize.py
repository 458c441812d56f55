"""Scalar quantizers.

Plain uniform quantization covers intra mask values and flow leaf
averages. Green's-function coefficients are first mapped into
[-127, 127] with a per-frame scale and then dead-zone quantized: the
zero bin is anchored so that zero coefficients reconstruct as exactly
zero (no flickering), and reconstruction contracts toward zero.
"""

from __future__ import annotations

import numpy as np

COEFF_BOUND = 127.0
SCALE_PERCENTILE = 99.9


class QuantizeError(ValueError):
    pass


def coefficient_scale(c: np.ndarray) -> float:
    """Per-frame mapping scale: the 99.9th percentile of |c| (outliers clip)."""
    if c.size == 0:
        raise QuantizeError("empty coefficient set")
    scale = float(np.percentile(np.abs(c), SCALE_PERCENTILE))
    return scale if scale > 0 else 1.0


def map_coefficients(c: np.ndarray, global_scale: float) -> np.ndarray:
    """Map coefficients into [-127, 127]: clamp(c / scale * 127)."""
    if global_scale <= 0:
        raise QuantizeError("global_scale must be positive")
    if np.asarray(c).size == 0:
        raise QuantizeError("empty coefficient set")
    return np.clip(np.asarray(c, dtype=np.float64) / global_scale * COEFF_BOUND, -COEFF_BOUND, COEFF_BOUND)


def unmap_coefficients(mapped: np.ndarray, global_scale: float) -> np.ndarray:
    return np.asarray(mapped, dtype=np.float64) / COEFF_BOUND * global_scale


def deadzone_step(levels: int) -> float:
    """Step of the dead-zone quantizer with 2L+1 reconstruction levels."""
    if levels < 3 or levels % 2 == 0:
        raise QuantizeError("dead-zone levels must be odd and >= 3")
    return COEFF_BOUND / ((levels - 1) // 2)


def deadzone_quantize(x, levels: int):
    """index = sign(x) * floor(|x| / step); quantizes toward zero."""
    step = deadzone_step(levels)
    x = np.asarray(x, dtype=np.float64)
    idx = np.sign(x) * np.floor(np.abs(x) / step)
    lmax = (levels - 1) // 2
    return np.clip(idx, -lmax, lmax).astype(np.int64)


def deadzone_dequantize(index, levels: int):
    """Reconstruction at index * step; index 0 maps to exactly 0.0. An
    index beyond +-(levels - 1) / 2 raises QuantizeError."""
    step = deadzone_step(levels)
    lmax = (levels - 1) // 2
    return _checked_index(index, -lmax, lmax, levels) * step


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
    """lo + index * step; an index outside [0, levels) raises QuantizeError."""
    if not lo < hi:
        raise QuantizeError("need lo < hi")
    step = (hi - lo) / (levels - 1)
    return lo + _checked_index(index, 0, levels - 1, levels) * step


def _checked_index(index, lo: int, hi: int, levels: int) -> np.ndarray:
    """Quantizer indices as float64, once each is checked to lie in [lo, hi]."""
    index = np.asarray(index)
    outside = index[(index < lo) | (index > hi)]
    if outside.size:
        raise QuantizeError(f"quantizer index {outside[0]} of {levels} levels")
    return index.astype(np.float64)
