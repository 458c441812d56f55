"""Hybrid inpainting-based video codec (HIVC).

Intra frames are predicted by global homogeneous diffusion inpainting,
inter frames by motion compensation along compressed dense backward
optic flow, and residuals are coded with block-based pseudodifferential
inpainting whose decode path is one 64x64 Green's-matrix product.
"""

from hivc.frame import Frame, rct_forward, rct_inverse, psnr

__all__ = ["Frame", "rct_forward", "rct_inverse", "psnr"]

__version__ = "0.1.0"
