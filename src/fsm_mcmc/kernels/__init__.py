"""Transition kernels, each one program compiled to a monolithic sampler and a machine."""

from __future__ import annotations

from .base import KernelBundle, KernelError
from .drmh import drmh_kernel
from .elliptical import elliptical_kernel
from .nuts import nuts_kernel
from .slice_sampling import slice_kernel

__all__ = [
    "KernelBundle",
    "KernelError",
    "drmh_kernel",
    "slice_kernel",
    "elliptical_kernel",
    "nuts_kernel",
    "KERNEL_BUILDERS",
]

KERNEL_BUILDERS = {
    "drmh": drmh_kernel,
    "slice": slice_kernel,
    "elliptical": elliptical_kernel,
    "nuts": nuts_kernel,
}
