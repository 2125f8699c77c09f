"""Process heap policy: keep freed step-sized arrays in the heap for reuse.

A training or inference step allocates and frees arrays of the same sizes
every step. With glibc's defaults, arrays of 128 KiB or more are mmapped and
unmapped one by one, and freed memory at the top of the heap is trimmed
back to the kernel, so every step faults its pages in again (about 680
minor faults per keypoint training step). keep_freed_memory sets glibc's
mmap threshold to 64 MiB, above the largest per-step array (a 4x1024^2
float64 map is 32 MiB), and its trim threshold to 256 MiB. It sets both:
setting either one switches off glibc's dynamic thresholds. The price is a
process that holds up to the trim threshold of freed heap instead of
returning it.

satconv calls it once, at import, so every caller of the layers gets the
policy. It applies on Linux with glibc only, and not at all when the
environment already sets a malloc tunable (a MALLOC_*_ variable, or
glibc.malloc.* in GLIBC_TUNABLES), so that an operator's setting wins.
"""

from __future__ import annotations

import ctypes
import os

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 256 << 20

APPLIED = False  # whether keep_freed_memory set both thresholds in this process


def glibc_mallopt():
    """glibc's mallopt through ctypes, or None under any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr or name, not glibc, no symbol
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds unless the environment tunes malloc.

    Records in APPLIED, and returns, whether both thresholds were set.
    """
    global APPLIED
    tuned = (any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)
             or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))
    mallopt = None if tuned else glibc_mallopt()
    if mallopt is not None:
        mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        APPLIED = bool(mmap_set and trim_set)
    return APPLIED
