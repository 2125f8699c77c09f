"""Feature maps and channel plumbing.

A feature map is a C-contiguous float ndarray of shape (channels, height,
width), or a batch of them, (samples, channels, height, width). Everything
spatial in this package assumes that layout: the channel axis is -3, rows
are major within a channel, and a leading sample axis, when present, is
carried through unchanged. The binary file format holds one unbatched map.
"""

from __future__ import annotations

import struct

import numpy as np

FMAP_MAGIC = b"SATFM1"

_TAG_TO_DTYPE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_DTYPE_TO_TAG = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


class DimensionError(ValueError):
    """Shape or channel-count mismatch between operands."""


def as_feature_map(x, dtype=None) -> np.ndarray:
    """Validate and normalize an array to ([samples,] channels, height, width) float layout."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim not in (3, 4):
        raise DimensionError(f"feature map must be rank 3 or 4, got shape {x.shape}")
    if min(x.shape) < 1:
        raise DimensionError(f"feature map axes must be >= 1, got shape {x.shape}")
    if x.dtype not in (np.float64, np.float32):
        x = x.astype(np.float64)
    return np.ascontiguousarray(x)


def pointwise_conv(x, matrix, bias) -> np.ndarray:
    """Per-pixel linear map across channels: the (out_channels, in_channels)
    matrix times each pixel's channel vector, plus the (out_channels,) bias."""
    x = as_feature_map(x)
    m = np.asarray(matrix, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"matrix must be rank 2, got shape {m.shape}")
    if b.shape != (m.shape[0],):
        raise DimensionError(f"bias shape {b.shape} does not match {m.shape[0]} output channels")
    if x.shape[-3] != m.shape[1]:
        raise DimensionError(f"input has {x.shape[-3]} channels, matrix expects {m.shape[1]}")
    out = np.einsum("oc,...chw->...ohw", m, x) + b[:, None, None]
    return out.astype(x.dtype, copy=False)


def channel_shuffle(x, groups: int) -> np.ndarray:
    """Interleave channel groups: position (g, i) moves to (i, g)."""
    x = as_feature_map(x)
    *lead, c, h, w = x.shape
    if groups < 1 or c % groups != 0:
        raise DimensionError(f"{c} channels not divisible into {groups} groups")
    per = c // groups
    return np.ascontiguousarray(
        x.reshape(*lead, groups, per, h, w).swapaxes(-4, -3).reshape(x.shape)
    )


def channel_split(x, at: int):
    x = as_feature_map(x)
    if not 0 < at < x.shape[-3]:
        raise DimensionError(f"split point {at} out of range for {x.shape[-3]} channels")
    return x[..., :at, :, :].copy(), x[..., at:, :, :].copy()


def channel_concat(a, b) -> np.ndarray:
    a = as_feature_map(a)
    b = as_feature_map(b)
    if a.shape[:-3] != b.shape[:-3] or a.shape[-2:] != b.shape[-2:]:
        raise DimensionError(f"sample or spatial shapes differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-3)


def save_feature_map(path, x) -> None:
    """Flat binary format: magic, u32 channels/height/width, u8 dtype tag, raw LE scalars."""
    x = as_feature_map(x)
    if x.ndim != 3:
        raise DimensionError(f"a feature map file holds one (C, H, W) map, got shape {x.shape}")
    tag = _DTYPE_TO_TAG[x.dtype]
    with open(path, "wb") as f:
        f.write(FMAP_MAGIC)
        f.write(struct.pack("<IIIB", *x.shape, tag))
        f.write(x.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes())


def load_feature_map(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(FMAP_MAGIC)] != FMAP_MAGIC:
        raise ValueError(f"{path}: not a feature map file (bad magic)")
    if len(raw) < len(FMAP_MAGIC) + struct.calcsize("<IIIB"):
        raise ValueError(f"{path}: truncated header")
    c, h, w, tag = struct.unpack_from("<IIIB", raw, len(FMAP_MAGIC))
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    dt = _TAG_TO_DTYPE[tag]
    start = len(FMAP_MAGIC) + struct.calcsize("<IIIB")
    expected = c * h * w * dt.itemsize
    if len(raw) - start != expected:
        raise ValueError(f"{path}: payload is {len(raw) - start} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype=dt, offset=start).reshape(c, h, w)
    return as_feature_map(data, dtype=dt.newbyteorder("="))
