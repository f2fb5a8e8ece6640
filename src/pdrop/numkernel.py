"""Deterministic dense numeric primitives for the toy decoder.

Everything is float64 and pure: identical inputs give bit-identical
outputs on the same machine and BLAS. The RNG is a counter-based
splitmix-style integer generator feeding a Box-Muller normal sampler, so
weight init does not depend on numpy's own generators; its integer
stream is the same on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigError, ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *tags: int) -> int:
    """Fold tags into a seed to get an independent substream seed."""
    z = seed & _MASK64
    with np.errstate(over="ignore"):
        for t in tags:
            arr = np.uint64(z) + (np.uint64((t + 1) & _MASK64) * _GAMMA)
            z = int(_mix64(arr[None])[0])
    return z


@dataclass
class RngState:
    """Counter-based stream: output i is mix64(seed + (i+1)*gamma)."""

    seed: int
    counter: int = 0

    def raw(self, count: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            return _mix64(np.uint64(self.seed & _MASK64) + idx * _GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform samples in (0, 1], 53-bit resolution."""
        return ((self.raw(count) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, count: int, stddev: float = 1.0) -> np.ndarray:
        half = (count + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.empty(2 * half, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return stddev * out[:count]


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; -inf entries get weight 0."""
    a = np.asarray(a, dtype=np.float64)
    shifted = a - np.max(a, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def rmsnorm_rows(a: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != gain.shape[0]:
        raise ShapeError(f"rmsnorm_rows mismatch: {a.shape} vs gain {gain.shape}")
    return a * gain / np.sqrt(np.mean(a * a, axis=-1, keepdims=True) + eps)


def rope_rotate_rows(x: np.ndarray, positions: np.ndarray, theta_base: float) -> np.ndarray:
    """Rotate consecutive (even, odd) pairs of the last axis of ``x`` by
    angles scaled by ``positions``, which broadcasts against the leading
    axes: (n, head_dim) rows with (n,) positions, or (n, heads, head_dim)
    with (n, 1) positions to rotate every head of a row alike."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % 2 != 0:
        raise ConfigError(f"rope requires even head_dim, got {x.shape[-1]}")
    head_dim = x.shape[-1]
    pair = np.arange(head_dim // 2, dtype=np.float64)
    inv_freq = theta_base ** (-2.0 * pair / head_dim)
    ang = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
    out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
    return out


def arg_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending; ties go to the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if k < 0 or k > scores.shape[0]:
        raise BoundsError(f"k={k} out of range for {scores.shape[0]} scores")
    # stable sort of the negated scores keeps lower indices first among ties
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def gaussian_init(rng: RngState, rows: int, cols: int, stddev: float) -> np.ndarray:
    if stddev <= 0:
        raise ConfigError(f"stddev must be positive, got {stddev}")
    return rng.normals(rows * cols, stddev).reshape(rows, cols)
