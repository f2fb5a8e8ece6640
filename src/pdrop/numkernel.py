"""Deterministic dense numeric primitives for the toy decoder.

Everything is float64 and pure: identical inputs give bit-identical
outputs on the same machine and BLAS. The softmax, RMS norm and rotary
kernels can write every result and intermediate into buffers the caller
passes (``out=``, ``sums=``, ``scratch=``, a ``rope_table`` built into
``out=``), so the decoder runs them inside its workspace without
allocating arrays of their size. The RNG is a counter-based
splitmix-style integer generator feeding a Box-Muller normal sampler, so
weight init does not depend on numpy's own generators; its integer
stream is the same on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

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


# the largest score bound under which softmax_rows skips the row maximum:
# every finite entry then lies in [-EXP_SAFE, EXP_SAFE], so exp neither
# overflows nor underflows to 0 (e^300 is 1.9e130, e^-300 is 5.1e-131), and a
# row sum of at most layout.MAX_ELEMENTS (2^25) such terms stays below 7e137. The
# attention's P·V product of those weights stays finite as well: its values
# are projections of RMS-normalised rows, so they are bounded by the weights
# alone, not by the residual stream
EXP_SAFE = 300.0


def softmax_rows(
    a: np.ndarray, out: np.ndarray | None = None, sums: np.ndarray | None = None,
    bound: float | None = None,
) -> np.ndarray:
    """Softmax over the last axis; -inf entries get weight 0. ``out`` may
    be ``a`` itself to normalise in place. With ``sums``, of the shape of
    ``a`` with a last axis of 1, the division is left to the caller: each
    row is left as its exponentials and their sum is written to ``sums``.
    ``bound`` is the caller's promise that every finite entry of ``a`` lies
    in [-bound, bound]. When it is at most EXP_SAFE the exponentials are
    exp(a), unshifted; otherwise (no bound, a larger one, NaN or inf) they
    are exp(a - max) with each row's maximum subtracted, and ``sums`` first
    holds the row maxima."""
    a = np.asarray(a, dtype=np.float64)
    if bound is not None and bound <= EXP_SAFE:
        out = np.exp(a, out=out)
    else:
        # the reductions np.max and np.sum wrap, called without their wrappers
        top = np.maximum.reduce(a, axis=-1, keepdims=True, out=sums)
        out = np.subtract(a, top, out=out)
        np.exp(out, out=out)
    if sums is None:
        out /= np.add.reduce(out, axis=-1, keepdims=True)
    else:
        np.add.reduce(out, axis=-1, keepdims=True, out=sums)
    return out


def rmsnorm_rows(
    a: np.ndarray, gain: np.ndarray, eps: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``a * gain / sqrt(mean(a * a) + eps)`` per row. ``out``, which must
    not overlap ``a``, receives the squares and then the result."""
    a = np.asarray(a, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != gain.shape[0]:
        raise InputError(f"rmsnorm_rows mismatch: {a.shape} vs gain {gain.shape}")
    # np.mean's own steps, a sum then a division by the row width, without
    # its wrapper
    rms = np.add.reduce(np.multiply(a, a, out=out), axis=-1, keepdims=True)
    rms /= a.shape[1]
    rms += eps
    np.sqrt(rms, out=rms)
    out = np.multiply(a, gain, out=out)
    out /= rms
    return out


def rope_table(
    positions: np.ndarray, head_dim: int, theta_base: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The cos and sin of the rotary angles of ``positions``, stacked in
    one array of shape (2, *positions.shape, head_dim // 2) that ``out``
    may provide: pair i of a row at position p turns by
    p * theta_base^(-2i / head_dim). Give (n, 1) positions to rotate every
    head of an (n, heads, head_dim) row alike."""
    if head_dim % 2 != 0:
        raise ConfigError(f"rope requires even head_dim, got {head_dim}")
    pair = np.arange(head_dim // 2, dtype=np.float64)
    inv_freq = theta_base ** (-2.0 * pair / head_dim)
    positions = np.asarray(positions)
    if out is None:
        out = np.empty((2, *positions.shape, head_dim // 2))
    cos, sin = out
    # the angles pass through the sin half
    np.multiply(positions[..., None], inv_freq, out=sin)
    np.cos(sin, out=cos)
    np.sin(sin, out=sin)
    return out


def rope_rotate_rows(
    x: np.ndarray, table: np.ndarray, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Rotate consecutive (even, odd) pairs of the last axis of ``x`` by the
    angles of a ``rope_table``, whose (cos, sin) halves broadcast against
    the pairs of ``x``. ``out``, of the shape of ``x`` and not overlapping
    it, may be any strided view; ``scratch``, of the shape of the pairs,
    holds one product, so the rotation allocates nothing when both are
    given."""
    x = np.asarray(x, dtype=np.float64)
    cos, sin = table
    if x.shape[-1] != 2 * cos.shape[-1]:
        raise ConfigError(f"rope requires even head_dim matching a table of "
                          f"{cos.shape[-1]} pairs, got {x.shape[-1]}")
    if out is None:
        out = np.empty_like(x)
    even, odd = x[..., 0::2], x[..., 1::2]
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    if scratch is None:
        scratch = np.empty_like(even)
    # even * cos - odd * sin, then even * sin + odd * cos, each product
    # rounded on its own as in the two-expression form
    np.multiply(even, cos, out=out_even)
    out_even -= np.multiply(odd, sin, out=out_odd)
    np.multiply(even, sin, out=out_odd)
    out_odd += np.multiply(odd, cos, out=scratch)
    return out


def arg_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending; ties go to the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if k < 0 or k > scores.shape[0]:
        raise ConfigError(f"k={k} out of range for {scores.shape[0]} scores")
    # stable sort of the negated scores keeps lower indices first among ties
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def gaussian_init(rng: RngState, rows: int, cols: int, stddev: float) -> np.ndarray:
    if stddev <= 0:
        raise ConfigError(f"stddev must be positive, got {stddev}")
    return rng.normals(rows * cols, stddev).reshape(rows, cols)
