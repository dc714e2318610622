"""Affine quantization primitives and integer-only rescaling kernels.

Rounding is round-to-nearest with ties away from zero, everywhere: the real
helpers, the vectorised integer kernels and the exact big-integer references
all implement the same rule, so the integer path can be checked bit-exactly
against arbitrary-precision arithmetic.

Storage is unsigned (values in ``[0, 2^b - 1]``); accumulators are signed
32-bit.  Reductions stay inside the accumulator as long as the contracted
dimension is at most ``MAX_REDUCE_DIM``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import floatguard

MANTISSA_BITS = 31
_MANT_MIN = 1 << 30
_MANT_MAX = (1 << 31) - 1

#: documented accumulator headroom limit for 8-bit matmul reductions
MAX_REDUCE_DIM = 16384
_BIAS_LIMIT = 1 << 30  # keeps acc + bias inside the 32-bit accumulator


class DegenerateRangeError(ValueError):
    """Observed range cannot produce usable quantization parameters."""


def round_half_away(x):
    """Round to nearest, ties away from zero; returns float64."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def iround(x):
    """round_half_away as int64 (numpy scalar or array)."""
    return round_half_away(x).astype(np.int64)


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization descriptor for one tensor or pipeline stage."""

    min: float
    max: float
    bitwidth: int
    scale: float
    zero_point: int

    def __post_init__(self):
        if self.bitwidth not in (8, 16):
            raise ValueError(f"unsupported bitwidth {self.bitwidth}")
        if not (self.min <= 0.0 <= self.max):
            raise ValueError("range must include zero")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if not (0 <= self.zero_point <= self.qmax):
            raise ValueError("zero_point outside representable range")

    @property
    def qmax(self) -> int:
        return (1 << self.bitwidth) - 1

    @property
    def storage_dtype(self):
        return np.uint8 if self.bitwidth == 8 else np.uint16


def compute_qparams(min_val: float, max_val: float, bitwidth: int) -> QuantParams:
    """Derive quantization parameters from an observed value range.

    The range is widened to include zero so that real 0 is exactly
    representable at the zero-point.
    """
    if bitwidth not in (8, 16):
        raise ValueError(f"unsupported bitwidth {bitwidth}")
    if min_val > max_val:
        raise ValueError(f"empty range [{min_val}, {max_val}]")
    lo = min(float(min_val), 0.0)
    hi = max(float(max_val), 0.0)
    if lo == hi:
        raise DegenerateRangeError("degenerate range: min = max = 0")
    qmax = (1 << bitwidth) - 1
    scale = (hi - lo) / qmax
    zero_point = int(iround(-lo / scale))
    return QuantParams(lo, hi, bitwidth, scale, zero_point)


def quantize(x, qp: QuantParams):
    """Map real values onto the quantized grid (saturating)."""
    q = iround(np.asarray(x, dtype=np.float64) / qp.scale) + qp.zero_point
    q = np.minimum(np.maximum(q, 0), qp.qmax)
    return int(q) if np.isscalar(x) or np.ndim(x) == 0 else q


def dequantize(q, qp: QuantParams):
    """Real value represented by quantized ``q``."""
    r = (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale
    return float(r) if np.ndim(q) == 0 else r


def quantize_weights(w) -> tuple:
    """8-bit weights on their own min/max grid: ``(w_q, qp)``."""
    qp = compute_qparams(float(np.min(w)), float(np.max(w)), 8)
    return np.asarray(quantize(w, qp)).astype(np.uint8), qp


def quantize_bias(bias, scale: float) -> np.ndarray:
    """Bias on the accumulator grid ``scale``, clipped to the bias headroom."""
    return np.clip(iround(bias / scale), -_BIAS_LIMIT, _BIAS_LIMIT).astype(np.int32)


def check_accumulator(dims, bias_q=None) -> None:
    """Reject contracted widths or biases that could overflow the 32-bit accumulator."""
    if max(dims) > MAX_REDUCE_DIM:
        raise ValueError(f"dimensions above {MAX_REDUCE_DIM} overflow the 32-bit accumulator")
    bias = np.asarray(bias_q if bias_q is not None else [], dtype=np.int64)
    if bias.size and np.abs(bias).max() > _BIAS_LIMIT:
        raise ValueError(f"bias magnitudes above {_BIAS_LIMIT} overflow the 32-bit accumulator")


@dataclass
class QuantTensor:
    """Quantized integer data together with its quantization parameters."""

    data: np.ndarray
    qp: QuantParams

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype != self.qp.storage_dtype:
            raise ValueError(
                f"storage dtype {self.data.dtype} does not match bitwidth {self.qp.bitwidth}"
            )

    @property
    def shape(self):
        return self.data.shape

    def diffs(self) -> np.ndarray:
        """Zero-point-centred values as int32 (matmul/elementwise operand form)."""
        floatguard.note(self.data)
        return self.data.astype(np.int32) - np.int32(self.qp.zero_point)

    def dequantize(self) -> np.ndarray:
        return dequantize(self.data, self.qp)

    @classmethod
    def from_real(cls, x, qp: QuantParams) -> "QuantTensor":
        return cls(np.asarray(quantize(x, qp)).astype(qp.storage_dtype), qp)

    @classmethod
    def zeros(cls, shape, qp: QuantParams) -> "QuantTensor":
        """Tensor representing real 0 everywhere (filled with the zero-point)."""
        return cls(np.full(shape, qp.zero_point, dtype=qp.storage_dtype), qp)


@dataclass(frozen=True)
class ScaledMultiplier:
    """Positive real of any magnitude as mantissa * 2^-shift.

    ``from_real`` normalizes the mantissa into [2^30, 2^31); reals of 1 or
    more simply carry a smaller (possibly negative) shift.
    """

    mantissa: int
    shift: int

    @property
    def value(self) -> float:
        return self.mantissa * 2.0 ** (-self.shift)

    @classmethod
    def from_real(cls, r: float) -> "ScaledMultiplier":
        if r == 0.0:
            return cls(0, MANTISSA_BITS)
        if r < 0.0:
            raise ValueError("multiplier must be non-negative")
        frac, exp = math.frexp(r)
        mantissa = int(frac * (1 << MANTISSA_BITS) + 0.5)
        if mantissa > _MANT_MAX:
            mantissa = _MANT_MIN
            exp += 1
        return cls(mantissa, MANTISSA_BITS - exp)


def _shift_round(p: np.ndarray, shift: int) -> np.ndarray:
    """round_half_away(p / 2^shift) on int64; exact integer arithmetic only."""
    floatguard.note(p)
    if shift <= 0:
        return p << (-shift)
    if shift >= 63:
        # |p| < 2^62 for all callers, so the ratio is strictly below 0.5
        return np.zeros_like(p)
    half = np.int64(1) << np.int64(shift - 1)
    return np.sign(p) * ((np.abs(p) + half) >> np.int64(shift))


def _shift_round_exact(p: int, shift: int) -> int:
    if shift <= 0:
        return p << (-shift)
    q, r = divmod(abs(p), 1 << shift)
    if 2 * r >= (1 << shift):
        q += 1
    return q if p >= 0 else -q


def _clamp_store(v: np.ndarray, zero_point: int, bitwidth: int) -> np.ndarray:
    out = np.minimum(np.maximum(v + np.int64(zero_point), 0), (1 << bitwidth) - 1)
    floatguard.note(out)
    return out


def apply_multiplier(acc, m: ScaledMultiplier) -> np.ndarray:
    """round_half_away(acc * m.value) via integer multiply and shift."""
    p = np.asarray(acc, dtype=np.int64) * np.int64(m.mantissa)
    return _shift_round(p, m.shift)


def requantize_scaled(acc, m: ScaledMultiplier, out_zero_point: int, out_bitwidth: int):
    """Rescale an accumulator to a narrower quantized representation.

    Computes ``clamp(round(acc * m.value) + out_zero_point)`` with integer
    multiply and arithmetic shifts only.
    """
    v = _clamp_store(apply_multiplier(acc, m), out_zero_point, out_bitwidth)
    return int(v) if np.ndim(acc) == 0 else v


def requantize_exact(acc: int, m: ScaledMultiplier, out_zero_point: int, out_bitwidth: int) -> int:
    """Arbitrary-precision reference for :func:`requantize_scaled` (same rounding rule)."""
    v = _shift_round_exact(int(acc) * m.mantissa, m.shift) + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


def rescale_add(parts, out_zero_point: int, out_bitwidth: int) -> np.ndarray:
    """Sum of independently rounded rescaled terms, then saturate.

    ``parts`` is a sequence of ``(diff_array, ScaledMultiplier)`` pairs; each
    term is rounded on its own before the integer addition (the rescale-then-add
    convention used for gate sums, residuals and context injection).
    """
    total = None
    for diff, m in parts:
        term = apply_multiplier(diff, m)
        total = term if total is None else total + term
    return _clamp_store(total, out_zero_point, out_bitwidth)


def rescale_add_exact(parts, out_zero_point: int, out_bitwidth: int) -> int:
    total = 0
    for diff, m in parts:
        total += _shift_round_exact(int(diff) * m.mantissa, m.shift)
    v = total + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


@dataclass(frozen=True)
class MultiplierCombo:
    """Signed multipliers on one shared power-of-two grid.

    Terms scaled by a combo are accumulated raw and rounded once, which
    realizes equations that round a linear combination as a whole.
    """

    mantissas: tuple
    shift: int

    @classmethod
    def from_reals(cls, reals) -> "MultiplierCombo":
        peak = max(abs(float(r)) for r in reals)
        if peak == 0.0:
            return cls(tuple(0 for _ in reals), MANTISSA_BITS)
        shift = 30 - math.floor(math.log2(peak))
        mants = tuple(int(iround(float(r) * 2.0**shift)) for r in reals)
        return cls(mants, shift)

    @property
    def values(self):
        return tuple(m * 2.0**-self.shift for m in self.mantissas)


def combine_round(diffs, combo: MultiplierCombo, out_zero_point: int, out_bitwidth: int) -> np.ndarray:
    """Single-rounded linear combination: clamp(round(sum_i d_i * r_i) + zp)."""
    raw = None
    for diff, mant in zip(diffs, combo.mantissas):
        term = np.asarray(diff, dtype=np.int64) * np.int64(mant)
        raw = term if raw is None else raw + term
    return _clamp_store(_shift_round(raw, combo.shift), out_zero_point, out_bitwidth)


def combine_round_exact(diffs, combo: MultiplierCombo, out_zero_point: int, out_bitwidth: int) -> int:
    raw = sum(int(d) * m for d, m in zip(diffs, combo.mantissas))
    v = _shift_round_exact(raw, combo.shift) + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


def divide_round(num: np.ndarray, den: int, shift: int, out_zero_point: int, out_bitwidth: int) -> np.ndarray:
    """clamp(round(num / (den * 2^shift)) + zp); num int64, den positive int."""
    floatguard.note(num)
    den_total = int(den) << max(shift, 0)
    num = np.asarray(num, dtype=np.int64)
    if shift < 0:
        num = num << (-shift)
    if den_total > (1 << 61):
        v = np.array([_round_div_exact(int(p), den_total) for p in num.ravel()], dtype=np.int64)
        v = v.reshape(num.shape)
    else:
        v = np.sign(num) * ((2 * np.abs(num) + den_total) // (2 * den_total))
    return _clamp_store(v, out_zero_point, out_bitwidth)


def _round_div_exact(p: int, q: int) -> int:
    n, r = divmod(abs(p), q)
    if 2 * r >= q:
        n += 1
    return n if p >= 0 else -n


def divide_round_exact(num: int, den: int, shift: int, out_zero_point: int, out_bitwidth: int) -> int:
    num = int(num)
    if shift < 0:
        num <<= -shift
        shift = 0
    v = _round_div_exact(num, int(den) << shift) + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer ``a @ b`` for 1-D or 2-D operands with 32-bit accumulation
    (contracted dim <= MAX_REDUCE_DIM).

    numpy's int32 ``@`` has no BLAS path; ``np.einsum``'s integer loops are
    faster and take strided operands such as ``w.T`` as they are.
    ``optimize=True`` would route the 2-D product through a slower path.
    """
    floatguard.note(a, b)
    sa = "ij"[2 - a.ndim:]
    sb = "jk"[: b.ndim]
    out = np.einsum(
        f"{sa},{sb}->{sa[:-1]}{sb[1:]}", a.astype(np.int32, copy=False), b.astype(np.int32, copy=False)
    )
    floatguard.note(out)
    return out
