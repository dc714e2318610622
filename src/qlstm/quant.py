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
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import floatguard

MANTISSA_BITS = 31
_MANT_MIN = 1 << 30
_MANT_MAX = (1 << 31) - 1

#: documented accumulator headroom limit for 8-bit matmul reductions
MAX_REDUCE_DIM = 16384
_BIAS_LIMIT = 1 << 30  # keeps acc + bias inside the 32-bit accumulator
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


class DegenerateRangeError(ValueError):
    """Observed range cannot produce usable quantization parameters."""


def round_half_away(x):
    """Round to nearest, ties away from zero; returns float64."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def iround(x):
    """round_half_away as int64 (numpy scalar or array)."""
    return round_half_away(x).astype(np.int64)


def check_int(name: str, v) -> None:
    """Reject a count or grid value that is not an integer (numpy integers pass, bools fail)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {v!r}")


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization descriptor for one tensor or pipeline stage."""

    min: float
    max: float
    bitwidth: int
    scale: float
    zero_point: int

    def __post_init__(self):
        for name in ("bitwidth", "zero_point"):
            check_int(name, getattr(self, name))
        if self.bitwidth not in (8, 16):
            raise ValueError(f"unsupported bitwidth {self.bitwidth}")
        if not all(math.isfinite(v) for v in (self.min, self.max, self.scale)):
            raise ValueError("range and scale must be finite")
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
    representable at the zero-point.  A NaN or infinite bound, or a range
    too wide for a finite scale or too narrow for a normal (not subnormal)
    one, raises :class:`DegenerateRangeError`.
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
    if not math.isfinite(scale):
        raise DegenerateRangeError(f"range [{min_val}, {max_val}] is not finite or too wide")
    if scale < _TINY:  # a subnormal scale has too few bits to put the zero point on the grid
        raise DegenerateRangeError(f"range [{min_val}, {max_val}] is too narrow for a normal scale")
    zero_point = int(iround(-lo / scale))
    return QuantParams(lo, hi, bitwidth, scale, zero_point)


@contextmanager
def stage_errors(key: str):
    """Re-raise a ``ValueError`` (as its own type) with the stage's name in front."""
    try:
        yield
    except ValueError as e:
        raise type(e)(f"stage {key!r}: {e}") from None


@contextmanager
def prefix_errors(prefix: str):
    """Re-raise a ``ValueError`` from one part of a layer (a BiLSTM direction,
    a MadNorm) with the part in its stage name (``stage 'bwd.sig': ...``),
    or in front of the message."""
    try:
        yield
    except ValueError as e:
        msg, head = str(e), "stage '"
        msg = head + f"{prefix}." + msg[len(head) :] if msg.startswith(head) else f"{prefix}: {msg}"
        raise type(e)(msg) from None


def sub_ranges(ranges: dict, prefix: str) -> dict:
    """The calibration ranges under ``prefix.``, with the prefix stripped."""
    pre = prefix + "."
    return {k[len(pre) :]: v for k, v in ranges.items() if k.startswith(pre)}


def stage_qparams(ranges: dict, key: str, bitwidth: int) -> QuantParams:
    """compute_qparams for one named stage; errors carry the stage name."""
    if key not in ranges:
        raise ValueError(f"stage {key!r} missing from calibration ranges")
    with stage_errors(key):
        return compute_qparams(*ranges[key], bitwidth)


def quantize(x, qp: QuantParams):
    """Map real values onto the quantized grid (saturating); int64."""
    q = quantize_in_place(np.array(x, dtype=np.float64), qp).astype(np.int64)
    return int(q) if np.isscalar(x) or np.ndim(x) == 0 else q


def quantize_in_place(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Round the float64 array ``q`` onto ``qp``'s grid in place and return
    it: :func:`round_half_away` of ``q / scale`` plus the zero point,
    clamped, with one sign mask as the only temporary.

    The clamp comes before any int cast, so values whose grid index lies
    beyond int64 (tiny scales, huge inputs) saturate instead of wrapping.
    """
    q /= qp.scale
    neg = np.signbit(q)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.negative(q, out=q, where=neg)
    q += qp.zero_point
    np.maximum(q, 0, out=q)
    return np.minimum(q, qp.qmax, out=q)


def dequantize(q, qp: QuantParams):
    """Real value represented by quantized ``q``."""
    r = (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale
    return float(r) if np.ndim(q) == 0 else r


def quantize_weights(w) -> tuple:
    """8-bit weights on their own min/max grid: ``(w_q, qp)``."""
    qp = compute_qparams(float(np.min(w)), float(np.max(w)), 8)
    return np.asarray(quantize(w, qp)).astype(np.uint8), qp


def centred(w_q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Stored weights minus their zero point, as int32."""
    return w_q.astype(np.int32) - np.int32(qp.zero_point)


def quantize_bias(bias, scale: float) -> np.ndarray:
    """Bias on the accumulator grid ``scale``, clipped to the bias headroom.

    The clip comes before the int cast, so a bias whose grid index lies
    beyond int64 (a tiny scale) saturates with its sign instead of wrapping."""
    q = np.clip(round_half_away(np.asarray(bias, dtype=np.float64) / scale), -_BIAS_LIMIT, _BIAS_LIMIT)
    return q.astype(np.int32)


def check_dtype(dtype, **arrays) -> None:
    """Reject integer-layer tensors stored in any dtype but ``dtype``."""
    for name, arr in arrays.items():
        if np.asarray(arr).dtype != dtype:
            raise ValueError(f"{name} must be stored as {np.dtype(dtype).name}, not {np.asarray(arr).dtype}")


def check_accumulator(dims, bias_q=None) -> None:
    """Reject contracted widths or biases that could overflow the 32-bit accumulator."""
    if max(dims) > MAX_REDUCE_DIM:
        raise ValueError(f"dimensions above {MAX_REDUCE_DIM} overflow the 32-bit accumulator")
    bias = np.asarray(bias_q if bias_q is not None else [], dtype=np.int64)
    if bias.size and np.abs(bias).max() > _BIAS_LIMIT:
        raise ValueError(f"bias magnitudes above {_BIAS_LIMIT} overflow the 32-bit accumulator")


@dataclass
class QuantTensor:
    """An integer model's output sequence together with its quantization
    parameters, as :func:`~qlstm.runtime.run` returns it; between layers,
    values are raw storage arrays."""

    data: np.ndarray
    qp: QuantParams

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype != self.qp.storage_dtype:
            raise ValueError(
                f"storage dtype {self.data.dtype} does not match bitwidth {self.qp.bitwidth}"
            )

    def dequantize(self) -> np.ndarray:
        return dequantize(self.data, self.qp)


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


def saturating_multiplier(r: float) -> ScaledMultiplier:
    """Multiplier of a stage that rescales one operand and saturates.

    From 2^17 up, ``r`` sends every nonzero operand past the stage's grid
    (8 or 16 bits, after a division by at most 255), as the exact oracle
    saturates; capping ``r`` at 2^30 keeps the outputs, a shift >= 0 and
    operands of up to 2^32 inside int64."""
    return ScaledMultiplier.from_real(min(r, 2.0**30))


def term_multiplier(stage: str, r: float, bound: int) -> ScaledMultiplier:
    """Multiplier of one term of a rescale-add, on operands of magnitude at
    most ``bound``.  The sum saturates, not the term, so ``r`` is not capped:
    its negative shift folds into a left shift of the int64 product, and a
    multiplier for which that product can pass 2^61 (room for a second term
    and a zero point) is rejected, naming the stage."""
    m = ScaledMultiplier.from_real(r)
    if m.shift < 0 and (bound * m.mantissa) << -m.shift >= 1 << 61:
        raise ValueError(f"stage {stage!r}: multiplier {r:.3g} on operands up to {bound} overflows int64")
    return m


def _shift_round_exact(p: int, shift: int) -> int:
    if shift <= 0:
        return p << (-shift)
    q, r = divmod(abs(p), 1 << shift)
    if 2 * r >= (1 << shift):
        q += 1
    return q if p >= 0 else -q


_I64 = np.iinfo(np.int64)


class Rescale:
    """One requantization stage: ``clamp(round(x * mantissa * 2^-shift) + zp, lo, hi)``.

    The six constants are int64 arrays that broadcast against the operand,
    so one class serves a scalar stage, one multiplier per row of a
    ``(rows,)`` vector, a ``(k, rows)`` stack of lanes and per-term
    multipliers on :func:`rescale_add`'s term axis.  They are normalized
    once, here: a shift <= 0 becomes a left shift folded into the mantissa
    (exact for a :func:`term_multiplier`), and a shift >= 63 rounds the row
    to 0 (every operand times its mantissa stays below 2^62).  Mantissas
    are non-negative, except a :class:`MultiplierCombo`'s, which only
    :func:`combine_round`'s caller reads.  The default bounds are int64's
    own, for a term whose sum saturates only as a whole.

    Exactly four functions apply a stage: :func:`requantize_scaled`,
    :func:`rescale_add`, :func:`combine_round` and :func:`divide_round`.
    """

    def __init__(self, mantissas, shifts, zero_point=0, lo=_I64.min, hi=_I64.max):
        shifts = np.asarray(shifts, dtype=np.int64)
        live = shifts < 63
        self.mant = np.where(live, np.asarray(mantissas, dtype=np.int64) << np.maximum(-shifts, 0), 0)
        self.shift = np.where(live, np.maximum(shifts, 0), 0)
        self.half = np.where(self.shift > 0, np.int64(1) << np.maximum(self.shift - 1, 0), 0)
        self.zp, self.lo, self.hi = (np.asarray(v, dtype=np.int64) for v in (zero_point, lo, hi))

    @classmethod
    def of(cls, multipliers, zero_point=0, lo=_I64.min, hi=_I64.max) -> "Rescale":
        """From a :class:`ScaledMultiplier` or an array-like of them in the rows' shape."""
        ms = np.asarray(multipliers, dtype=object)
        mantissas = np.array([m.mantissa for m in ms.flat], dtype=np.int64).reshape(ms.shape)
        shifts = np.array([m.shift for m in ms.flat], dtype=np.int64).reshape(ms.shape)
        return cls(mantissas, shifts, zero_point, lo, hi)


def requantize_scaled(acc, s: Rescale) -> np.ndarray:
    """Rescale one operand onto the stage's grid: ``clamp(round(acc * m) +
    zp)``, with integer multiply and arithmetic shifts only.  A float
    ``acc`` is noted, then rejected by the shift.

    The int64 product is rounded, offset and clamped in place, so the
    call allocates it and its sign only.  The half and the shift have the
    mantissa's shape, so they never broadcast it to a larger one; a zero
    point with more axes (the attention's per-key offsets on the pre-tanh
    sum) yields one new array, which is clamped in place."""
    floatguard.note(acc)
    t = np.asarray(acc * s.mant)  # a 0-d product is a scalar, which has no place to round in
    sign = np.sign(t)
    np.abs(t, out=t)
    t += s.half
    t >>= s.shift
    t *= sign
    t = np.add(t, s.zp, out=t if s.zp.ndim <= t.ndim else None)
    np.maximum(t, s.lo, out=t)
    return np.minimum(t, s.hi, out=t)


def requantize_exact(acc: int, m: ScaledMultiplier, out_zero_point: int, out_bitwidth: int) -> int:
    """Arbitrary-precision reference for :func:`requantize_scaled` (same rounding rule)."""
    v = _shift_round_exact(int(acc) * m.mantissa, m.shift) + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


def rescale_add(terms, s: Rescale) -> np.ndarray:
    """Sum of two independently rounded rescaled terms, then saturate.

    ``terms`` stacks the two operands on its second-to-last axis (shape
    ``(..., 2, rows)``), against per-term multipliers of the same layout;
    each term is rounded on its own before the integer addition (the
    rescale-then-add convention used for gate sums, residuals and context
    injection), and the stage's zero point and bounds apply to the sum.
    """
    floatguard.note(terms)
    # the terms are rounded in place, signed by the operands (a term's
    # mantissa is never negative), and their sum is clamped in place; the
    # sum is a new array, as adding one term into the other's view of the
    # same array makes numpy check the overlap, which is slower
    t = np.abs(terms) * s.mant
    t += s.half
    t >>= s.shift
    t *= np.sign(terms)
    total = t[..., 0, :] + t[..., 1, :]
    total += s.zp
    np.maximum(total, s.lo, out=total)
    return np.minimum(total, s.hi, out=total)


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


def combine_round(raw, s: Rescale) -> np.ndarray:
    """Single-rounded linear combination: ``clamp(round(raw * 2^-shift) + zp)``.

    ``raw`` is the sum of the terms already multiplied by the stage's
    per-term mantissas (a :class:`MultiplierCombo`'s, normalized, on the
    last axis of ``s.mant``), so only the stage's one shift rounds it.
    """
    floatguard.note(raw)
    return np.minimum(np.maximum(np.sign(raw) * ((np.abs(raw) + s.half) >> s.shift) + s.zp, s.lo), s.hi)


def combine_round_exact(diffs, combo: MultiplierCombo, out_zero_point: int, out_bitwidth: int) -> int:
    raw = sum(int(d) * m for d, m in zip(diffs, combo.mantissas))
    v = _shift_round_exact(raw, combo.shift) + out_zero_point
    return max(0, min(v, (1 << out_bitwidth) - 1))


def divide_round(num, den, s: Rescale) -> np.ndarray:
    """``clamp(round(num * m / den) + zp)`` on a :func:`saturating_multiplier`'s
    stage; ``|num| < 2^31`` and ``den`` positive, both int64 (per row).

    With ``p = num * mantissa`` and ``D = den << shift``, ``round(p / D)``
    is ``(|p| + D // 2) // D`` (ties away from zero), exact in int64 while
    ``D < 2^63`` as ``|p| < 2^62``.  A ``D`` past that is more than
    ``2|p|``, so the quotient rounds to 0; ``D`` saturates at int64's
    maximum there, which yields that 0.
    """
    floatguard.note(num, den)
    p = num * s.mant
    d = np.where(den > _I64.max >> s.shift, _I64.max, den << s.shift)
    v = np.sign(p) * ((np.abs(p) + (d >> 1)) // d)
    return np.minimum(np.maximum(v + s.zp, s.lo), s.hi)


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


_PAIR_BLOCK = 8192  # pairs per stage call: a block's int64 temporaries stay in cache


def tabulate(stage) -> np.ndarray:
    """A stage over every pair of 8-bit storage values: ``stage(a, b)`` with
    ``a`` and ``b`` the pairs' first and second values, ``(n,)`` vectors
    that the stage's ``(k, 1)`` constants broadcast against, so one table
    holds ``k`` instances.  Returns the ``(k, ..., 2^16)`` results, the pair
    ``(a, b)``'s at ``(a << 8) + b``.  The pairs go through in blocks: on
    all 2^16 at once, the int64 temporaries leave the cache and a table
    takes about twice as long."""
    g = np.arange(_PAIR_BLOCK, dtype=np.int64)
    a, b = g >> 8, g & 255
    blocks = [stage(a + (i >> 8), b) for i in range(0, 1 << 16, _PAIR_BLOCK)]
    return np.concatenate(blocks, axis=-1)


def narrowest(table: np.ndarray) -> np.ndarray:
    """``table`` as the narrowest of int16, int32 and int64 that holds its values."""
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= table.min() and table.max() <= info.max:
            return table.astype(dtype)
    return table


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer ``a @ b`` with 32-bit accumulation (contracted dim <= MAX_REDUCE_DIM).

    ``a`` and ``b`` are 1-D or 2-D, or ``b`` is a 3-D ``(k, n, p)`` stack
    and ``a`` a ``(k, n)`` one: the lane-batched vector-matrix product
    ``out[l] = a[l] @ b[l]``, shape ``(k, p)`` (``kj,kji->ki``).  The
    activations come first, so ``a``'s last axis is always the contracted
    one.

    numpy's int32 ``@`` has no BLAS path; ``np.einsum``'s integer loops are
    faster and take strided operands such as ``w.T`` as they are.
    ``optimize=True`` would route the 2-D product through a slower path.
    """
    floatguard.note(a, b)
    if b.ndim == 3:
        subscripts = "kj,kji->ki"
    else:
        sa, sb = "ij"[2 - a.ndim :], "jk"[: b.ndim]
        subscripts = f"{sa},{sb}->{sa[:-1]}{sb[1:]}"
    return np.einsum(subscripts, a.astype(np.int32, copy=False), b.astype(np.int32, copy=False))
