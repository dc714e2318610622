"""Quantization-aware piecewise-linear approximation of scalar nonlinearities.

A table is built once for a frozen pair of input/output quantization
parameters.  Knots are constrained to the quantized input grid, so a table
with all grid points as knots reproduces the full look-up table exactly.
Knot selection greedily merges the pair of adjacent pieces whose slopes
differ least, which concentrates the surviving knots where the function
curves most.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import floatguard
from .quant import (
    QuantParams,
    ScaledMultiplier,
    _shift_round_exact,
    dequantize,
    iround,
    quantize,
)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


#: scalar nonlinearities known to the converter and the CLI
ACTIVATIONS = {
    "tanh": np.tanh,
    "sigmoid": sigmoid,
    "exp": np.exp,
    "identity": lambda x: np.asarray(x, dtype=np.float64),
}

#: default number of candidate knots when the input grid is 16-bit
CANDIDATES_16BIT = 1 << 12

# fraction bits carried by the per-piece intercept constants
_FRAC_BITS = {8: 23, 16: 15}


def build_lut(f, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """Full table: LUT[q] = quantize(f(dequantize(q))) over the whole input grid."""
    qs = np.arange(in_qp.qmax + 1, dtype=np.int64)
    return np.asarray(quantize(f(dequantize(qs, in_qp)), out_qp), dtype=np.int64)


def _select_indices(knots: np.ndarray, intercepts: np.ndarray, n_pieces: int) -> np.ndarray:
    """Indices of surviving knots after greedy adjacent-slope merging.

    Only the merged slope is recomputed per round; the result is identical to
    recomputing every slope from the surviving knots each round.  Ties in the
    slope-difference argmin keep the lowest index.
    """
    if n_pieces < 1:
        raise ValueError("n_pieces must be at least 1")
    knots = np.asarray(knots, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    if knots.ndim != 1 or knots.shape != intercepts.shape:
        raise ValueError("knots and intercepts must be 1-D and equally long")
    if len(knots) < n_pieces + 1:
        raise ValueError("need at least n_pieces + 1 knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")

    idx = np.arange(len(knots))
    k = knots.copy()
    b = intercepts.copy()
    slopes = np.diff(b) / np.diff(k)
    n = len(slopes)  # live piece count; arrays are compacted in place
    while n > n_pieces:
        j = int(np.argmin(np.abs(slopes[1:n] - slopes[: n - 1])))
        merged = (b[j + 2] - b[j]) / (k[j + 2] - k[j])
        tail = slice(j + 2, n + 1)
        k[j + 1 : n] = k[tail].copy()
        b[j + 1 : n] = b[tail].copy()
        idx[j + 1 : n] = idx[tail].copy()
        slopes[j] = merged
        slopes[j + 1 : n - 1] = slopes[j + 2 : n].copy()
        n -= 1
    return idx[: n + 1]


def select_knots(knots, intercepts, n_pieces: int):
    """Reduce a knot set to ``n_pieces + 1`` knots; returns (knots, slopes, intercepts)."""
    knots = np.asarray(knots, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    idx = _select_indices(knots, intercepts, n_pieces)
    k = knots[idx]
    b = intercepts[idx]
    return k, np.diff(b) / np.diff(k), b


@dataclass
class PwlTable:
    """Piecewise-linear table over a quantized input grid.

    ``knots_q``/``knots_r`` hold the N+1 knots (quantized and real form),
    ``intercepts`` the exact function values at every knot, ``slopes`` the N
    chord slopes.  The integer form carries one fixed-point slope multiplier
    and one precomputed intercept constant per piece, aligned so each
    evaluation performs a single rounding.
    """

    knots_q: np.ndarray
    knots_r: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    in_qp: QuantParams
    out_qp: QuantParams
    fn_name: str | None = None
    # integer form
    slope_mants: np.ndarray = field(default=None, repr=False)
    slope_shifts: np.ndarray = field(default=None, repr=False)
    intercept_fx: np.ndarray = field(default=None, repr=False)
    frac_bits: int = 0
    knot_targets: np.ndarray = field(default=None, repr=False)
    # grid points whose fixed-point evaluation would round across a half-step
    # boundary differently from the real path; pinned at build time
    override_q: np.ndarray = field(default=None, repr=False)
    override_val: np.ndarray = field(default=None, repr=False)

    @property
    def n_pieces(self) -> int:
        return len(self.slopes)

    def slope_multipliers(self):
        """Per-piece fixed-point slope encoding as (mantissa, shift) pairs."""
        return [ScaledMultiplier(int(abs(m)), int(s)) for m, s in zip(self.slope_mants, self.slope_shifts)]


def _build_integer_form(t: PwlTable) -> None:
    e = _FRAC_BITS[t.out_qp.bitwidth]
    ratio = t.in_qp.scale / t.out_qp.scale
    zp = t.out_qp.zero_point
    qmax = t.out_qp.qmax

    targets = np.asarray(quantize(t.intercepts, t.out_qp), dtype=np.int64)
    n = t.n_pieces
    mants = np.zeros(n, dtype=np.int64)
    shifts = np.full(n, e, dtype=np.int64)
    consts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        a = float(t.slopes[i]) * ratio
        if a != 0.0:
            sm = ScaledMultiplier.from_real(abs(a))
            shift = min(max(sm.shift, e), e + 28)
            mant = int(iround(abs(a) * 2.0**shift))
            if mant.bit_length() > 33:
                raise ValueError("slope too steep for the fixed-point encoding")
            mants[i] = mant if a > 0 else -mant
            shifts[i] = shift
        c = int(iround((t.intercepts[i] / t.out_qp.scale + zp) * 2.0**e))
        # nudge so the integer evaluation reproduces the quantized knot value exactly
        want = int(targets[i])
        for _ in range(8):
            have = max(0, min(_shift_round_exact(c, e), qmax))
            if have == want:
                break
            c += 1 if have < want else -1
        else:
            raise AssertionError("intercept nudge did not converge")
        consts[i] = c
    t.slope_mants = mants
    t.slope_shifts = shifts
    t.intercept_fx = consts
    t.frac_bits = e
    t.knot_targets = targets
    t.override_q = np.empty(0, dtype=np.int64)
    t.override_val = np.empty(0, dtype=np.int64)
    # exhaustive agreement check: pin any grid point where the fixed-point
    # rounding lands on the other side of a half-step boundary
    grid = np.arange(t.in_qp.qmax + 1, dtype=np.int64)
    want = np.asarray(quantize(eval_pwl_real(dequantize(grid, t.in_qp), t), t.out_qp), dtype=np.int64)
    got = np.asarray(eval_pwl_int(grid, t), dtype=np.int64)
    bad = np.nonzero(got != want)[0]
    if len(bad):
        t.override_q = grid[bad]
        t.override_val = want[bad]


def _candidate_grid(in_qp: QuantParams, candidates: int | None) -> np.ndarray:
    if in_qp.bitwidth == 8 and candidates is None:
        return np.arange(in_qp.qmax + 1, dtype=np.int64)
    n = candidates if candidates is not None else CANDIDATES_16BIT
    n = min(n, in_qp.qmax + 1)
    qs = np.unique(iround(np.linspace(0, in_qp.qmax, n)))
    return qs


def build_pwl(
    f,
    in_qp: QuantParams,
    out_qp: QuantParams,
    n_pieces: int,
    candidates: int | None = None,
    fn_name: str | None = None,
) -> PwlTable:
    """Build a PWL table for ``f`` under frozen quantization parameters.

    The knot search starts from every point of the quantized input grid
    (16-bit grids are subsampled to ``CANDIDATES_16BIT`` candidates first)
    and greedily drops knots down to ``n_pieces`` pieces.
    """
    if not (1 <= n_pieces <= in_qp.qmax):
        raise ValueError(f"n_pieces must be in [1, {in_qp.qmax}]")
    if isinstance(f, str):
        fn_name, f = f, ACTIVATIONS[f]
    qs = _candidate_grid(in_qp, candidates)
    if n_pieces > len(qs) - 1:
        raise ValueError("n_pieces exceeds candidate knot count")
    rs = dequantize(qs, in_qp)
    bs = np.asarray(f(rs), dtype=np.float64)
    idx = _select_indices(rs, bs, n_pieces)
    knots_q = qs[idx]
    knots_r = rs[idx]
    intercepts = bs[idx]
    slopes = np.diff(intercepts) / np.diff(knots_r)
    t = PwlTable(knots_q, knots_r, slopes, intercepts, in_qp, out_qp, fn_name=fn_name)
    _build_integer_form(t)
    return t


def eval_pwl_real(x, t: PwlTable):
    """Real-arithmetic PWL evaluation; boundary pieces extend linearly."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(t.knots_r, x, side="right") - 1, 0, t.n_pieces - 1)
    g = t.slopes[idx] * (x - t.knots_r[idx]) + t.intercepts[idx]
    g = np.where(x == t.knots_r[-1], t.intercepts[-1], g)
    return float(g) if np.ndim(x) == 0 else g


def eval_pwl_int(q_x, t: PwlTable):
    """Integer-only PWL evaluation, bit-exact with quantize(eval_pwl_real(...)).

    The piece is located by binary search over the quantized knots; the
    value is one multiply plus one rounding shift per element.
    """
    q = np.asarray(q_x, dtype=np.int64)
    floatguard.note(q)
    idx = np.minimum(np.maximum(np.searchsorted(t.knots_q, q, side="right") - 1, 0), t.n_pieces - 1)
    d = q - t.knots_q[idx]
    shift = t.slope_shifts[idx]
    raw = d * t.slope_mants[idx] + (t.intercept_fx[idx] << (shift - t.frac_bits))
    half = np.int64(1) << (shift - 1)
    val = np.sign(raw) * ((np.abs(raw) + half) >> shift)
    out = np.minimum(np.maximum(val, 0), t.out_qp.qmax)
    out = np.where(q == t.knots_q[-1], min(max(int(t.knot_targets[-1]), 0), t.out_qp.qmax), out)
    if t.override_q is not None and len(t.override_q):
        pos = np.searchsorted(t.override_q, q)
        pos = np.minimum(pos, len(t.override_q) - 1)
        hit = t.override_q[pos] == q
        out = np.where(hit, t.override_val[pos], out)
    floatguard.note(out)
    return int(out) if np.ndim(q_x) == 0 else out


def eval_pwl_int_exact(q: int, t: PwlTable) -> int:
    """Arbitrary-precision reference for :func:`eval_pwl_int`."""
    q = int(q)
    if t.override_q is not None and len(t.override_q):
        i = int(np.searchsorted(t.override_q, q))
        if i < len(t.override_q) and int(t.override_q[i]) == q:
            return int(t.override_val[i])
    if q == int(t.knots_q[-1]):
        return max(0, min(int(t.knot_targets[-1]), t.out_qp.qmax))
    i = min(max(int(np.searchsorted(t.knots_q, q, side="right")) - 1, 0), t.n_pieces - 1)
    shift = int(t.slope_shifts[i])
    raw = (q - int(t.knots_q[i])) * int(t.slope_mants[i])
    raw += int(t.intercept_fx[i]) << (shift - t.frac_bits)
    return max(0, min(_shift_round_exact(raw, shift), t.out_qp.qmax))


def eval_pwl_float_act(q_x, t: PwlTable):
    """Quantized-in/quantized-out evaluation of the true nonlinearity.

    Used by the "without quantized activations" engine configuration: the
    input is dequantized, the exact function applied in floating point, and
    the result requantized.
    """
    if t.fn_name is None:
        raise ValueError("table carries no function name")
    f = ACTIVATIONS[t.fn_name]
    real = f(dequantize(np.asarray(q_x), t.in_qp))
    floatguard.note(np.asarray(real))
    return quantize(real, t.out_qp)


def dump_pwl_csv(t: PwlTable, fh) -> None:
    """Write (q_x, real_in, real_out, int_out, piece_index) rows for the full grid."""
    qs = np.arange(t.in_qp.qmax + 1, dtype=np.int64)
    rs = dequantize(qs, t.in_qp)
    real_out = eval_pwl_real(rs, t)
    int_out = eval_pwl_int(qs, t)
    pieces = np.clip(np.searchsorted(t.knots_q, qs, side="right") - 1, 0, t.n_pieces - 1)
    fh.write("q_x,real_in,real_out,int_out,piece_index\n")
    for q, r, g, o, p in zip(qs, rs, real_out, int_out, pieces):
        fh.write(f"{q},{float(r)!r},{float(g)!r},{o},{p}\n")
