"""Quantization-aware piecewise-linear approximation of scalar nonlinearities.

A table is built once for a frozen pair of input/output quantization
parameters.  Knots are constrained to the quantized input grid, so a table
with all grid points as knots reproduces the full look-up table exactly.
Knot selection greedily merges the pair of adjacent pieces whose slopes
differ least, which concentrates the surviving knots where the function
curves most.  A min-heap of adjacent slope differences drives the merges, so
reducing N candidate knots costs O(N log N); among equal differences the
knot of lowest index goes first.

The integer PWL form (knots, fixed-point slopes and intercepts, override
points) is what a model stores and what the exact oracle evaluates; the real
form (knot values, slopes, intercepts) exists only on tables built here.  At
build or load time every table also expands the integer form into its output
at each point of the input grid, ``grid_out`` (256 entries for an 8-bit
input, 65,536 for a 16-bit one).  The integer engine (``runtime.engine``)
evaluates an activation as one gather from a grid that it takes from each
table: ``grid_out``, or for ``runtime.exact_activations`` :func:`build_lut`
on the table's grids, which runs the true nonlinearity instead.
"""
from __future__ import annotations

import heapq
import math
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
    """The logistic function without overflow: ``exp`` only ever of ``-|x|``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


#: scalar nonlinearities known to the converter and the CLI
ACTIVATIONS = {
    "tanh": np.tanh,
    "sigmoid": sigmoid,
    "exp": np.exp,
    "identity": lambda x: np.asarray(x, dtype=np.float64),
}

#: default candidate knots on a 16-bit input grid: the fewest of 512-4,096 whose median
#: max LSB error on calibrated tables (scripts/candidate_sweep.py) was no worse than 4,096's
CANDIDATES_16BIT = 1 << 9

# fraction bits carried by the per-piece intercept constants
_FRAC_BITS = {8: 23, 16: 15}


def _grid_dtype(out_qp: QuantParams):
    """Signed storage one size wider than the outputs, so that subtracting
    the output zero point from a table entry cannot wrap."""
    return np.int16 if out_qp.bitwidth == 8 else np.int32


def build_lut(f, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """Full table: LUT[q] = quantize(f(dequantize(q))) over the whole input grid."""
    qs = np.arange(in_qp.qmax + 1, dtype=np.int64)
    return np.asarray(quantize(f(dequantize(qs, in_qp)), out_qp), dtype=np.int64)


def _select_indices(knots: np.ndarray, intercepts: np.ndarray, n_pieces: int) -> np.ndarray:
    """Indices of surviving knots after greedy adjacent-slope merging.

    Each round drops the interior knot whose two adjacent chord slopes differ
    least (lowest index on ties) and recomputes only the merged chord.  The
    candidates sit in a min-heap keyed on ``(|right - left slope|, index)``
    over a doubly linked list of live knots; an entry is stale once its knot
    is dropped or its key recomputed, and is skipped when popped.  This is
    O(N log N) and picks the same knots as recomputing every slope from the
    surviving knots each round.
    """
    if n_pieces < 1:
        raise ValueError("n_pieces must be at least 1")
    knots = np.asarray(knots, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    if knots.ndim != 1 or knots.shape != intercepts.shape:
        raise ValueError("knots and intercepts must be 1-D and equally long")
    if len(knots) < n_pieces + 1:
        raise ValueError("need at least n_pieces + 1 knots")
    if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(intercepts))):
        raise ValueError("knot values must be finite")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    with np.errstate(over="ignore"):
        slopes = np.diff(intercepts) / np.diff(knots)
    if not np.all(np.isfinite(slopes)):
        raise ValueError("knot slopes must be finite")

    n = len(knots)
    k, b = knots.tolist(), intercepts.tolist()
    slope = slopes.tolist()  # slope[i]: chord from live knot i to the next live knot
    prev, nxt = list(range(-1, n - 1)), list(range(1, n + 1))
    # key[i]: |right - left| chord slope at interior knot i, as each merge recomputes it
    key = [0.0] + [abs(r - l) for l, r in zip(slope, slope[1:])]
    heap = [(key[i], i) for i in range(1, n - 1)]
    heapq.heapify(heap)
    live = [True] * n
    for _ in range(n - 1 - n_pieces):
        while True:
            d, i = heapq.heappop(heap)
            if live[i] and d == key[i]:
                break
        live[i] = False
        p, q = prev[i], nxt[i]
        nxt[p], prev[q] = q, p
        slope[p] = s = (b[q] - b[p]) / (k[q] - k[p])
        if not math.isfinite(s):
            raise ValueError("knot slopes must be finite")
        if p > 0:
            key[p] = abs(s - slope[prev[p]])
            heapq.heappush(heap, (key[p], p))
        if q < n - 1:
            key[q] = abs(slope[q] - s)
            heapq.heappush(heap, (key[q], q))
    return np.flatnonzero(live)


def select_knots(knots, intercepts, n_pieces: int):
    """Reduce a knot set to ``n_pieces + 1`` knots; returns (knots, slopes, intercepts).

    Greedy merging: each round drops the interior knot whose adjacent chord
    slopes differ least, the lowest-index knot among equal differences.  A
    heap of those differences makes this O(N log N) in the N input knots.
    Knot values and their initial slopes must be finite (``ValueError``).
    """
    knots = np.asarray(knots, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    idx = _select_indices(knots, intercepts, n_pieces)
    k = knots[idx]
    b = intercepts[idx]
    return k, np.diff(b) / np.diff(k), b


@dataclass
class PwlTable:
    """Piecewise-linear table over a quantized input grid.

    ``knots_q`` holds the N+1 knots on the input grid.  The integer form
    carries one fixed-point slope multiplier and one precomputed intercept
    constant per piece, aligned so each evaluation performs a single
    rounding; ``grid_out`` is that evaluation over the whole input grid.
    The real form (``knots_r``, the real knots; ``intercepts``, the exact
    function values there; ``slopes``, the N chord slopes) is set by
    :func:`build_pwl` and is ``None`` on a table read back by
    ``serialize.load``, which stores the integer form only.
    """

    knots_q: np.ndarray
    in_qp: QuantParams
    out_qp: QuantParams
    fn_name: str
    # real form
    knots_r: np.ndarray | None = field(default=None, repr=False)
    slopes: np.ndarray | None = field(default=None, repr=False)
    intercepts: np.ndarray | None = field(default=None, repr=False)
    # integer form
    slope_mants: np.ndarray = field(default=None, repr=False)
    slope_shifts: np.ndarray = field(default=None, repr=False)
    intercept_fx: np.ndarray = field(default=None, repr=False)
    # grid points where the fixed-point form misses the real path's quantized
    # value (a rounding across a half-step boundary, or a last knot that the
    # last piece misses); pinned at build time
    override_q: np.ndarray = field(default=None, repr=False)
    override_val: np.ndarray = field(default=None, repr=False)
    # integer output at every input grid point, overrides applied; derived
    # from the integer form above and never serialized
    grid_out: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = np.asarray(self.knots_q)
        if knots.size < 2 or np.any(np.diff(knots) <= 0) or knots[0] < 0 or knots[-1] > self.in_qp.qmax:
            raise ValueError("PWL knots must be strictly increasing points of the input grid")
        if self.slope_mants is not None:
            pins = np.asarray(self.override_q)
            if pins.shape != np.shape(self.override_val) or np.any((pins < 0) | (pins > self.in_qp.qmax)):
                raise ValueError("PWL override points must lie on the input grid, one value each")
            out = _fixed_point_grid(self)
            out[pins] = self.override_val
            self.grid_out = out.astype(_grid_dtype(self.out_qp))

    @property
    def n_pieces(self) -> int:
        return len(self.knots_q) - 1

    @property
    def frac_bits(self) -> int:
        """Fraction bits of the intercept constants, fixed by the output width."""
        return _FRAC_BITS[self.out_qp.bitwidth]


def _build_integer_form(t: PwlTable) -> None:
    e = t.frac_bits
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
            scaled = abs(a) * 2.0**shift
            # checked before the int cast: the mantissa must round to below 2^33
            if not scaled < 2.0**33 - 0.5:
                raise ValueError(f"slope of {a:.3g} output steps per input step too steep for the fixed-point encoding")
            mant = int(iround(scaled))
            mants[i] = mant if a > 0 else -mant
            shifts[i] = shift
        c_real = (t.intercepts[i] / t.out_qp.scale + zp) * 2.0**e
        if not abs(c_real) < 2.0**62:
            v, lo, hi = t.intercepts[i], t.out_qp.min, t.out_qp.max
            raise ValueError(f"knot value {v:.3g} lies too far outside the output range [{lo:.3g}, {hi:.3g}]")
        c = int(iround(c_real))
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
    # exhaustive agreement check: pin any grid point where the fixed-point
    # rounding lands on the other side of a half-step boundary
    grid = np.arange(t.in_qp.qmax + 1, dtype=np.int64)
    want = np.asarray(quantize(eval_pwl_real(dequantize(grid, t.in_qp), t), t.out_qp), dtype=np.int64)
    got = _fixed_point_grid(t)
    bad = np.nonzero(got != want)[0]
    t.override_q = grid[bad]
    t.override_val = want[bad]
    got[bad] = want[bad]
    t.grid_out = got.astype(_grid_dtype(t.out_qp))


def _candidate_grid(in_qp: QuantParams, candidates: int | None) -> np.ndarray:
    if candidates is None:
        candidates = in_qp.qmax + 1 if in_qp.bitwidth == 8 else CANDIDATES_16BIT
    return np.unique(iround(np.linspace(0, in_qp.qmax, min(candidates, in_qp.qmax + 1))))


def build_pwl(
    fn_name: str,
    in_qp: QuantParams,
    out_qp: QuantParams,
    n_pieces: int,
    candidates: int | None = None,
) -> PwlTable:
    """Build a PWL table for the activation ``ACTIVATIONS[fn_name]`` under
    frozen quantization parameters.

    The knot search starts from every point of an 8-bit input grid, or from
    ``candidates`` evenly spaced points of it (``CANDIDATES_16BIT`` on a
    16-bit grid by default), and greedily drops knots down to ``n_pieces``.
    """
    if not (1 <= n_pieces <= in_qp.qmax):
        raise ValueError(f"n_pieces must be in [1, {in_qp.qmax}]")
    f = ACTIVATIONS[fn_name]
    qs = _candidate_grid(in_qp, candidates)
    if n_pieces > len(qs) - 1:
        raise ValueError("n_pieces exceeds candidate knot count")
    rs = dequantize(qs, in_qp)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected below
        bs = np.asarray(f(rs), dtype=np.float64)
    idx = _select_indices(rs, bs, n_pieces)
    knots_q = qs[idx]
    knots_r = rs[idx]
    intercepts = bs[idx]
    slopes = np.diff(intercepts) / np.diff(knots_r)
    t = PwlTable(knots_q, in_qp, out_qp, fn_name, knots_r, slopes, intercepts)
    _build_integer_form(t)
    return t


def eval_pwl_real(x, t: PwlTable):
    """Real-arithmetic PWL evaluation; boundary pieces extend linearly.

    Needs the table's real form, which only :func:`build_pwl` sets.
    """
    if t.knots_r is None:
        raise ValueError("PWL table has no real form: a loaded table keeps only the integer form; use build_pwl")
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(t.knots_r, x, side="right") - 1, 0, t.n_pieces - 1)
    g = t.slopes[idx] * (x - t.knots_r[idx]) + t.intercepts[idx]
    g = np.where(x == t.knots_r[-1], t.intercepts[-1], g)
    return float(g) if np.ndim(x) == 0 else g


def _fixed_point_grid(t: PwlTable) -> np.ndarray:
    """The integer form at every input grid point, overrides not applied.

    Each piece covers a run of consecutive grid points (the first piece also
    those below its left knot, the last piece all from its left knot on);
    there the value is one multiply plus one rounding shift per point.
    """
    n, top = t.n_pieces, t.in_qp.qmax
    edges = np.minimum(np.maximum(t.knots_q, 0), top + 1)
    out = np.empty(top + 1, dtype=np.int64)
    for i in range(n):
        lo = 0 if i == 0 else int(edges[i])
        hi = top + 1 if i == n - 1 else int(edges[i + 1])
        shift, knot = int(t.slope_shifts[i]), int(t.knots_q[i])
        raw = np.arange(lo - knot, hi - knot, dtype=np.int64) * t.slope_mants[i]
        raw += int(t.intercept_fx[i]) << (shift - t.frac_bits)
        out[lo:hi] = np.sign(raw) * ((np.abs(raw) + (1 << (shift - 1))) >> shift)
    return np.minimum(np.maximum(out, 0), t.out_qp.qmax)


def eval_pwl_int(q_x, t: PwlTable):
    """Integer-only PWL evaluation, bit-exact with quantize(eval_pwl_real(...)).

    One gather from the table's grid outputs; inputs outside the input grid
    raise ``ValueError``.
    """
    q = np.asarray(q_x)
    floatguard.note(q)
    if q.size and (q.min() < 0 or q.max() > t.in_qp.qmax):
        raise ValueError(f"PWL input outside the quantized grid [0, {t.in_qp.qmax}]")
    out = t.grid_out[q]
    floatguard.note(out)
    return int(out) if np.ndim(q_x) == 0 else out


def eval_pwl_int_exact(q: int, t: PwlTable) -> int:
    """Arbitrary-precision reference for :func:`eval_pwl_int`."""
    q = int(q)
    if t.override_q is not None and len(t.override_q):
        i = int(np.searchsorted(t.override_q, q))
        if i < len(t.override_q) and int(t.override_q[i]) == q:
            return int(t.override_val[i])
    i = min(max(int(np.searchsorted(t.knots_q, q, side="right")) - 1, 0), t.n_pieces - 1)
    shift = int(t.slope_shifts[i])
    raw = (q - int(t.knots_q[i])) * int(t.slope_mants[i])
    raw += int(t.intercept_fx[i]) << (shift - t.frac_bits)
    return max(0, min(_shift_round_exact(raw, shift), t.out_qp.qmax))


def dump_pwl_csv(t: PwlTable, fh) -> None:
    """Write (q_x, real_in, real_out, int_out, piece_index) rows for the full
    grid; ``ValueError`` on a table without its real form."""
    qs = np.arange(t.in_qp.qmax + 1, dtype=np.int64)
    rs = dequantize(qs, t.in_qp)
    real_out = eval_pwl_real(rs, t)
    int_out = eval_pwl_int(qs, t)
    pieces = np.clip(np.searchsorted(t.knots_q, qs, side="right") - 1, 0, t.n_pieces - 1)
    fh.write("q_x,real_in,real_out,int_out,piece_index\n")
    for q, r, g, o, p in zip(qs, rs, real_out, int_out, pieces):
        fh.write(f"{q},{float(r)!r},{float(g)!r},{o},{p}\n")
