"""Quantization-aware piecewise-linear approximation of scalar nonlinearities.

A table is built once for a frozen pair of input/output quantization
parameters.  Knots are constrained to the quantized input grid, so a table
with all grid points as knots reproduces the full look-up table exactly.
Knot selection greedily merges the pair of adjacent pieces whose slopes
differ least, which concentrates the surviving knots where the function
curves most.  A min-heap of adjacent slope differences drives the merges, so
reducing N candidate knots costs O(N log N); among equal differences the
knot of lowest index goes first.

A table holds the integer PWL form (knots, fixed-point slopes and
intercepts, override points) that a model stores and the exact oracle
evaluates, and derives the rest, so built and loaded tables are alike: the
real form from its knots and function, and from the integer form its output
at each input grid point, ``grid_out`` (256 entries for an 8-bit input,
65,536 for a 16-bit one).

The integer engine (``runtime.engine``) evaluates an activation as one
gather from a grid that it takes from each table: ``grid_out``, or for
``runtime.exact_activations`` :func:`build_lut` on the table's grids, which
runs the true nonlinearity instead.
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
    quantize_in_place,
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


def _increasing_on_grid(points: np.ndarray, top: int) -> bool:
    """Whether ``points`` is 1-D and strictly increasing within ``[0, top]``."""
    return points.ndim == 1 and (np.diff(points) > 0).all() and (not points.size or 0 <= points[0] <= points[-1] <= top)


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
    """Piecewise-linear table over a quantized input grid, as a model stores it.

    ``knots_q`` holds the N+1 knots on the input grid.  The integer form
    carries one fixed-point slope multiplier and one precomputed intercept
    constant per piece, aligned so each evaluation performs a single
    rounding.  Derived on construction: the real form (``knots_r``, the
    dequantized knots; ``intercepts``, ``ACTIVATIONS[fn_name]`` there;
    ``slopes``, the N chord slopes) and ``grid_out``.  An integer form that
    :func:`build_pwl` never makes raises ``ValueError``.
    """

    knots_q: np.ndarray
    in_qp: QuantParams
    out_qp: QuantParams
    fn_name: str
    # integer form
    slope_mants: np.ndarray = field(repr=False)
    slope_shifts: np.ndarray = field(repr=False)
    intercept_fx: np.ndarray = field(repr=False)
    # grid points where the fixed-point form misses the real path's quantized
    # value (a rounding across a half-step boundary, or a last knot that the
    # last piece misses); pinned at build time
    override_q: np.ndarray = field(repr=False)
    override_val: np.ndarray = field(repr=False)
    # real form, derived from the knots
    knots_r: np.ndarray = field(init=False, repr=False, compare=False)
    slopes: np.ndarray = field(init=False, repr=False, compare=False)
    intercepts: np.ndarray = field(init=False, repr=False, compare=False)
    # the integer form's output at every input grid point, overrides applied
    grid_out: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.fn_name not in ACTIVATIONS:
            raise ValueError(f"PWL table of unknown function {self.fn_name!r}")
        knots, top = np.asarray(self.knots_q), self.in_qp.qmax
        if knots.size < 2 or not _increasing_on_grid(knots, top):
            raise ValueError("PWL knots must be strictly increasing points of the input grid")
        n, e = self.n_pieces, self.frac_bits
        mants, shifts = np.asarray(self.slope_mants), np.asarray(self.slope_shifts)
        if any(np.shape(a) != (n,) for a in (mants, shifts, self.intercept_fx)):
            raise ValueError(f"a PWL table of {n} pieces needs {n} slopes and {n} intercepts")
        # the bounds the build keeps, which keep the grid's int64 products from wrapping
        if ((mants <= -(1 << 33)) | (mants >= 1 << 33)).any() or ((shifts < e) | (shifts > e + 28)).any():
            raise ValueError(f"PWL slopes need mantissas of magnitude below 2^33 and shifts in [{e}, {e + 28}]")
        if (np.abs(np.asarray(self.intercept_fx, dtype=np.float64)) * 2.0 ** (shifts - e) >= 2.0**62).any():
            raise ValueError("PWL intercepts must stay below 2^62 in magnitude at their slopes' shifts")
        pins, vals = np.asarray(self.override_q), np.asarray(self.override_val)
        if not _increasing_on_grid(pins, top) or pins.shape != vals.shape:
            raise ValueError("PWL override points must be strictly increasing points of the input grid, one value each")
        if ((vals < 0) | (vals > self.out_qp.qmax)).any():
            raise ValueError(f"PWL override values must lie in the output grid [0, {self.out_qp.qmax}]")
        self.knots_r = dequantize(knots, self.in_qp)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected below
            self.intercepts = np.asarray(ACTIVATIONS[self.fn_name](self.knots_r), dtype=np.float64)
            self.slopes = np.diff(self.intercepts) / np.diff(self.knots_r)
        if not np.isfinite(self.slopes).all():
            raise ValueError("PWL knot values and slopes must be finite")
        out = _fixed_point_grid(self)
        out[pins] = vals
        # signed storage one size wider than the outputs: subtracting the output zero point cannot wrap
        self.grid_out = out.astype(np.int16 if self.out_qp.bitwidth == 8 else np.int32)

    @property
    def n_pieces(self) -> int:
        return len(self.knots_q) - 1

    def check_grids(self, name: str, qp_in: QuantParams, qp_out: QuantParams) -> None:
        """Raise ``ValueError`` naming the table, ``name``, unless it maps ``qp_in`` onto ``qp_out``."""
        if (self.in_qp, self.out_qp) != (qp_in, qp_out):
            raise ValueError(f"table {name} must map its input stage's grid onto its output stage's")

    @property
    def frac_bits(self) -> int:
        """Fraction bits of the intercept constants, fixed by the output width."""
        return _FRAC_BITS[self.out_qp.bitwidth]


def _integer_form(knots_r, intercepts, in_qp: QuantParams, out_qp: QuantParams) -> tuple:
    """Per-piece slope mantissas, slope shifts and intercept constants of the
    chords through ``(knots_r, intercepts)``, nudged onto the quantized knots."""
    e, ratio = _FRAC_BITS[out_qp.bitwidth], in_qp.scale / out_qp.scale
    slopes = np.diff(intercepts) / np.diff(knots_r)
    targets = np.asarray(quantize(intercepts, out_qp), dtype=np.int64)
    n = len(slopes)
    mants = np.zeros(n, dtype=np.int64)
    shifts = np.full(n, e, dtype=np.int64)
    consts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        a = float(slopes[i]) * ratio
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
        c_real = (intercepts[i] / out_qp.scale + out_qp.zero_point) * 2.0**e
        if not abs(c_real) < 2.0**62:
            v, lo, hi = intercepts[i], out_qp.min, out_qp.max
            raise ValueError(f"knot value {v:.3g} lies too far outside the output range [{lo:.3g}, {hi:.3g}]")
        c = int(iround(c_real))
        # nudge so the integer evaluation reproduces the quantized knot value exactly
        want = int(targets[i])
        for _ in range(8):
            have = max(0, min(_shift_round_exact(c, e), out_qp.qmax))
            if have == want:
                break
            c += 1 if have < want else -1
        else:
            raise AssertionError("intercept nudge did not converge")
        consts[i] = c
    return mants, shifts, consts


def _pin_overrides(t: PwlTable) -> None:
    """Pin every grid point where the fixed-point rounding lands on the other
    side of a half-step boundary from the real path, evaluated as
    :func:`eval_pwl_real` does, piece by piece on :func:`_pieces`' runs."""
    want = dequantize(np.arange(t.in_qp.qmax + 1), t.in_qp)
    for i, (lo, hi) in _pieces(t):
        want[lo:hi] = t.slopes[i] * (want[lo:hi] - t.knots_r[i]) + t.intercepts[i]
    want[t.knots_q[-1]] = t.intercepts[-1]
    want = quantize_in_place(want, t.out_qp).astype(np.int64)
    t.override_q = np.flatnonzero(t.grid_out != want)
    t.override_val = want[t.override_q]
    t.grid_out[t.override_q] = t.override_val


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
    qs = _candidate_grid(in_qp, candidates)
    if n_pieces > len(qs) - 1:
        raise ValueError("n_pieces exceeds candidate knot count")
    rs = dequantize(qs, in_qp)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected below
        bs = np.asarray(ACTIVATIONS[fn_name](rs), dtype=np.float64)
    idx = _select_indices(rs, bs, n_pieces)
    none = np.zeros(0, dtype=np.int64)
    t = PwlTable(qs[idx], in_qp, out_qp, fn_name, *_integer_form(rs[idx], bs[idx], in_qp, out_qp), none, none)
    _pin_overrides(t)
    return t


def eval_pwl_real(x, t: PwlTable):
    """Real-arithmetic PWL evaluation; boundary pieces extend linearly."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(t.knots_r, x, side="right") - 1, 0, t.n_pieces - 1)
    g = t.slopes[idx] * (x - t.knots_r[idx]) + t.intercepts[idx]
    g = np.where(x == t.knots_r[-1], t.intercepts[-1], g)
    return float(g) if np.ndim(x) == 0 else g


def _pieces(t: PwlTable):
    """Each piece's index and its run ``[lo, hi)`` of grid points: the first
    piece also covers those below its left knot, the last all from it on."""
    bounds = [0, *t.knots_q[1:-1].tolist(), t.in_qp.qmax + 1]
    return enumerate(zip(bounds, bounds[1:]))


def _fixed_point_grid(t: PwlTable) -> np.ndarray:
    """The integer form at every input grid point, overrides not applied:
    one multiply plus one rounding shift per point, piece by piece."""
    out = np.empty(t.in_qp.qmax + 1, dtype=np.int64)
    for i, (lo, hi) in _pieces(t):
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
    i = int(np.searchsorted(t.override_q, q))
    if i < len(t.override_q) and int(t.override_q[i]) == q:
        return int(t.override_val[i])
    i = min(max(int(np.searchsorted(t.knots_q, q, side="right")) - 1, 0), t.n_pieces - 1)
    shift = int(t.slope_shifts[i])
    raw = (q - int(t.knots_q[i])) * int(t.slope_mants[i])
    raw += int(t.intercept_fx[i]) << (shift - t.frac_bits)
    return max(0, min(_shift_round_exact(raw, shift), t.out_qp.qmax))


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
