"""LSTM cells and sequence layers in three matched forms.

* a real-arithmetic reference (float64),
* an integer-only engine (8-bit matmuls, 32-bit accumulation, fixed-point
  rescaling, activations gathered from the PWL tables' grid outputs),
* an exact-arithmetic fake-quantization oracle (``*_exact``) that mirrors
  the integer engine's dataflow with arbitrary-precision rounding and is
  the bit-exactness reference for it.

Weight layout stacks the four gates as contiguous row blocks in the order
(input, forget, candidate, output).  The three sigmoid gates share one
preactivation grid and one PWL instance; the candidate tanh and the cell
tanh each have their own.

The specs hold data only: weights, qparams, PWL tables and the scalar
multipliers that the oracle reads.  The integer step works on all 4m gate
rows of ``k`` cells ("lanes") at once: each stage is one
:class:`~qlstm.quant.Rescale` whose multipliers, zero points and clamp
bounds :class:`LstmLanes` builds once from the specs as ``(k, rows)``
stacks, so a stage is one vectorised call whichever lane and grid a
row is on.  A unidirectional layer and the attention decoder run one lane;
a BiLSTM runs its forward step t and its backward step T-1-t as two lanes
of one call.  Weights are stored k-major, a contiguous ``(k, n, 4m)`` stack
of ``W.T``, so each matmul is one batched vector-matrix product.

When every lane's cell grid is 8-bit, so is every operand of the cell
update and the hidden output, and those stages are pair tables that
:class:`LstmLanes` builds by calling each stage's op once on all 256 x 256
storage pairs: a step gathers the rounded f*c and i*j terms and h instead
of rescaling.  A 16-bit cell keeps the arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .madnorm import MadNormQParams, MadNormRows, _noop, madnorm_int, madnorm_int_exact, madnorm_observe, scoped
from .pwl import PwlTable, build_pwl, eval_pwl_int, eval_pwl_int_exact, sigmoid
from .quant import (
    QuantParams,
    Rescale,
    centred,
    check_accumulator,
    check_dtype,
    int_matmul,
    narrowest,
    prefix_errors,
    quantize_bias,
    quantize_weights,
    requantize_exact,
    requantize_scaled,
    rescale_add,
    rescale_add_exact,
    saturating_multiplier,
    stage_errors,
    stage_qparams,
    sub_ranges,
    tabulate,
    term_multiplier,
)


#: The mixed-precision layout of the cell: each stage's bitwidth, 8, or the
#: ``cell_bits`` (``"cell"``) or ``gate_bits`` (``"gate"``) of the conversion.
#: Every stage has a ``qp_<stage>`` field in :class:`QuantLstmSpec`; the
#: order is the order in which conversion reports a degenerate range.
CELL_STAGES = {
    "x": 8, "h": 8, "c": "cell", "mx": 8, "mh": 8, "pre_sig": "gate", "pre_j": "gate",
    "sig": 8, "tanh_j": 8, "p_fc": "cell", "p_ij": "cell", "tanh_c": 8,
}
#: The MadNorm cell's norms: spec field ``norm_<k>``, calibrated under
#: ``n<k>.``, normalizing the stage it names, whose values are ``rows * m``.
CELL_NORMS = {"x": ("mx", 4), "h": ("mh", 4), "c": ("c", 1)}


@dataclass
class LstmWeights:
    """Stacked gate weights; biases are carried explicitly."""

    w_x: np.ndarray  # (4m, n)
    w_h: np.ndarray  # (4m, m)
    bias: np.ndarray  # (4m,)

    def __post_init__(self):
        self.w_x = np.asarray(self.w_x, dtype=np.float64)
        self.w_h = np.asarray(self.w_h, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        four_m, n = self.w_x.shape
        if four_m % 4 != 0:
            raise ValueError("stacked weight rows must be a multiple of 4")
        m = four_m // 4
        if self.w_h.shape != (four_m, m) or self.bias.shape != (four_m,):
            raise ValueError("inconsistent LSTM weight shapes")
        check_accumulator((n, m))

    @property
    def hidden_size(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "LstmState":
        """The zero state: ``shape`` is ``m``, or ``(B, m)`` for a stack."""
        return cls(np.zeros(shape), np.zeros(shape))


def _gate_rows(m: int):
    sig = np.concatenate([np.arange(0, 2 * m), np.arange(3 * m, 4 * m)])
    j = np.arange(2 * m, 3 * m)
    return sig, j


def _gate_blocks(m: int, sig, j) -> tuple:
    """``(value, row count)`` blocks over the 4m gate rows: ``sig`` for the
    input, forget and output rows, ``j`` for the candidate rows."""
    return (sig, 2 * m), (j, m), (sig, m)


def _rows(*blocks) -> np.ndarray:
    """Per-row constants from ``(value, row count)`` blocks: int64 for
    integers, an object array for :class:`~qlstm.quant.ScaledMultiplier` s."""
    return np.repeat(np.array([v for v, _ in blocks]), [n for _, n in blocks])


def matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for a vector ``x`` or a stack of them (``(..., n)``): one
    matrix-vector product per vector, so each gets the bits it gets alone.
    A GEMM over the stack (``x @ w.T``) can differ in the last bit."""
    return np.matmul(w, x[..., None])[..., 0]


def lstm_step_real(x_t, state: LstmState, weights: LstmWeights, record=_noop, norm=False, ms=None) -> LstmState:
    """One exact real-arithmetic step (biases added to the preactivations)
    of one cell, or of a stack of cells: ``x_t`` is ``(n,)`` or ``(B, n)``.

    ``norm`` puts MadNorm on each matmul result and on the cell state (the
    MadNorm cell); ``ms``, the attention decoder's context matmul, is added
    to the preactivations.
    """
    m = weights.hidden_size
    mx = matvec(weights.w_x, np.asarray(x_t, dtype=np.float64)) + weights.bias
    mh = matvec(weights.w_h, np.asarray(state.h, dtype=np.float64))
    record("x", x_t)
    record("mx", mx)
    record("mh", mh)
    pre = madnorm_observe(mx, record, "nx") + madnorm_observe(mh, record, "nh") if norm else mx + mh
    if ms is not None:
        record("ms", ms)
        pre = pre + ms
    sig_rows, _ = _gate_rows(m)
    record("pre_sig", pre[..., sig_rows])
    record("pre_j", pre[..., 2 * m : 3 * m])
    gates = sigmoid(pre[..., sig_rows])
    record("sig", gates)
    s_i, s_f, s_o = gates[..., :m], gates[..., m : 2 * m], gates[..., 2 * m :]
    t_j = np.tanh(pre[..., 2 * m : 3 * m])
    record("tanh_j", t_j)
    p_fc = s_f * np.asarray(state.c, dtype=np.float64)
    p_ij = s_i * t_j
    record("p_fc", p_fc)
    record("p_ij", p_ij)
    c_new = p_fc + p_ij
    record("c", c_new)
    t_c = np.tanh(madnorm_observe(c_new, record, "nc") if norm else c_new)
    record("tanh_c", t_c)
    h_new = s_o * t_c
    record("h", h_new)
    return LstmState(h_new, c_new)


@dataclass
class QuantLstmSpec:
    """Everything the integer LSTM cell needs: quantized weights, per-stage
    quantization parameters, fixed-point rescales and PWL tables."""

    w_x_q: np.ndarray
    w_h_q: np.ndarray
    bias_q: np.ndarray
    qp_wx: QuantParams
    qp_wh: QuantParams
    qp_x: QuantParams
    qp_h: QuantParams
    qp_c: QuantParams
    qp_mx: QuantParams
    qp_mh: QuantParams
    qp_pre_sig: QuantParams
    qp_pre_j: QuantParams
    qp_sig: QuantParams
    qp_tanh_j: QuantParams
    qp_p_fc: QuantParams
    qp_p_ij: QuantParams
    qp_tanh_c: QuantParams
    pwl_sig: PwlTable
    pwl_tanh_j: PwlTable
    pwl_tanh_c: PwlTable
    norm_x: MadNormQParams | None = None
    norm_h: MadNormQParams | None = None
    norm_c: MadNormQParams | None = None

    def __post_init__(self):
        first = {}  # each bitwidth group's first stage and bitwidth
        for stage, kind in CELL_STAGES.items():
            bits = getattr(self, f"qp_{stage}").bitwidth
            ref, want = first.setdefault(kind, (stage, 8 if kind == 8 else bits))
            if bits != want:
                raise ValueError(f"stage {stage!r} must be {want}-bit" + ("" if kind == 8 else f" like stage {ref!r}"))
        norms = [getattr(self, f"norm_{k}") for k in CELL_NORMS]
        if any(n is not None for n in norms) and not all(n is not None for n in norms):
            raise ValueError("MadNorm variant needs all three norm configurations")
        check_dtype(np.uint8, w_x_q=self.w_x_q, w_h_q=self.w_h_q)
        check_dtype(np.int32, bias_q=self.bias_q)
        m = self.hidden_size
        w_x, w_h, bias = self.w_x_q.shape, self.w_h_q.shape, self.bias_q.shape
        if len(w_x) != 2 or w_x[0] != 4 * m or w_h != (4 * m, m) or bias != (4 * m,):
            raise ValueError(f"inconsistent LSTM weight shapes: w_x {w_x}, w_h {w_h}, bias {bias}")
        check_accumulator((self.input_size, m), self.bias_q)
        if self.norm:
            # each MadNorm normalizes one stage's rows on that stage's grid
            for k, (stage, rows) in CELL_NORMS.items():
                p = getattr(self, f"norm_{k}")
                if p.hidden != rows * m or p.qp_x != getattr(self, f"qp_{stage}"):
                    raise ValueError(f"norm_{k} must take {rows * m} values on its stage's grid")
        src_x = self.norm_x.qp_y if self.norm_x is not None else self.qp_mx
        src_h = self.norm_h.qp_y if self.norm_h is not None else self.qp_mh
        self.m_mx = saturating_multiplier(self.qp_wx.scale * self.qp_x.scale / self.qp_mx.scale)
        self.m_mh = saturating_multiplier(self.qp_wh.scale * self.qp_h.scale / self.qp_mh.scale)
        self.m_x2sig = term_multiplier("pre_sig", src_x.scale / self.qp_pre_sig.scale, 255)
        self.m_h2sig = term_multiplier("pre_sig", src_h.scale / self.qp_pre_sig.scale, 255)
        self.m_x2j = term_multiplier("pre_j", src_x.scale / self.qp_pre_j.scale, 255)
        self.m_h2j = term_multiplier("pre_j", src_h.scale / self.qp_pre_j.scale, 255)
        self.m_fc = saturating_multiplier(self.qp_sig.scale * self.qp_c.scale / self.qp_p_fc.scale)
        self.m_ij = saturating_multiplier(self.qp_sig.scale * self.qp_tanh_j.scale / self.qp_p_ij.scale)
        self.m_fc2c = term_multiplier("c", self.qp_p_fc.scale / self.qp_c.scale, self.qp_c.qmax)
        self.m_ij2c = term_multiplier("c", self.qp_p_ij.scale / self.qp_c.scale, self.qp_c.qmax)
        self.m_h = saturating_multiplier(self.qp_sig.scale * self.qp_tanh_c.scale / self.qp_h.scale)
        self.pwl_sig.check_grids("pwl_sig", self.qp_pre_sig, self.qp_sig)
        self.pwl_tanh_j.check_grids("pwl_tanh_j", self.qp_pre_j, self.qp_tanh_j)
        self.pwl_tanh_c.check_grids("pwl_tanh_c", self.norm_c.qp_y if self.norm else self.qp_c, self.qp_tanh_c)

    @property
    def hidden_size(self) -> int:
        return self.w_x_q.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x_q.shape[1]

    @property
    def norm(self) -> bool:
        return self.norm_x is not None

    @classmethod
    def from_float(
        cls,
        weights: LstmWeights,
        ranges: dict,
        *,
        cell_bits: int = 8,
        gate_bits: int = 8,
        pieces: int = 16,
        qp_x: QuantParams | None = None,
        qp_h: QuantParams | None = None,
        norm: bool = False,
    ) -> "QuantLstmSpec":
        bits = {8: 8, "cell": cell_bits, "gate": gate_bits}
        qps = {"qp_x": qp_x, "qp_h": qp_h}
        for stage, kind in CELL_STAGES.items():
            if qps.get(f"qp_{stage}") is None:
                qps[f"qp_{stage}"] = stage_qparams(ranges, stage, bits[kind])

        w_x_q, qp_wx = quantize_weights(weights.w_x)
        w_h_q, qp_wh = quantize_weights(weights.w_h)
        bias_q = quantize_bias(weights.bias, qp_wx.scale * qps["qp_x"].scale)

        norms = {}
        if norm:
            for k, (stage, rows) in CELL_NORMS.items():
                with prefix_errors(f"n{k}"):
                    qp_in, hidden = qps[f"qp_{stage}"], rows * weights.hidden_size
                    norms[f"norm_{k}"] = MadNormQParams.from_ranges(sub_ranges(ranges, f"n{k}"), qp_in, hidden)
        tanh_c_in = norms["norm_c"].qp_y if norm else qps["qp_c"]

        # each table is named after the stage its outputs land on
        with stage_errors("sig"):
            pwl_sig = build_pwl("sigmoid", qps["qp_pre_sig"], qps["qp_sig"], pieces)
        with stage_errors("tanh_j"):
            pwl_tanh_j = build_pwl("tanh", qps["qp_pre_j"], qps["qp_tanh_j"], pieces)
        with stage_errors("tanh_c"):
            pwl_tanh_c = build_pwl("tanh", tanh_c_in, qps["qp_tanh_c"], pieces)

        return cls(
            w_x_q=w_x_q, w_h_q=w_h_q, bias_q=bias_q, qp_wx=qp_wx, qp_wh=qp_wh,
            pwl_sig=pwl_sig, pwl_tanh_j=pwl_tanh_j, pwl_tanh_c=pwl_tanh_c, **qps, **norms,
        )


def _k_major(w_diff: np.ndarray, m: int, width: int, cols: int) -> np.ndarray:
    """A lane's ``(4m, c)`` gate weights as the ``(cols, 4 * width)``
    transpose, each gate block zero-padded from ``m`` to ``width`` rows and
    the ``c`` columns zero-padded to ``cols``."""
    pad = np.zeros((4, width, cols), dtype=np.int32)
    pad[:, :m, : w_diff.shape[-1]] = w_diff.reshape(4, m, -1)
    return pad.reshape(4 * width, cols).T


class LstmLanes:
    """Constants of the fused integer LSTM step for ``k`` cells run side by side.

    Lane ``l`` is the cell ``specs[l]``, and ``grid`` maps each of its PWL
    tables to the outputs that its gathers read (``runtime.engine``, which
    builds every model's lanes once, when the model is built).  Every
    per-row constant is a ``(k, rows)`` stack (a stacked pair of terms a
    ``(k, 2, rows)`` one) and every per-lane one a ``(k, 1)`` column, so one
    kernel call advances all lanes by one step, each on its own grids, as
    :class:`~qlstm.madnorm.MadNormRows` does for MadNorm.  The weights are
    k-major: ``w_x`` is the contiguous ``(k, n, 4w)`` stack of the lanes'
    centred ``W_x.T`` and ``w_h`` the ``(k, w, 4w)`` stack of ``W_h.T``.
    The lanes' gate tables (sigmoid | candidate tanh) are concatenated into
    one table and their cell tanh tables into another, and each row gathers
    at its lane's offset.

    ``w`` is the widest lane's hidden size.  A narrower lane is padded to it
    with zero weight rows and columns: its padded units run through every
    stage like real ones, but their hidden values meet only zero weights,
    so they change no real unit, and callers copy out each lane's own
    ``hidden`` units.  MadNorm normalizes over all of a stage's rows, so
    MadNorm lanes must share their width.

    ``tabled`` lanes (every ``qp_c`` 8-bit, chosen from the qparams alone)
    replace the last three stages with pair tables, lane ``l``'s entry for
    the storage pair ``(a, b)`` at ``(l << 16) + (a << 8) + b``: ``fc_table``
    holds the rounded f*c term of the cell update at ``(f, c)``,
    ``ij_table`` the rounded i*j term at ``(i, j)`` and ``h_table`` h at
    ``(o, x)``, ``x`` the cell tanh's 8-bit input, whose gather it folds
    in.  ``gate_rows`` is the gate table with each sigmoid output ``g`` of
    lane ``l`` stored as its row ``(l << 16) + (g << 8)``.  Each table is
    the stage's own op called on every pair, so it is bit-exact by
    construction; the build takes about 2-3 ms per lane.  Resident per lane:
    320 KiB (both terms int16 where their values fit, h uint8) and 2 KiB of
    gate rows on an 8-bit gate grid (512 KiB on a 16-bit one).  A 16-bit
    cell would need a 256 x 65,536 f*c table, so a lane set with any
    16-bit cell keeps the arithmetic stages (``rq_prod``, ``rs_c``,
    ``rq_h``).
    """

    def __init__(self, specs, grid):
        if len({s.input_size for s in specs}) != 1:
            raise ValueError("lanes must share the input width")
        if len({s.norm for s in specs}) != 1:
            raise ValueError("lanes must all be MadNorm cells or all plain cells")
        self.hidden = [s.hidden_size for s in specs]
        self.k, w = len(specs), max(self.hidden)
        self.width = w
        self.norm = specs[0].norm
        if self.norm and min(self.hidden) != w:
            raise ValueError("MadNorm lanes must share the hidden width")
        n, r = specs[0].input_size, 4 * w

        def col(f, dtype=np.int64):  # f(spec) -> one value per lane: (k, 1)
            return np.array([[f(s)] for s in specs], dtype=dtype)

        def pair(f, width, dtype=np.int64):  # f(spec) -> one value per stacked term: (k, 2, width)
            return np.array([[[v] * width for v in f(s)] for s in specs], dtype=dtype)

        def rows(f):  # f(spec) -> (value, row count) blocks: (k, rows)
            return np.stack([_rows(*f(s)) for s in specs])

        def gates(f):  # f(spec) -> (sigmoid value, candidate value) on the 4w gate rows
            return lambda s: _gate_blocks(w, *f(s))

        self.zp_x = col(lambda s: s.qp_x.zero_point).astype(np.int32)
        self.zp_h = col(lambda s: s.qp_h.zero_point).astype(np.int32)
        self.w_x = np.stack([_k_major(centred(s.w_x_q, s.qp_wx), s.hidden_size, w, n) for s in specs])
        self.w_h = np.stack([_k_major(centred(s.w_h_q, s.qp_wh), s.hidden_size, w, w) for s in specs])
        # the bias padded like a one-column weight
        self.bias = np.stack([_k_major(s.bias_q[:, None], s.hidden_size, w, 1)[0] for s in specs])
        # stacked mx|mh: storage values when MadNorm follows, centred values otherwise
        m_mxh = pair(lambda s: (s.m_mx, s.m_mh), r, object)
        zp_mxh = pair(lambda s: (s.qp_mx.zero_point, s.qp_mh.zero_point), r)
        if self.norm:
            self.rq_mxh = Rescale.of(m_mxh, zp_mxh, 0, 255)
            self.norm_xh = MadNormRows([p for s in specs for p in (s.norm_x, s.norm_h)])
            self.nxh_zp = pair(lambda s: (s.norm_x.qp_y.zero_point, s.norm_h.qp_y.zero_point), r)
            self.norm_c = MadNormRows([s.norm_c for s in specs])
        else:
            self.rq_mxh = Rescale.of(m_mxh, 0, -zp_mxh, 255 - zp_mxh)
        x_terms = rows(gates(lambda s: (s.m_x2sig, s.m_x2j)))
        h_terms = rows(gates(lambda s: (s.m_h2sig, s.m_h2j)))
        self.rs_pre = Rescale.of(
            np.stack((x_terms, h_terms), axis=1),
            rows(gates(lambda s: (s.qp_pre_sig.zero_point, s.qp_pre_j.zero_point))),
            0,
            rows(gates(lambda s: (s.qp_pre_sig.qmax, s.qp_pre_j.qmax))),
        )
        # every lane's sigmoid | candidate tanh, one table; rows gather at their lane's offsets
        grids = [(grid(s.pwl_sig), grid(s.pwl_tanh_j), grid(s.pwl_tanh_c)) for s in specs]
        tables = [t for g in grids for t in g[:2]]
        starts = np.cumsum([0] + [len(t) for t in tables])
        self.gate_table = np.concatenate(tables)
        self.gate_off = np.stack([_rows(*_gate_blocks(w, *starts[2 * i : 2 * i + 2])) for i in range(self.k)])
        tanh_c = [g[2] for g in grids]
        self.tanh_c_table = np.concatenate(tanh_c)
        self.tanh_c_off = np.cumsum([0] + [len(t) for t in tanh_c[:-1]])[:, None]
        # stacked f*c | i*j products (centred), their rescale-add into c, and h = o * tanh(c)
        self.zp_c = col(lambda s: s.qp_c.zero_point)
        self.tabled = all(s.qp_c.bitwidth == 8 for s in specs)
        span = 1 if self.tabled else w  # a table broadcasts each lane's constants over its pairs
        zp_prod = pair(lambda s: (s.qp_p_fc.zero_point, s.qp_p_ij.zero_point), span)
        top_prod = pair(lambda s: (s.qp_p_fc.qmax, s.qp_p_ij.qmax), span)
        rq_prod = Rescale.of(pair(lambda s: (s.m_fc, s.m_ij), span, object), 0, -zp_prod, top_prod - zp_prod)
        m_c = pair(lambda s: (s.m_fc2c, s.m_ij2c), span, object)
        rq_h = Rescale.of(col(lambda s: s.m_h, object), self.zp_h, 0, 255)
        zp_tanh_c = col(lambda s: s.qp_tanh_c.zero_point)
        if self.tabled:
            # every operand of these stages is 8-bit: each lane's stage, called on all 2^16
            # storage pairs, is a table that a step gathers from at (a << 8) + b + (lane << 16)
            zp_sig = col(lambda s: s.qp_sig.zero_point)
            zp_cj = pair(lambda s: (s.qp_c.zero_point, s.qp_tanh_j.zero_point), 1)  # f*c's and i*j's second operands
            # rescale_add rounds each term alone, as requantize_scaled does without bounds
            terms = Rescale.of(m_c)
            prods = lambda a, b: (a - zp_sig)[:, None] * (b - zp_cj)  # (k, 2, n): f*c | i*j
            fc_ij = tabulate(lambda a, b: requantize_scaled(requantize_scaled(prods(a, b), rq_prod), terms))
            self.fc_table, self.ij_table = narrowest(fc_ij[:, 0]).ravel(), narrowest(fc_ij[:, 1]).ravel()
            # h's second operand is the cell tanh's (8-bit) input: the tanh gather is folded in
            t_c = lambda b: self.tanh_c_table[b + self.tanh_c_off] - zp_tanh_c
            h = tabulate(lambda a, b: requantize_scaled((a - zp_sig) * t_c(b), rq_h))
            self.h_table = h.astype(np.uint8).ravel()
            # the gate gather gives i, f and o as rows of their lane's pair tables, and j as a column
            sig_rows = [(g[0].astype(np.int32) << 8) + (l << 16) for l, g in enumerate(grids)]
            self.gate_rows = np.concatenate([t for rs, g in zip(sig_rows, grids) for t in (rs, g[1])])
        else:
            self.gate_zp = rows(gates(lambda s: (s.qp_sig.zero_point, s.qp_tanh_j.zero_point)))
            self.rq_prod, self.rq_h, self.zp_tanh_c = rq_prod, rq_h, zp_tanh_c
            self.rs_c = Rescale.of(m_c, self.zp_c, 0, col(lambda s: s.qp_c.qmax))

    def initial_state(self) -> tuple:
        """Raw ``(h, c)`` of every lane at real 0: uint8 and int64 ``(k, w)``."""
        shape = (self.k, self.width)
        return np.broadcast_to(self.zp_h, shape).astype(np.uint8), np.broadcast_to(self.zp_c, shape).copy()


# ---------------------------------------------------------------------------
# integer path
# ---------------------------------------------------------------------------


def lstm_gate_preacts_int(x: np.ndarray, h: np.ndarray, lanes: LstmLanes) -> np.ndarray:
    """Matmuls, one requantize over the stacked ``mx|mh`` (then one MadNorm
    call over both halves of every lane as a ``2k``-row stack), and one
    rescale-add over all 4w gate rows of every lane.

    ``x`` (``(k, n)``) and ``h`` (``(k, w)``) are raw storage arrays, row
    ``l`` on lane ``l``'s ``qp_x``/``qp_h`` (the caller checks the
    qparams).  Returns the ``(k, 4w)`` preactivations, each row on its own
    gate-sum grid: ``qp_pre_sig`` for the input, forget and output rows,
    ``qp_pre_j`` for the candidate rows.
    """
    mx = int_matmul(x - lanes.zp_x, lanes.w_x) + lanes.bias
    mh = int_matmul(h - lanes.zp_h, lanes.w_h)
    q = requantize_scaled(np.concatenate((mx[:, None], mh[:, None]), axis=1), lanes.rq_mxh)  # (k, 2, 4w)
    if lanes.norm:
        q = madnorm_int(q.reshape(-1, 4 * lanes.width), lanes.norm_xh).reshape(q.shape) - lanes.nxh_zp
    return rescale_add(q, lanes.rs_pre)


def lstm_apply_gates_int(pre: np.ndarray, c: np.ndarray, lanes: LstmLanes):
    """Activations, cell update and hidden output of the integer cell.

    ``pre`` is :func:`lstm_gate_preacts_int`'s output and ``c`` the raw
    ``(k, w)`` cell state.  Sigmoid and candidate tanh are one gather from
    the lanes' gate table.  On tabled lanes the rest is gathers from the
    pair tables: ``c' = clamp(FC[f, c] + IJ[i, j] + zp_c)`` and ``h' = H[o,
    c']`` (``H[o, MadNorm(c')]``).  Otherwise the cell tanh is one gather
    from the cell tanh table and the ``fc|ij`` products are requantized
    together.  Returns the raw ``(h, c)``: ``h`` as uint8 storage, ``c`` as
    int64.
    """
    m = lanes.width
    if lanes.tabled:
        r = lanes.gate_rows[pre + lanes.gate_off]  # i, f and o as pair-table rows, j as a column
        c_new = lanes.fc_table[r[:, m : 2 * m] + c] + lanes.zp_c + lanes.ij_table[r[:, :m] + r[:, 2 * m : 3 * m]]
        c_new = np.minimum(np.maximum(c_new, 0), 255)
        src = madnorm_int(c_new, lanes.norm_c) if lanes.norm else c_new
        return lanes.h_table[r[:, 3 * m :] + src], c_new
    d = lanes.gate_table[pre + lanes.gate_off] - lanes.gate_zp  # centred i | f | j | o
    fc = d[:, None, m : 2 * m] * (c - lanes.zp_c)[:, None]
    ij = d[:, None, :m] * d[:, None, 2 * m : 3 * m]
    c_new = rescale_add(requantize_scaled(np.concatenate((fc, ij), axis=1), lanes.rq_prod), lanes.rs_c)
    src = madnorm_int(c_new, lanes.norm_c) if lanes.norm else c_new
    t_c = lanes.tanh_c_table[src + lanes.tanh_c_off]
    h_new = requantize_scaled(d[:, 3 * m :] * (t_c - lanes.zp_tanh_c), lanes.rq_h)
    return h_new.astype(np.uint8), c_new


def run_lanes(frames, states, lanes: LstmLanes) -> None:
    """Advance every lane from the zero state over ``frames``, lane ``l``
    reading ``frames[t][l]`` at step ``t``, and write the lanes' ``(k, w)``
    uint8 hidden states to ``states[t]``.  A cell's frames and states are
    ``(T, 1, ...)`` arrays; a BiLSTM's are one :class:`_Opposed`."""
    h, c = lanes.initial_state()
    for t in range(len(frames)):
        h, c = lstm_apply_gates_int(lstm_gate_preacts_int(frames[t], h, lanes), c, lanes)
        states[t] = h


# ---------------------------------------------------------------------------
# exact-arithmetic oracle
# ---------------------------------------------------------------------------


def lstm_gate_preacts_exact(q_x, q_h, spec: QuantLstmSpec):
    w_x, w_h = centred(spec.w_x_q, spec.qp_wx).astype(np.int64), centred(spec.w_h_q, spec.qp_wh).astype(np.int64)
    acc_x = w_x @ (np.asarray(q_x, dtype=np.int64) - spec.qp_x.zero_point) + spec.bias_q
    acc_h = w_h @ (np.asarray(q_h, dtype=np.int64) - spec.qp_h.zero_point)
    q_mx = np.array([requantize_exact(int(a), spec.m_mx, spec.qp_mx.zero_point, 8) for a in acc_x])
    q_mh = np.array([requantize_exact(int(a), spec.m_mh, spec.qp_mh.zero_point, 8) for a in acc_h])
    if spec.norm:
        q_mx = madnorm_int_exact(q_mx, spec.norm_x)
        q_mh = madnorm_int_exact(q_mh, spec.norm_h)
        zx, zh = spec.norm_x.qp_y.zero_point, spec.norm_h.qp_y.zero_point
    else:
        zx, zh = spec.qp_mx.zero_point, spec.qp_mh.zero_point

    def gate_sums(rows, qp, m_x, m_h):  # each term rounded on its own, the sum on the rows' grid
        terms = ([(int(q_mx[r]) - zx, m_x), (int(q_mh[r]) - zh, m_h)] for r in rows)
        return np.array([rescale_add_exact(t, qp.zero_point, qp.bitwidth) for t in terms])

    sig_rows, j_rows = _gate_rows(spec.hidden_size)
    pre_sig = gate_sums(sig_rows, spec.qp_pre_sig, spec.m_x2sig, spec.m_h2sig)
    return pre_sig, gate_sums(j_rows, spec.qp_pre_j, spec.m_x2j, spec.m_h2j)


def lstm_apply_gates_exact(pre_sig, pre_j, q_c, spec: QuantLstmSpec):
    m = spec.hidden_size
    gates = np.array([eval_pwl_int_exact(int(q), spec.pwl_sig) for q in pre_sig])
    t_j = np.array([eval_pwl_int_exact(int(q), spec.pwl_tanh_j) for q in pre_j])
    z_sig = spec.qp_sig.zero_point
    d_i, d_f, d_o = gates[:m] - z_sig, gates[m : 2 * m] - z_sig, gates[2 * m :] - z_sig

    def product(d, b, zp_b, mult, qp):  # d * (b - zp_b) requantized onto qp
        prods = (int(u) * (int(v) - zp_b) for u, v in zip(d, b))
        return np.array([requantize_exact(p, mult, qp.zero_point, qp.bitwidth) for p in prods])

    q_p_fc = product(d_f, q_c, spec.qp_c.zero_point, spec.m_fc, spec.qp_p_fc)
    q_p_ij = product(d_i, t_j, spec.qp_tanh_j.zero_point, spec.m_ij, spec.qp_p_ij)
    zp_fc, zp_ij = spec.qp_p_fc.zero_point, spec.qp_p_ij.zero_point
    terms = ([(int(a) - zp_fc, spec.m_fc2c), (int(b) - zp_ij, spec.m_ij2c)] for a, b in zip(q_p_fc, q_p_ij))
    c_new = np.array([rescale_add_exact(t, spec.qp_c.zero_point, spec.qp_c.bitwidth) for t in terms])
    tanh_src = madnorm_int_exact(c_new, spec.norm_c) if spec.norm else c_new
    t_c = np.array([eval_pwl_int_exact(int(q), spec.pwl_tanh_c) for q in tanh_src])
    return product(d_o, t_c, spec.qp_tanh_c.zero_point, spec.m_h, spec.qp_h), c_new


def lstm_step_exact(q_x, q_h, q_c, spec: QuantLstmSpec):
    """Oracle step on integer arrays; returns (q_h', q_c')."""
    pre_sig, pre_j = lstm_gate_preacts_exact(q_x, q_h, spec)
    return lstm_apply_gates_exact(pre_sig, pre_j, q_c, spec)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def lstm_sequence_real(xs: np.ndarray, weights: LstmWeights, record=_noop, norm: bool = False) -> np.ndarray:
    """The hidden states of ``(T, n)`` frames, ``(T, m)``; a ``(B, T, n)``
    stack of equal-length sequences runs as one, to ``(B, T, m)``, each
    sequence with the bits it gets alone."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    state = LstmState.zeros((*xs.shape[:-2], weights.hidden_size))
    hs = np.zeros((*xs.shape[:-1], weights.hidden_size))
    for t in range(xs.shape[-2]):
        state = lstm_step_real(xs[..., t, :], state, weights, record, norm=norm)
        hs[..., t, :] = state.h
    return hs


def lstm_sequence_int(xs: np.ndarray, lanes: LstmLanes) -> np.ndarray:
    """Forward pass of one cell, the one lane of ``lanes``, over the raw
    ``(T, n)`` storage ``xs`` on its ``qp_x``; returns the raw ``(T, m)``
    uint8 hidden states on its ``qp_h``.  A BiLSTM runs both directions in
    :func:`bilstm_sequence_int`."""
    xs = np.atleast_2d(xs)
    hs = np.empty((len(xs), 1, lanes.width), dtype=np.uint8)
    run_lanes(xs[:, None], hs, lanes)
    return hs[:, 0]


def lstm_sequence_exact(q_xs: np.ndarray, spec: QuantLstmSpec) -> np.ndarray:
    data = np.atleast_2d(q_xs)
    q_h = np.full(spec.hidden_size, spec.qp_h.zero_point, dtype=np.int64)
    q_c = np.full(spec.hidden_size, spec.qp_c.zero_point, dtype=np.int64)
    hs = np.zeros((len(data), spec.hidden_size), dtype=np.int64)
    for t in range(len(data)):
        q_h, q_c = lstm_step_exact(data[t], q_h, q_c, spec)
        hs[t] = q_h
    return hs


# ---------------------------------------------------------------------------
# bidirectional layers
# ---------------------------------------------------------------------------


def bilstm_sequence_real(xs, w_fwd: LstmWeights, w_bwd: LstmWeights, record=_noop) -> np.ndarray:
    """Both directions' hidden states side by side, of one sequence or a
    stack, as :func:`lstm_sequence_real`; the backward cell runs forward
    over the reversed frames, and its states are flipped back."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    fwd = lstm_sequence_real(xs, w_fwd, record=scoped(record, "fwd"))
    bwd = lstm_sequence_real(xs[..., ::-1, :], w_bwd, record=scoped(record, "bwd"))
    return np.concatenate([fwd, bwd[..., ::-1, :]], axis=-1)


class _Opposed:
    """A BiLSTM's two lanes over one sequence, as :func:`run_lanes` indexes
    their frames and states: step ``t`` copies frame ``t`` and frame
    ``T-1-t`` into one ``(2, n)`` buffer, and writes each lane's state
    into its own columns of the ``(T, fwd + bwd)`` uint8 output ``out``, at
    row ``t`` and row ``T-1-t``."""

    def __init__(self, xs: np.ndarray, fwd: int, bwd: int):
        self.xs, self.fwd, self.bwd = xs, fwd, bwd
        self.x = np.empty((2, xs.shape[1]), dtype=xs.dtype)
        self.out = np.empty((len(xs), fwd + bwd), dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, t: int) -> np.ndarray:
        x, xs = self.x, self.xs
        x[0] = xs[t]
        x[1] = xs[-1 - t]
        return x

    def __setitem__(self, t: int, h: np.ndarray) -> None:
        out, fwd = self.out, self.fwd
        out[t, :fwd] = h[0, :fwd]
        out[-1 - t, fwd:] = h[1, : self.bwd]


def bilstm_sequence_int(xs: np.ndarray, lanes: LstmLanes) -> np.ndarray:
    """Forward step t and backward step T-1-t as the two lanes of one kernel
    call (``lanes``, forward first), on raw storage as
    :func:`lstm_sequence_int`; returns the directions' hidden states side by
    side, which the lanes write straight into their columns of the output
    (:class:`_Opposed`): the run holds no reversed copy of the frames and
    no states besides its output."""
    both = _Opposed(np.atleast_2d(xs), *lanes.hidden)
    run_lanes(both, both, lanes)
    return both.out


def bilstm_sequence_exact(q_xs: np.ndarray, fwd: QuantLstmSpec, bwd: QuantLstmSpec) -> np.ndarray:
    q_xs = np.atleast_2d(q_xs)
    hs_fwd, hs_bwd = lstm_sequence_exact(q_xs, fwd), lstm_sequence_exact(q_xs[::-1], bwd)
    return np.concatenate([hs_fwd, hs_bwd[::-1]], axis=-1)
