"""Additive (Bahdanau-style) attention in real, integer and exact-oracle form.

Mixed-precision layout on the integer path (:data:`ATTN_BITS`): 8-bit
weights and projection outputs, 16-bit pre-tanh sums and alignments, 8-bit
tanh/exp outputs, a 32-bit softmax denominator and 8-bit attention weights
and context.  The
softmax inputs are max-shifted for numerical stability, which on the
integer path happens directly on the raw alignments.  The integer tanh and
exp are gathers from their tables' grid outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import floatguard
from .lstm import (
    LstmLanes,
    LstmState,
    LstmWeights,
    QuantLstmSpec,
    _gate_blocks,
    _gate_rows,
    _rows,
    lstm_apply_gates_exact,
    lstm_apply_gates_int,
    lstm_gate_preacts_exact,
    lstm_gate_preacts_int,
    lstm_step_real,
    matvec,
)
from .madnorm import _noop, scoped
from .pwl import PwlTable, build_pwl, eval_pwl_int, eval_pwl_int_exact
from .quant import (
    QuantParams,
    Rescale,
    ScaledMultiplier,
    centred,
    check_accumulator,
    check_dtype,
    divide_round,
    divide_round_exact,
    int_matmul,
    quantize_weights,
    requantize_exact,
    requantize_scaled,
    rescale_add,
    rescale_add_exact,
    saturating_multiplier,
    stage_errors,
    stage_qparams,
    sub_ranges,
    term_multiplier,
    _shift_round_exact,
)


#: The mixed-precision layout: every ``qp_<field>`` of
#: :class:`QuantAttnDecoderSpec` and its bitwidth (``ws`` and ``ms``: the
#: context injection's weights and product).
ATTN_BITS = {
    "wq": 8, "wk": 8, "v": 8, "q": 8, "k": 8, "sum": 16, "tanh": 8,
    "e": 16, "exp_in": 16, "exp_out": 8, "alpha": 8, "s": 8, "ws": 8, "ms": 8,
}
#: The stages the float path records, each calibrating the field of its name
#: (``ctx``: the context, field ``s``).
ATTN_STAGES = ("q", "k", "sum", "tanh", "e", "exp_in", "exp_out", "alpha", "ctx")


@dataclass
class AttentionWeights:
    """Query/key projections, scoring vector and the context injection matrix."""

    w_q: np.ndarray  # (m_att, m_dec)
    w_k: np.ndarray  # (m_att, m_enc)
    v: np.ndarray  # (m_att,)
    w_s: np.ndarray  # (4*m_dec, m_enc)

    def __post_init__(self):
        self.w_q = np.asarray(self.w_q, dtype=np.float64)
        self.w_k = np.asarray(self.w_k, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        self.w_s = np.asarray(self.w_s, dtype=np.float64)
        m_att = self.w_q.shape[0]
        if self.w_k.shape[0] != m_att or self.v.shape != (m_att,):
            raise ValueError("attention projection dimensions disagree")
        if self.w_s.shape != (4 * self.m_dec, self.m_enc):
            raise ValueError("context injection matrix shape mismatch")
        check_accumulator((self.m_att, self.m_dec, self.m_enc))

    @property
    def m_att(self) -> int:
        return self.w_q.shape[0]

    @property
    def m_dec(self) -> int:
        return self.w_q.shape[1]

    @property
    def m_enc(self) -> int:
        return self.w_k.shape[1]


def attention_keys_real(enc_h, w: AttentionWeights, record=_noop) -> np.ndarray:
    """The encoder states (``(T, m_enc)``, or a ``(B, T, m_enc)`` stack)
    projected through ``w_k`` once per sequence."""
    k_proj = np.atleast_2d(np.asarray(enc_h, dtype=np.float64)) @ w.w_k.T
    record("k", k_proj)
    return k_proj


def attention_real(h_prev, enc_h, k_proj, w: AttentionWeights, record=_noop):
    """Context vector and attention weights over the encoder states, whose
    keys :func:`attention_keys_real` projected; ``h_prev`` is ``(m_dec,)``,
    or ``(B, m_dec)`` with a stack of encoder states."""
    enc_h = np.atleast_2d(np.asarray(enc_h, dtype=np.float64))
    q_proj = matvec(w.w_q, np.asarray(h_prev, dtype=np.float64))
    record("q", q_proj)
    pre = q_proj[..., None, :] + k_proj
    record("sum", pre)
    th = np.tanh(pre)
    record("tanh", th)
    e = th @ w.v
    record("e", e)
    shifted = e - e.max(axis=-1, keepdims=True)
    record("exp_in", shifted)
    ex = np.exp(shifted)
    record("exp_out", ex)
    alpha = ex / ex.sum(axis=-1, keepdims=True)
    record("alpha", alpha)
    s = np.matmul(alpha[..., None, :], enc_h)[..., 0, :]
    record("ctx", s)
    return s, alpha


@dataclass
class QuantAttnDecoderSpec:
    """Decoder LSTM cell plus attention over the decoder's own input, with
    the context matmul wired into the gate sums.  The query is the cell's
    hidden state and the keys and context are its input frames, so the
    attention reads both grids from the cell (``qp_h`` and ``qp_x``).

    Construction rejects any stage whose bitwidth deviates from the
    mixed-precision layout, and weights that do not fit the cell.
    """

    cell: QuantLstmSpec
    w_q_q: np.ndarray
    w_k_q: np.ndarray
    v_q: np.ndarray
    qp_wq: QuantParams
    qp_wk: QuantParams
    qp_v: QuantParams
    qp_q: QuantParams
    qp_k: QuantParams
    qp_sum: QuantParams
    qp_tanh: QuantParams
    qp_e: QuantParams
    qp_exp_in: QuantParams
    qp_exp_out: QuantParams
    qp_alpha: QuantParams
    qp_s: QuantParams
    pwl_tanh: PwlTable
    pwl_exp: PwlTable
    w_s_q: np.ndarray
    qp_ws: QuantParams
    qp_ms: QuantParams

    def __post_init__(self):
        for name, bits in ATTN_BITS.items():
            if getattr(self, f"qp_{name}").bitwidth != bits:
                raise ValueError(f"stage {name!r} must be {bits}-bit")
        if self.qp_exp_in.max != 0.0:
            raise ValueError("exp input range must end at 0 (max-shifted alignments)")
        if self.qp_alpha.min > 0.0 or self.qp_alpha.max < 1.0:
            raise ValueError("attention weights must be representable over [0, 1]")
        check_dtype(np.uint8, w_q_q=self.w_q_q, w_k_q=self.w_k_q, v_q=self.v_q, w_s_q=self.w_s_q)
        check_accumulator(tuple(w.shape[-1] for w in (self.w_q_q, self.w_k_q, self.v_q, self.w_s_q)))
        cell = self.cell
        m, n, m_att = cell.hidden_size, cell.input_size, self.v_q.shape[-1]
        shapes = {"w_q": (self.w_q_q, (m_att, m)), "w_k": (self.w_k_q, (m_att, n)), "w_s": (self.w_s_q, (4 * m, n))}
        for name, (w, want) in shapes.items():
            if w.shape != want:
                raise ValueError(f"{name} has shape {w.shape}, not {want}, in a {m}-unit decoder on {n} inputs")
        self.m_q = saturating_multiplier(self.qp_wq.scale * cell.qp_h.scale / self.qp_q.scale)
        self.m_k = saturating_multiplier(self.qp_wk.scale * cell.qp_x.scale / self.qp_k.scale)
        self.m_q2sum = term_multiplier("sum", self.qp_q.scale / self.qp_sum.scale, 255)
        self.m_k2sum = term_multiplier("sum", self.qp_k.scale / self.qp_sum.scale, 255)
        self.m_e = saturating_multiplier(self.qp_v.scale * self.qp_tanh.scale / self.qp_e.scale)
        self.m_shift = saturating_multiplier(self.qp_e.scale / self.qp_exp_in.scale)
        self.m_alpha = saturating_multiplier(1.0 / self.qp_alpha.scale)
        self.m_ctx = saturating_multiplier(self.qp_alpha.scale * cell.qp_x.scale / self.qp_s.scale)
        self.m_ms = saturating_multiplier(self.qp_ws.scale * self.qp_s.scale / self.qp_ms.scale)
        self.m_ms2sig = term_multiplier("pre_sig", self.qp_ms.scale / cell.qp_pre_sig.scale, 255)
        self.m_ms2j = term_multiplier("pre_j", self.qp_ms.scale / cell.qp_pre_j.scale, 255)
        self.pwl_tanh.check_grids("pwl_tanh", self.qp_sum, self.qp_tanh)
        self.pwl_exp.check_grids("pwl_exp", self.qp_exp_in, self.qp_exp_out)

    @classmethod
    def from_float(
        cls,
        cell_w: LstmWeights,
        attn_w: AttentionWeights,
        ranges: dict,
        *,
        qp_x: QuantParams,
        pieces: int = 16,
        cell_bits: int = 8,
        gate_bits: int = 8,
    ) -> "QuantAttnDecoderSpec":
        cell = QuantLstmSpec.from_float(
            cell_w, ranges, cell_bits=cell_bits, gate_bits=gate_bits, pieces=pieces, qp_x=qp_x
        )
        # exp sees max-shifted alignments, non-positive by construction; exp
        # output and attention weights cover their analytic tops (exp(0) = 1
        # after the shift; weights live in [0, 1]).  A NaN bound stays NaN.
        r = {**sub_ranges(ranges, "attn"), "alpha": (0.0, 1.0)}
        r["exp_in"] = (min(r["exp_in"][0], -1e-6), 0.0)
        r["exp_out"] = (0.0, max(r["exp_out"][1], 1.0))
        qps = {}
        for stage in ATTN_STAGES:
            name = "s" if stage == "ctx" else stage
            qps[f"qp_{name}"] = stage_qparams(r, stage, ATTN_BITS[name])
        with stage_errors("tanh"):
            pwl_tanh = build_pwl("tanh", qps["qp_sum"], qps["qp_tanh"], pieces)
        with stage_errors("exp_out"):
            pwl_exp = build_pwl("exp", qps["qp_exp_in"], qps["qp_exp_out"], pieces)
        w_q_q, qp_wq = quantize_weights(attn_w.w_q)
        w_k_q, qp_wk = quantize_weights(attn_w.w_k)
        v_q, qp_v = quantize_weights(attn_w.v)
        w_s_q, qp_ws = quantize_weights(attn_w.w_s)
        return cls(
            cell=cell, w_q_q=w_q_q, w_k_q=w_k_q, v_q=v_q, qp_wq=qp_wq, qp_wk=qp_wk, qp_v=qp_v,
            pwl_tanh=pwl_tanh, pwl_exp=pwl_exp, w_s_q=w_s_q, qp_ws=qp_ws,
            qp_ms=stage_qparams(ranges, "ms", 8), **qps,
        )


class AttentionConsts:
    """Run-time constants of an attention decoder, built once from its
    :class:`QuantAttnDecoderSpec` (by ``runtime.engine``, with its model):
    the centred weights, the kernels' :class:`~qlstm.quant.Rescale` stages,
    the zero points they subtract, the grids that the tanh and exp gathers
    read, which ``grid`` maps each PWL table to, and the constants of the
    context injection.
    """

    def __init__(self, dec: QuantAttnDecoderSpec, grid):
        cell, m = dec.cell, dec.cell.hidden_size
        weights = ((dec.w_q_q, dec.qp_wq), (dec.w_k_q, dec.qp_wk), (dec.v_q, dec.qp_v), (dec.w_s_q, dec.qp_ws))
        self.w_q, self.w_k, self.v, self.w_s = (centred(w, qp) for w, qp in weights)
        self.tanh, self.exp = grid(dec.pwl_tanh), grid(dec.pwl_exp)
        # the query and keys stay centred for the pre-tanh sum
        zp_q, zp_k = dec.qp_q.zero_point, dec.qp_k.zero_point
        self.rq_q = Rescale.of(dec.m_q, 0, -zp_q, 255 - zp_q)
        self.rq_k = Rescale.of(dec.m_k, 0, -zp_k, 255 - zp_k)
        self.rs_k2sum = Rescale.of(dec.m_k2sum, dec.qp_sum.zero_point)  # unclamped: the sum saturates
        self.m_q2sum, self.sum_top = dec.m_q2sum, dec.qp_sum.qmax
        self.rq_e = Rescale.of(dec.m_e, dec.qp_e.zero_point, 0, dec.qp_e.qmax)
        self.rq_shift = Rescale.of(dec.m_shift, dec.qp_exp_in.zero_point, 0, dec.qp_exp_in.qmax)
        self.rq_alpha = Rescale.of(dec.m_alpha, dec.qp_alpha.zero_point, 0, dec.qp_alpha.qmax)
        self.rq_ctx = Rescale.of(dec.m_ctx, dec.qp_s.zero_point, 0, dec.qp_s.qmax)
        # zero points as signed numpy scalars, so unsigned storage minus one is signed
        qps = (cell.qp_h, cell.qp_x, dec.qp_s, dec.qp_tanh)
        self.zp_h, self.zp_enc, self.zp_s, self.zp_tanh = (np.int32(qp.zero_point) for qp in qps)
        self.zp_exp_out, self.zp_alpha = np.int64(dec.qp_exp_out.zero_point), dec.qp_alpha.zero_point
        self.rq_ms = Rescale.of(dec.m_ms, 0, -dec.qp_ms.zero_point, 255 - dec.qp_ms.zero_point)
        # the formed preactivations (multiplier 1) plus the context term, on each row's gate-sum grid
        terms = (_rows((ScaledMultiplier(1, 0), 4 * m)), _rows(*_gate_blocks(m, dec.m_ms2sig, dec.m_ms2j)))
        top = _rows(*_gate_blocks(m, cell.qp_pre_sig.qmax, cell.qp_pre_j.qmax))
        self.rs_ms = Rescale.of(np.stack(terms), 0, 0, top)


def softmax_int(e: np.ndarray, a: AttentionConsts) -> np.ndarray:
    """Integer softmax: max-shift, PWL exp, 32-bit denominator, rounded division.

    ``e`` holds raw alignments on the spec's ``qp_e``; returns the raw int64
    attention weights on its ``qp_alpha``.  The max-shift's requantize
    clamps onto the exp input grid, so the PWL exp is one gather from its
    table.
    """
    floatguard.note(e)
    data = e.astype(np.int64)  # signed, so the max-shift cannot wrap
    d_exp = a.exp[requantize_scaled(data - data.max(), a.rq_shift)] - a.zp_exp_out
    return divide_round(d_exp, max(int(d_exp.sum()), 1), a.rq_alpha)


def softmax_int_exact(q_e, spec: QuantAttnDecoderSpec) -> np.ndarray:
    data = [int(v) for v in np.asarray(q_e).ravel()]
    top = max(data)
    q_in = [
        requantize_exact(v - top, spec.m_shift, spec.qp_exp_in.zero_point, 16) for v in data
    ]
    q_exp = [eval_pwl_int_exact(q, spec.pwl_exp) for q in q_in]
    d_exp = [v - spec.qp_exp_out.zero_point for v in q_exp]
    denom = max(sum(d_exp), 1)
    return np.array(
        [
            divide_round_exact(v * spec.m_alpha.mantissa, denom, spec.m_alpha.shift, spec.qp_alpha.zero_point, 8)
            for v in d_exp
        ],
        dtype=np.int64,
    )


class AttentionKeys(NamedTuple):
    """The attention operands that depend on the encoder states only."""

    enc_diff: np.ndarray  # (T, m_enc) int32: centred encoder states
    # the pre-tanh sum's stage: the query term's multiplier, and as its (T, m_att)
    # zero point the rescaled key terms plus the sum's zero point
    sum_stage: Rescale


def attention_keys(enc: np.ndarray, a: AttentionConsts) -> AttentionKeys:
    """Project the raw encoder states (``(T, n)`` storage on the cell's
    ``qp_x``) through ``w_k`` once per sequence.

    The pre-tanh sum rounds the query and key terms on their own before
    adding them, so the rescaled key term is the same at every decoder step
    and serves as the offset of the query term's stage.
    """
    enc_diff = enc - a.zp_enc
    d_k = requantize_scaled(int_matmul(enc_diff, a.w_k.T), a.rq_k)
    offset = requantize_scaled(d_k, a.rs_k2sum)
    return AttentionKeys(enc_diff, Rescale.of(a.m_q2sum, offset, 0, a.sum_top))


def attention_int(h: np.ndarray, keys: AttentionKeys, a: AttentionConsts):
    """One decoder step of integer attention over :func:`attention_keys`'
    output.  ``h`` is the raw decoder state on the cell's ``qp_h``;
    returns the raw int64 (context, attention weights) on its ``qp_s`` and
    ``qp_alpha``."""
    d_q = requantize_scaled(int_matmul(a.w_q, h - a.zp_h), a.rq_q)
    pre = requantize_scaled(d_q, keys.sum_stage)
    acc_e = int_matmul(a.tanh[pre] - a.zp_tanh, a.v)
    alpha = softmax_int(requantize_scaled(acc_e, a.rq_e), a)
    acc_s = int_matmul(alpha - a.zp_alpha, keys.enc_diff)
    return requantize_scaled(acc_s, a.rq_ctx), alpha


def attention_int_exact(q_h_prev, q_enc, spec: QuantAttnDecoderSpec):
    h = np.asarray(q_h_prev, dtype=np.int64) - spec.cell.qp_h.zero_point
    enc_diff = np.asarray(q_enc, dtype=np.int64) - spec.cell.qp_x.zero_point
    acc_q = centred(spec.w_q_q, spec.qp_wq).astype(np.int64) @ h
    q_q = np.array([requantize_exact(int(a), spec.m_q, spec.qp_q.zero_point, 8) for a in acc_q])
    acc_k = enc_diff @ centred(spec.w_k_q, spec.qp_wk).T.astype(np.int64)
    q_k = np.array(
        [[requantize_exact(int(a), spec.m_k, spec.qp_k.zero_point, 8) for a in row] for row in acc_k]
    )
    d_q, d_k = q_q - spec.qp_q.zero_point, q_k - spec.qp_k.zero_point
    terms = [[[(int(a), spec.m_q2sum), (int(b), spec.m_k2sum)] for a, b in zip(d_q, row)] for row in d_k]
    pre = np.array([[rescale_add_exact(t, spec.qp_sum.zero_point, 16) for t in row] for row in terms])
    th = np.array([[eval_pwl_int_exact(int(q), spec.pwl_tanh) for q in row] for row in pre])
    acc_e = (th - spec.qp_tanh.zero_point) @ centred(spec.v_q, spec.qp_v).astype(np.int64)
    q_e = np.array([requantize_exact(int(a), spec.m_e, spec.qp_e.zero_point, 16) for a in acc_e])
    q_alpha = softmax_int_exact(q_e, spec)
    acc_s = (q_alpha - spec.qp_alpha.zero_point) @ enc_diff
    q_s = np.array([requantize_exact(int(a), spec.m_ctx, spec.qp_s.zero_point, 8) for a in acc_s])
    return q_s, q_alpha


def inject_context(pre: np.ndarray, s: np.ndarray, a: AttentionConsts) -> np.ndarray:
    """Add the rescaled context matmul to already-formed gate preactivations
    (the ``(1, 4m)`` output of :func:`lstm_gate_preacts_int` on the cell's
    one lane), saturating on each row's gate-sum grid.  ``s`` is the raw
    context on the spec's ``qp_s``, and ``a`` the decoder's constants."""
    d = requantize_scaled(int_matmul(a.w_s, s - a.zp_s), a.rq_ms)
    return rescale_add(np.concatenate((pre, d[None]))[None], a.rs_ms)


def inject_context_exact(pre_sig, pre_j, q_s, dec: QuantAttnDecoderSpec):
    s_diff = np.asarray(q_s, dtype=np.int64) - dec.qp_s.zero_point
    acc = centred(dec.w_s_q, dec.qp_ws).astype(np.int64) @ s_diff
    q_ms = [requantize_exact(int(a), dec.m_ms, dec.qp_ms.zero_point, 8) for a in acc]
    d = [v - dec.qp_ms.zero_point for v in q_ms]

    def with_context(pre, rows, m, qp):  # each formed gate sum plus its rounded context term, saturated
        sums = (int(p) + _shift_round_exact(d[r] * m.mantissa, m.shift) for p, r in zip(pre, rows))
        return np.array([max(0, min(v, qp.qmax)) for v in sums])

    cell = dec.cell
    sig_rows, j_rows = _gate_rows(cell.hidden_size)
    sig = with_context(pre_sig, sig_rows, dec.m_ms2sig, cell.qp_pre_sig)
    return sig, with_context(pre_j, j_rows, dec.m_ms2j, cell.qp_pre_j)


def attn_decoder_sequence_int(xs: np.ndarray, enc: np.ndarray, lanes: LstmLanes, a: AttentionConsts) -> np.ndarray:
    """The decoder, its cell the one lane of ``lanes`` and its attention and
    context injection ``a``, over the raw ``(T, n)`` storage ``xs`` on the
    cell's ``qp_x``, attending over the raw encoder states ``enc`` on the
    same grid; returns the raw ``(T, m)`` uint8 hidden states on the cell's
    ``qp_h``."""
    xs = np.atleast_2d(xs)
    h, c = lanes.initial_state()
    hs = np.empty((len(xs), lanes.width), dtype=np.uint8)
    keys = attention_keys(enc, a)
    for t in range(len(xs)):
        s, _ = attention_int(h[0], keys, a)
        pre = inject_context(lstm_gate_preacts_int(xs[t, None], h, lanes), s, a)
        h, c = lstm_apply_gates_int(pre, c, lanes)
        hs[t] = h[0]
    return hs


def attn_decoder_step_exact(q_x, q_h, q_c, q_enc, dec: QuantAttnDecoderSpec):
    q_s, q_alpha = attention_int_exact(q_h, q_enc, dec)
    pre_sig, pre_j = lstm_gate_preacts_exact(q_x, q_h, dec.cell)
    pre_sig, pre_j = inject_context_exact(pre_sig, pre_j, q_s, dec)
    h_new, c_new = lstm_apply_gates_exact(pre_sig, pre_j, q_c, dec.cell)
    return h_new, c_new, q_alpha


def attn_decoder_sequence_exact(q_xs, q_enc, dec: QuantAttnDecoderSpec) -> np.ndarray:
    data = np.atleast_2d(q_xs)
    cell = dec.cell
    q_h = np.full(cell.hidden_size, cell.qp_h.zero_point, dtype=np.int64)
    q_c = np.full(cell.hidden_size, cell.qp_c.zero_point, dtype=np.int64)
    hs = np.zeros((len(data), cell.hidden_size), dtype=np.int64)
    for t in range(len(data)):
        q_h, q_c, _ = attn_decoder_step_exact(data[t], q_h, q_c, q_enc, dec)
        hs[t] = q_h
    return hs


def attn_decoder_sequence_real(xs, enc_h, cell_w: LstmWeights, attn_w: AttentionWeights, record=_noop) -> np.ndarray:
    """The decoder's hidden states over one sequence or a stack, as
    :func:`~qlstm.lstm.lstm_sequence_real`; the keys are projected once."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    enc_h = np.atleast_2d(np.asarray(enc_h, dtype=np.float64))
    record_attn = scoped(record, "attn")
    k_proj = attention_keys_real(enc_h, attn_w, record_attn)
    state = LstmState.zeros((*xs.shape[:-2], cell_w.hidden_size))
    hs = np.zeros((*xs.shape[:-1], cell_w.hidden_size))
    for t in range(xs.shape[-2]):
        s, _ = attention_real(state.h, enc_h, k_proj, attn_w, record_attn)
        state = lstm_step_real(xs[..., t, :], state, cell_w, record, ms=matvec(attn_w.w_s, s))
        hs[..., t, :] = state.h
    return hs
