"""Additive (Bahdanau-style) attention in real, integer and exact-oracle form.

Mixed-precision layout on the integer path: 8-bit weights and projection
outputs, 16-bit pre-tanh sums and alignments, 8-bit tanh/exp outputs, a
32-bit softmax denominator and 8-bit attention weights and context.  The
softmax inputs are max-shifted for numerical stability, which on the
integer path happens directly on the raw alignments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import floatguard
from .lstm import (
    LstmState,
    LstmWeights,
    QuantLstmSpec,
    QuantLstmState,
    _finish_step_real,
    lstm_apply_gates_exact,
    lstm_apply_gates_int,
    lstm_gate_preacts_exact,
    lstm_gate_preacts_int,
    stage_qparams,
)
from .pwl import PwlTable, build_pwl, eval_pwl_float_act, eval_pwl_int, eval_pwl_int_exact
from .quant import (
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    apply_multiplier,
    check_accumulator,
    compute_qparams,
    divide_round,
    divide_round_exact,
    int_matmul,
    quantize_weights,
    requantize_exact,
    requantize_scaled,
    rescale_add,
    rescale_add_exact,
    _shift_round_exact,
)


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


def _noop(name, value):
    pass


def attention_real(h_prev, enc_h, w: AttentionWeights, record=_noop):
    """Context vector and attention weights over the encoder states."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    enc_h = np.atleast_2d(np.asarray(enc_h, dtype=np.float64))
    q_proj = w.w_q @ h_prev
    k_proj = enc_h @ w.w_k.T
    record("q", q_proj)
    record("k", k_proj)
    pre = q_proj[None, :] + k_proj
    record("sum", pre)
    th = np.tanh(pre)
    record("tanh", th)
    e = th @ w.v
    record("e", e)
    shifted = e - e.max()
    record("exp_in", shifted)
    ex = np.exp(shifted)
    record("exp_out", ex)
    alpha = ex / ex.sum()
    record("alpha", alpha)
    s = alpha @ enc_h
    record("ctx", s)
    return s, alpha


@dataclass
class QuantAttentionSpec:
    """Quantized attention weights, per-stage qparams and PWL tables.

    Construction rejects any stage whose bitwidth deviates from the
    mixed-precision layout.
    """

    w_q_q: np.ndarray
    w_k_q: np.ndarray
    v_q: np.ndarray
    qp_wq: QuantParams
    qp_wk: QuantParams
    qp_v: QuantParams
    qp_h_dec: QuantParams
    qp_enc: QuantParams
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

    def __post_init__(self):
        ledger = {
            "qp_wq": 8, "qp_wk": 8, "qp_v": 8, "qp_h_dec": 8, "qp_enc": 8,
            "qp_q": 8, "qp_k": 8, "qp_sum": 16, "qp_tanh": 8, "qp_e": 16,
            "qp_exp_in": 16, "qp_exp_out": 8, "qp_alpha": 8, "qp_s": 8,
        }
        for name, bits in ledger.items():
            if getattr(self, name).bitwidth != bits:
                raise ValueError(f"{name} must be {bits}-bit")
        if self.qp_exp_in.max != 0.0:
            raise ValueError("exp input range must end at 0 (max-shifted alignments)")
        if self.qp_alpha.min > 0.0 or self.qp_alpha.max < 1.0:
            raise ValueError("attention weights must be representable over [0, 1]")
        check_accumulator((self.w_q_q.shape[-1], self.w_k_q.shape[-1], self.v_q.shape[-1]))
        self.w_q_diff = self.w_q_q.astype(np.int32) - np.int32(self.qp_wq.zero_point)
        self.w_k_diff = self.w_k_q.astype(np.int32) - np.int32(self.qp_wk.zero_point)
        self.v_diff = self.v_q.astype(np.int32) - np.int32(self.qp_v.zero_point)
        self.m_q = ScaledMultiplier.from_real(self.qp_wq.scale * self.qp_h_dec.scale / self.qp_q.scale)
        self.m_k = ScaledMultiplier.from_real(self.qp_wk.scale * self.qp_enc.scale / self.qp_k.scale)
        self.m_q2sum = ScaledMultiplier.from_real(self.qp_q.scale / self.qp_sum.scale)
        self.m_k2sum = ScaledMultiplier.from_real(self.qp_k.scale / self.qp_sum.scale)
        self.m_e = ScaledMultiplier.from_real(self.qp_v.scale * self.qp_tanh.scale / self.qp_e.scale)
        self.m_shift = ScaledMultiplier.from_real(self.qp_e.scale / self.qp_exp_in.scale)
        self.m_alpha = ScaledMultiplier.from_real(1.0 / self.qp_alpha.scale)
        self.m_ctx = ScaledMultiplier.from_real(self.qp_alpha.scale * self.qp_enc.scale / self.qp_s.scale)

    @classmethod
    def from_float(
        cls,
        w: AttentionWeights,
        ranges: dict,
        qp_h_dec: QuantParams,
        qp_enc: QuantParams,
        *,
        pieces_tanh: int = 16,
        pieces_exp: int = 16,
        candidates: int | None = None,
    ) -> "QuantAttentionSpec":
        w_q_q, qp_wq = quantize_weights(w.w_q)
        w_k_q, qp_wk = quantize_weights(w.w_k)
        v_q, qp_v = quantize_weights(w.v)
        qp_sum = stage_qparams(ranges, "sum", 16)
        # exp sees max-shifted alignments, which are non-positive by construction
        qp_exp_in = compute_qparams(min(ranges["exp_in"][0], -1e-6), 0.0, 16)
        qp_tanh = stage_qparams(ranges, "tanh", 8)
        # exp output and attention weights always cover their analytic tops
        # (exp(0) = 1 after the max shift; weights live in [0, 1])
        qp_exp_out = compute_qparams(0.0, max(ranges["exp_out"][1], 1.0), 8)
        pwl_tanh = build_pwl("tanh", qp_sum, qp_tanh, pieces_tanh, candidates=candidates)
        pwl_exp = build_pwl("exp", qp_exp_in, qp_exp_out, pieces_exp, candidates=candidates)
        return cls(
            w_q_q=w_q_q,
            w_k_q=w_k_q,
            v_q=v_q,
            qp_wq=qp_wq,
            qp_wk=qp_wk,
            qp_v=qp_v,
            qp_h_dec=qp_h_dec,
            qp_enc=qp_enc,
            qp_q=stage_qparams(ranges, "q", 8),
            qp_k=stage_qparams(ranges, "k", 8),
            qp_sum=qp_sum,
            qp_tanh=qp_tanh,
            qp_e=stage_qparams(ranges, "e", 16),
            qp_exp_in=qp_exp_in,
            qp_exp_out=qp_exp_out,
            qp_alpha=compute_qparams(0.0, 1.0, 8),
            qp_s=stage_qparams(ranges, "ctx", 8),
            pwl_tanh=pwl_tanh,
            pwl_exp=pwl_exp,
        )


def softmax_int(q_e: QuantTensor, spec: QuantAttentionSpec, float_act: bool = False) -> QuantTensor:
    """Integer softmax: max-shift, PWL exp, 32-bit denominator, rounded division."""
    if q_e.qp != spec.qp_e:
        raise ValueError("alignment qparams do not match the attention spec")
    data = q_e.data.astype(np.int64)
    floatguard.note(data)
    delta = data - data.max()
    q_in = requantize_scaled(delta, spec.m_shift, spec.qp_exp_in.zero_point, 16)
    act = eval_pwl_float_act if float_act else eval_pwl_int
    q_exp = np.asarray(act(q_in, spec.pwl_exp), dtype=np.int64)
    d_exp = q_exp - spec.qp_exp_out.zero_point
    denom = max(int(d_exp.sum()), 1)
    num = d_exp * np.int64(spec.m_alpha.mantissa)
    q_alpha = divide_round(num, denom, spec.m_alpha.shift, spec.qp_alpha.zero_point, 8)
    return QuantTensor(q_alpha.astype(np.uint8), spec.qp_alpha)


def softmax_int_exact(q_e, spec: QuantAttentionSpec) -> np.ndarray:
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


def attention_int(q_h_prev: QuantTensor, q_enc: QuantTensor, spec: QuantAttentionSpec, float_act: bool = False):
    """Integer attention: returns (context, attention weights) as QuantTensors."""
    if q_h_prev.qp != spec.qp_h_dec or q_enc.qp != spec.qp_enc:
        raise ValueError("attention input qparams do not match the spec")
    enc_diff = q_enc.diffs()
    acc_q = int_matmul(spec.w_q_diff, q_h_prev.diffs())
    q_q = requantize_scaled(acc_q, spec.m_q, spec.qp_q.zero_point, 8)
    acc_k = int_matmul(enc_diff, spec.w_k_diff.T)
    q_k = requantize_scaled(acc_k, spec.m_k, spec.qp_k.zero_point, 8)
    pre = rescale_add(
        [(q_q[None, :] - spec.qp_q.zero_point, spec.m_q2sum), (q_k - spec.qp_k.zero_point, spec.m_k2sum)],
        spec.qp_sum.zero_point,
        16,
    )
    act = eval_pwl_float_act if float_act else eval_pwl_int
    th = np.asarray(act(pre, spec.pwl_tanh), dtype=np.int64)
    acc_e = int_matmul((th - spec.qp_tanh.zero_point).astype(np.int32), spec.v_diff)
    q_e = requantize_scaled(acc_e, spec.m_e, spec.qp_e.zero_point, 16)
    q_alpha = softmax_int(QuantTensor(q_e.astype(np.uint16), spec.qp_e), spec, float_act=float_act)
    acc_s = int_matmul(q_alpha.diffs(), enc_diff)
    q_s = requantize_scaled(acc_s, spec.m_ctx, spec.qp_s.zero_point, 8)
    return QuantTensor(q_s.astype(np.uint8), spec.qp_s), q_alpha


def attention_int_exact(q_h_prev, q_enc, spec: QuantAttentionSpec):
    h = np.asarray(q_h_prev, dtype=np.int64) - spec.qp_h_dec.zero_point
    enc_diff = np.asarray(q_enc, dtype=np.int64) - spec.qp_enc.zero_point
    acc_q = spec.w_q_diff.astype(np.int64) @ h
    q_q = np.array([requantize_exact(int(a), spec.m_q, spec.qp_q.zero_point, 8) for a in acc_q])
    acc_k = enc_diff @ spec.w_k_diff.T.astype(np.int64)
    q_k = np.array(
        [[requantize_exact(int(a), spec.m_k, spec.qp_k.zero_point, 8) for a in row] for row in acc_k]
    )
    pre = np.array(
        [
            [
                rescale_add_exact(
                    [
                        (int(q_q[j]) - spec.qp_q.zero_point, spec.m_q2sum),
                        (int(q_k[i, j]) - spec.qp_k.zero_point, spec.m_k2sum),
                    ],
                    spec.qp_sum.zero_point,
                    16,
                )
                for j in range(q_q.shape[0])
            ]
            for i in range(q_k.shape[0])
        ]
    )
    th = np.array([[eval_pwl_int_exact(int(q), spec.pwl_tanh) for q in row] for row in pre])
    acc_e = (th - spec.qp_tanh.zero_point) @ spec.v_diff.astype(np.int64)
    q_e = np.array([requantize_exact(int(a), spec.m_e, spec.qp_e.zero_point, 16) for a in acc_e])
    q_alpha = softmax_int_exact(q_e, spec)
    acc_s = (q_alpha - spec.qp_alpha.zero_point) @ enc_diff
    q_s = np.array([requantize_exact(int(a), spec.m_ctx, spec.qp_s.zero_point, 8) for a in acc_s])
    return q_s, q_alpha


# ---------------------------------------------------------------------------
# attention decoder cell (context injected into the gate preactivations)
# ---------------------------------------------------------------------------


@dataclass
class QuantAttnDecoderSpec:
    """Decoder LSTM cell plus attention, with the context matmul wired into
    the gate sums."""

    cell: QuantLstmSpec
    attn: QuantAttentionSpec
    w_s_q: np.ndarray
    qp_ws: QuantParams
    qp_ms: QuantParams

    def __post_init__(self):
        if self.attn.qp_h_dec != self.cell.qp_h:
            raise ValueError("attention query qparams must match the decoder hidden state")
        if self.qp_ms.bitwidth != 8:
            raise ValueError("context matmul output must be 8-bit")
        check_accumulator((self.w_s_q.shape[-1],))
        self.w_s_diff = self.w_s_q.astype(np.int32) - np.int32(self.qp_ws.zero_point)
        self.m_ms = ScaledMultiplier.from_real(self.qp_ws.scale * self.attn.qp_s.scale / self.qp_ms.scale)
        self.m_ms2sig = ScaledMultiplier.from_real(self.qp_ms.scale / self.cell.qp_pre_sig.scale)
        self.m_ms2j = ScaledMultiplier.from_real(self.qp_ms.scale / self.cell.qp_pre_j.scale)

    @classmethod
    def from_float(
        cls,
        cell_w: LstmWeights,
        attn_w: AttentionWeights,
        ranges: dict,
        *,
        qp_x: QuantParams,
        qp_enc: QuantParams,
        pieces: int = 16,
        pieces_exp: int | None = None,
        cell_bits: int = 8,
        gate_bits: int = 8,
        candidates: int | None = None,
    ) -> "QuantAttnDecoderSpec":
        cell = QuantLstmSpec.from_float(
            cell_w, ranges, cell_bits=cell_bits, gate_bits=gate_bits, pieces=pieces,
            qp_x=qp_x, candidates=candidates,
        )
        attn_ranges = {k.split(".", 1)[1]: v for k, v in ranges.items() if k.startswith("attn.")}
        attn = QuantAttentionSpec.from_float(
            attn_w, attn_ranges, qp_h_dec=cell.qp_h, qp_enc=qp_enc,
            pieces_tanh=pieces, pieces_exp=pieces_exp if pieces_exp is not None else pieces,
            candidates=candidates,
        )
        w_s_q, qp_ws = quantize_weights(attn_w.w_s)
        return cls(
            cell=cell,
            attn=attn,
            w_s_q=w_s_q,
            qp_ws=qp_ws,
            qp_ms=stage_qparams(ranges, "ms", 8),
        )


def inject_context(preacts, q_s: QuantTensor, dec: QuantAttnDecoderSpec):
    """Add the rescaled context matmul to already-formed gate preactivations."""
    pre_sig, pre_j = preacts
    acc = int_matmul(dec.w_s_diff, q_s.diffs())
    q_ms = requantize_scaled(acc, dec.m_ms, dec.qp_ms.zero_point, 8)
    d = q_ms - dec.qp_ms.zero_point
    cell = dec.cell
    sig = np.minimum(
        np.maximum(pre_sig.data.astype(np.int64) + apply_multiplier(d[cell._sig_rows], dec.m_ms2sig), 0),
        cell.qp_pre_sig.qmax,
    )
    floatguard.note(sig)
    j = np.minimum(
        np.maximum(pre_j.data.astype(np.int64) + apply_multiplier(d[cell._j_rows], dec.m_ms2j), 0),
        cell.qp_pre_j.qmax,
    )
    return (
        QuantTensor(sig.astype(cell.qp_pre_sig.storage_dtype), cell.qp_pre_sig),
        QuantTensor(j.astype(cell.qp_pre_j.storage_dtype), cell.qp_pre_j),
    )


def inject_context_exact(pre_sig, pre_j, q_s, dec: QuantAttnDecoderSpec):
    s_diff = np.asarray(q_s, dtype=np.int64) - dec.attn.qp_s.zero_point
    acc = dec.w_s_diff.astype(np.int64) @ s_diff
    q_ms = [requantize_exact(int(a), dec.m_ms, dec.qp_ms.zero_point, 8) for a in acc]
    d = [v - dec.qp_ms.zero_point for v in q_ms]
    cell = dec.cell
    sig = np.array(
        [
            max(0, min(int(pre_sig[k]) + _shift_round_exact(d[r] * dec.m_ms2sig.mantissa, dec.m_ms2sig.shift), cell.qp_pre_sig.qmax))
            for k, r in enumerate(cell._sig_rows)
        ]
    )
    j = np.array(
        [
            max(0, min(int(pre_j[k]) + _shift_round_exact(d[r] * dec.m_ms2j.mantissa, dec.m_ms2j.shift), cell.qp_pre_j.qmax))
            for k, r in enumerate(cell._j_rows)
        ]
    )
    return sig, j


def attn_decoder_step_int(
    q_x: QuantTensor, state: QuantLstmState, q_enc: QuantTensor, dec: QuantAttnDecoderSpec,
    float_act: bool = False,
):
    q_s, q_alpha = attention_int(state.h, q_enc, dec.attn, float_act=float_act)
    preacts = lstm_gate_preacts_int(q_x, state.h, dec.cell)
    pre_sig, pre_j = inject_context(preacts, q_s, dec)
    new_state = lstm_apply_gates_int(pre_sig, pre_j, state.c, dec.cell, float_act=float_act)
    return new_state, q_alpha


def attn_decoder_sequence_int(
    q_xs: QuantTensor, q_enc: QuantTensor, dec: QuantAttnDecoderSpec, float_act: bool = False
) -> QuantTensor:
    data = np.atleast_2d(q_xs.data)
    state = dec.cell.zero_state()
    hs = np.zeros((len(data), dec.cell.hidden_size), dtype=np.uint8)
    for t in range(len(data)):
        state, _ = attn_decoder_step_int(
            QuantTensor(data[t], q_xs.qp), state, q_enc, dec, float_act=float_act
        )
        hs[t] = state.h.data
    return QuantTensor(hs, dec.cell.qp_h)


def attn_decoder_step_exact(q_x, q_h, q_c, q_enc, dec: QuantAttnDecoderSpec):
    q_s, q_alpha = attention_int_exact(q_h, q_enc, dec.attn)
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


def attn_decoder_step_real(x_t, state: LstmState, enc_h, cell_w: LstmWeights, attn_w: AttentionWeights, record=_noop):
    s, alpha = attention_real(state.h, enc_h, attn_w, record=lambda n, v: record(f"attn.{n}", v))
    m = cell_w.hidden_size
    mx = cell_w.w_x @ np.asarray(x_t, dtype=np.float64) + cell_w.bias
    mh = cell_w.w_h @ np.asarray(state.h, dtype=np.float64)
    ms = attn_w.w_s @ s
    record("x", x_t)
    record("mx", mx)
    record("mh", mh)
    record("ms", ms)
    pre = mx + mh + ms
    return _finish_step_real(pre, state, m, record), alpha


def attn_decoder_sequence_real(xs, enc_h, cell_w: LstmWeights, attn_w: AttentionWeights, record=_noop) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    state = LstmState.zeros(cell_w.hidden_size)
    hs = np.zeros((len(xs), cell_w.hidden_size))
    for t in range(len(xs)):
        state, _ = attn_decoder_step_real(xs[t], state, enc_h, cell_w, attn_w, record)
        hs[t] = state.h
    return hs

