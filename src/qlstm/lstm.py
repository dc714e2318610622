"""LSTM cells and sequence layers in three matched forms.

* a real-arithmetic reference (float64),
* an integer-only engine (8-bit matmuls, 32-bit accumulation, fixed-point
  rescaling, PWL activations),
* an exact-arithmetic fake-quantization oracle (``*_exact``) that mirrors
  the integer engine's dataflow with arbitrary-precision rounding and is
  the bit-exactness reference for it.

Weight layout stacks the four gates as contiguous row blocks in the order
(input, forget, candidate, output).  The three sigmoid gates share one
preactivation grid and one PWL instance; the candidate tanh and the cell
tanh each have their own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .madnorm import MadNormQParams, madnorm_int, madnorm_int_exact, madnorm_observe
from .pwl import PwlTable, build_pwl, eval_pwl_float_act, eval_pwl_int, eval_pwl_int_exact, sigmoid
from .quant import (
    DegenerateRangeError,
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    check_accumulator,
    compute_qparams,
    int_matmul,
    quantize_bias,
    quantize_weights,
    requantize_exact,
    requantize_scaled,
    rescale_add,
    rescale_add_exact,
)


def stage_qparams(ranges: dict, key: str, bitwidth: int) -> QuantParams:
    """compute_qparams for one named stage; errors carry the stage name."""
    try:
        return compute_qparams(*ranges[key], bitwidth)
    except KeyError:
        raise ValueError(f"stage {key!r} missing from calibration ranges") from None
    except DegenerateRangeError as e:
        raise DegenerateRangeError(f"stage {key!r}: {e}") from None


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
    def zeros(cls, m: int) -> "LstmState":
        return cls(np.zeros(m), np.zeros(m))


@dataclass
class QuantLstmState:
    h: QuantTensor
    c: QuantTensor


def _noop(name, value):
    pass


def _gate_rows(m: int):
    sig = np.concatenate([np.arange(0, 2 * m), np.arange(3 * m, 4 * m)])
    j = np.arange(2 * m, 3 * m)
    return sig, j


def lstm_step_real(x_t, state: LstmState, weights: LstmWeights, record=_noop) -> LstmState:
    """One exact real-arithmetic step (biases added to the preactivations)."""
    m = weights.hidden_size
    mx = weights.w_x @ np.asarray(x_t, dtype=np.float64) + weights.bias
    mh = weights.w_h @ np.asarray(state.h, dtype=np.float64)
    record("x", x_t)
    record("mx", mx)
    record("mh", mh)
    pre = mx + mh
    return _finish_step_real(pre, state, m, record)


def madnorm_lstm_step_real(x_t, state: LstmState, weights: LstmWeights, record=_noop) -> LstmState:
    """Real step with MadNorm on each matmul result and on the cell state."""
    m = weights.hidden_size
    mx = weights.w_x @ np.asarray(x_t, dtype=np.float64) + weights.bias
    mh = weights.w_h @ np.asarray(state.h, dtype=np.float64)
    record("x", x_t)
    record("mx", mx)
    record("mh", mh)
    nx = madnorm_observe(mx, record, "nx")
    nh = madnorm_observe(mh, record, "nh")
    pre = nx + nh
    return _finish_step_real(pre, state, m, record, norm_c=True)


def _finish_step_real(pre, state, m, record, norm_c=False):
    sig_rows, _ = _gate_rows(m)
    record("pre_sig", pre[sig_rows])
    record("pre_j", pre[2 * m : 3 * m])
    gates = sigmoid(pre[sig_rows])
    record("sig", gates)
    s_i, s_f, s_o = gates[:m], gates[m : 2 * m], gates[2 * m :]
    t_j = np.tanh(pre[2 * m : 3 * m])
    record("tanh_j", t_j)
    p_fc = s_f * np.asarray(state.c, dtype=np.float64)
    p_ij = s_i * t_j
    record("p_fc", p_fc)
    record("p_ij", p_ij)
    c_new = p_fc + p_ij
    record("c", c_new)
    tanh_in = madnorm_observe(c_new, record, "nc") if norm_c else c_new
    t_c = np.tanh(tanh_in)
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
        if self.qp_h.bitwidth != 8:
            raise ValueError("hidden state is always 8-bit")
        if self.qp_c.bitwidth not in (8, 16):
            raise ValueError("cell state must be 8- or 16-bit")
        if self.qp_p_fc.bitwidth != self.qp_c.bitwidth or self.qp_p_ij.bitwidth != self.qp_c.bitwidth:
            raise ValueError("elementwise product bitwidth follows the cell state")
        for qp in (self.qp_sig, self.qp_tanh_j, self.qp_tanh_c):
            if qp.bitwidth != 8:
                raise ValueError("PWL outputs are 8-bit")
        norms = (self.norm_x, self.norm_h, self.norm_c)
        if any(n is not None for n in norms) and not all(n is not None for n in norms):
            raise ValueError("MadNorm variant needs all three norm configurations")
        check_accumulator((self.input_size, self.w_h_q.shape[-1]), self.bias_q)
        m = self.hidden_size
        self._sig_rows, self._j_rows = _gate_rows(m)
        self.w_x_diff = self.w_x_q.astype(np.int32) - np.int32(self.qp_wx.zero_point)
        self.w_h_diff = self.w_h_q.astype(np.int32) - np.int32(self.qp_wh.zero_point)
        src_x = self.norm_x.qp_y if self.norm_x is not None else self.qp_mx
        src_h = self.norm_h.qp_y if self.norm_h is not None else self.qp_mh
        self.m_mx = ScaledMultiplier.from_real(self.qp_wx.scale * self.qp_x.scale / self.qp_mx.scale)
        self.m_mh = ScaledMultiplier.from_real(self.qp_wh.scale * self.qp_h.scale / self.qp_mh.scale)
        self.m_x2sig = ScaledMultiplier.from_real(src_x.scale / self.qp_pre_sig.scale)
        self.m_h2sig = ScaledMultiplier.from_real(src_h.scale / self.qp_pre_sig.scale)
        self.m_x2j = ScaledMultiplier.from_real(src_x.scale / self.qp_pre_j.scale)
        self.m_h2j = ScaledMultiplier.from_real(src_h.scale / self.qp_pre_j.scale)
        self.m_fc = ScaledMultiplier.from_real(self.qp_sig.scale * self.qp_c.scale / self.qp_p_fc.scale)
        self.m_ij = ScaledMultiplier.from_real(self.qp_sig.scale * self.qp_tanh_j.scale / self.qp_p_ij.scale)
        self.m_fc2c = ScaledMultiplier.from_real(self.qp_p_fc.scale / self.qp_c.scale)
        self.m_ij2c = ScaledMultiplier.from_real(self.qp_p_ij.scale / self.qp_c.scale)
        self.m_h = ScaledMultiplier.from_real(self.qp_sig.scale * self.qp_tanh_c.scale / self.qp_h.scale)

    @property
    def hidden_size(self) -> int:
        return self.w_x_q.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x_q.shape[1]

    @property
    def cell_bits(self) -> int:
        return self.qp_c.bitwidth

    @property
    def norm(self) -> bool:
        return self.norm_x is not None

    def zero_state(self) -> QuantLstmState:
        m = self.hidden_size
        return QuantLstmState(QuantTensor.zeros(m, self.qp_h), QuantTensor.zeros(m, self.qp_c))

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
        candidates: int | None = None,
    ) -> "QuantLstmSpec":
        m = weights.hidden_size
        qp_x = qp_x if qp_x is not None else stage_qparams(ranges, "x", 8)
        qp_h = qp_h if qp_h is not None else stage_qparams(ranges, "h", 8)
        qp_c = stage_qparams(ranges, "c", cell_bits)
        qp_mx = stage_qparams(ranges, "mx", 8)
        qp_mh = stage_qparams(ranges, "mh", 8)
        qp_pre_sig = stage_qparams(ranges, "pre_sig", gate_bits)
        qp_pre_j = stage_qparams(ranges, "pre_j", gate_bits)
        qp_sig = stage_qparams(ranges, "sig", 8)
        qp_tanh_j = stage_qparams(ranges, "tanh_j", 8)
        qp_p_fc = stage_qparams(ranges, "p_fc", cell_bits)
        qp_p_ij = stage_qparams(ranges, "p_ij", cell_bits)
        qp_tanh_c = stage_qparams(ranges, "tanh_c", 8)

        w_x_q, qp_wx = quantize_weights(weights.w_x)
        w_h_q, qp_wh = quantize_weights(weights.w_h)
        bias_q = quantize_bias(weights.bias, qp_wx.scale * qp_x.scale)

        norm_x = norm_h = norm_c = None
        if norm:
            norm_x = _norm_params(ranges, "nx", qp_mx, 4 * m)
            norm_h = _norm_params(ranges, "nh", qp_mh, 4 * m)
            norm_c = _norm_params(ranges, "nc", qp_c, m)
        tanh_c_in = norm_c.qp_y if norm else qp_c

        pwl_sig = build_pwl("sigmoid", qp_pre_sig, qp_sig, pieces, candidates=candidates)
        pwl_tanh_j = build_pwl("tanh", qp_pre_j, qp_tanh_j, pieces, candidates=candidates)
        pwl_tanh_c = build_pwl("tanh", tanh_c_in, qp_tanh_c, pieces, candidates=candidates)

        return cls(
            w_x_q=w_x_q,
            w_h_q=w_h_q,
            bias_q=bias_q,
            qp_wx=qp_wx,
            qp_wh=qp_wh,
            qp_x=qp_x,
            qp_h=qp_h,
            qp_c=qp_c,
            qp_mx=qp_mx,
            qp_mh=qp_mh,
            qp_pre_sig=qp_pre_sig,
            qp_pre_j=qp_pre_j,
            qp_sig=qp_sig,
            qp_tanh_j=qp_tanh_j,
            qp_p_fc=qp_p_fc,
            qp_p_ij=qp_p_ij,
            qp_tanh_c=qp_tanh_c,
            pwl_sig=pwl_sig,
            pwl_tanh_j=pwl_tanh_j,
            pwl_tanh_c=pwl_tanh_c,
            norm_x=norm_x,
            norm_h=norm_h,
            norm_c=norm_c,
        )


def _norm_params(ranges: dict, prefix: str, qp_in: QuantParams, hidden: int) -> MadNormQParams:
    return MadNormQParams(
        qp_x=qp_in,
        qp_mu=stage_qparams(ranges, f"{prefix}.mu", 8),
        qp_xhat=stage_qparams(ranges, f"{prefix}.xhat", 8),
        qp_d=stage_qparams(ranges, f"{prefix}.d", 8),
        qp_y=stage_qparams(ranges, f"{prefix}.y", 8),
        hidden=hidden,
    )


# ---------------------------------------------------------------------------
# integer path
# ---------------------------------------------------------------------------


def lstm_gate_preacts_int(q_x: QuantTensor, q_h: QuantTensor, spec: QuantLstmSpec):
    """Matmuls, per-output requantization and the rescaled gate sums.

    Returns the (input|forget|output) and candidate preactivations as
    QuantTensors under the gate-sum qparams.
    """
    if q_x.qp != spec.qp_x or q_h.qp != spec.qp_h:
        raise ValueError("input/state qparams do not match the cell spec")
    acc_x = int_matmul(spec.w_x_diff, q_x.diffs()) + spec.bias_q
    acc_h = int_matmul(spec.w_h_diff, q_h.diffs())
    q_mx = requantize_scaled(acc_x, spec.m_mx, spec.qp_mx.zero_point, 8)
    q_mh = requantize_scaled(acc_h, spec.m_mh, spec.qp_mh.zero_point, 8)
    if spec.norm:
        q_mx = madnorm_int(QuantTensor(q_mx.astype(np.uint8), spec.qp_mx), spec.norm_x).data.astype(np.int64)
        q_mh = madnorm_int(QuantTensor(q_mh.astype(np.uint8), spec.qp_mh), spec.norm_h).data.astype(np.int64)
        zx, zh = spec.norm_x.qp_y.zero_point, spec.norm_h.qp_y.zero_point
    else:
        zx, zh = spec.qp_mx.zero_point, spec.qp_mh.zero_point
    dx = q_mx - zx
    dh = q_mh - zh
    pre_sig = rescale_add(
        [(dx[spec._sig_rows], spec.m_x2sig), (dh[spec._sig_rows], spec.m_h2sig)],
        spec.qp_pre_sig.zero_point,
        spec.qp_pre_sig.bitwidth,
    )
    pre_j = rescale_add(
        [(dx[spec._j_rows], spec.m_x2j), (dh[spec._j_rows], spec.m_h2j)],
        spec.qp_pre_j.zero_point,
        spec.qp_pre_j.bitwidth,
    )
    return (
        QuantTensor(pre_sig.astype(spec.qp_pre_sig.storage_dtype), spec.qp_pre_sig),
        QuantTensor(pre_j.astype(spec.qp_pre_j.storage_dtype), spec.qp_pre_j),
    )


def lstm_apply_gates_int(
    pre_sig: QuantTensor,
    pre_j: QuantTensor,
    q_c: QuantTensor,
    spec: QuantLstmSpec,
    float_act: bool = False,
) -> QuantLstmState:
    """Activations, cell update and hidden output of the integer cell."""
    m = spec.hidden_size
    act = eval_pwl_float_act if float_act else eval_pwl_int
    gates = np.asarray(act(pre_sig.data, spec.pwl_sig), dtype=np.int64)
    t_j = np.asarray(act(pre_j.data, spec.pwl_tanh_j), dtype=np.int64)
    z_sig = spec.qp_sig.zero_point
    d_i, d_f, d_o = gates[:m] - z_sig, gates[m : 2 * m] - z_sig, gates[2 * m :] - z_sig

    acc_fc = d_f * (q_c.data.astype(np.int64) - spec.qp_c.zero_point)
    q_p_fc = requantize_scaled(acc_fc, spec.m_fc, spec.qp_p_fc.zero_point, spec.qp_p_fc.bitwidth)
    acc_ij = d_i * (t_j - spec.qp_tanh_j.zero_point)
    q_p_ij = requantize_scaled(acc_ij, spec.m_ij, spec.qp_p_ij.zero_point, spec.qp_p_ij.bitwidth)

    c_new = rescale_add(
        [(q_p_fc - spec.qp_p_fc.zero_point, spec.m_fc2c), (q_p_ij - spec.qp_p_ij.zero_point, spec.m_ij2c)],
        spec.qp_c.zero_point,
        spec.qp_c.bitwidth,
    )
    if spec.norm:
        tanh_src = madnorm_int(
            QuantTensor(c_new.astype(spec.qp_c.storage_dtype), spec.qp_c), spec.norm_c
        ).data
    else:
        tanh_src = c_new
    t_c = np.asarray(act(tanh_src, spec.pwl_tanh_c), dtype=np.int64)
    acc_h = d_o * (t_c - spec.qp_tanh_c.zero_point)
    h_new = requantize_scaled(acc_h, spec.m_h, spec.qp_h.zero_point, 8)
    return QuantLstmState(
        QuantTensor(h_new.astype(np.uint8), spec.qp_h),
        QuantTensor(c_new.astype(spec.qp_c.storage_dtype), spec.qp_c),
    )


def lstm_step_int(
    q_x: QuantTensor, state: QuantLstmState, spec: QuantLstmSpec, float_act: bool = False
) -> QuantLstmState:
    """One integer-only LSTM step."""
    pre_sig, pre_j = lstm_gate_preacts_int(q_x, state.h, spec)
    return lstm_apply_gates_int(pre_sig, pre_j, state.c, spec, float_act=float_act)


# ---------------------------------------------------------------------------
# exact-arithmetic oracle
# ---------------------------------------------------------------------------


def lstm_gate_preacts_exact(q_x, q_h, spec: QuantLstmSpec):
    acc_x = spec.w_x_diff.astype(np.int64) @ (np.asarray(q_x, dtype=np.int64) - spec.qp_x.zero_point)
    acc_x = acc_x + spec.bias_q
    acc_h = spec.w_h_diff.astype(np.int64) @ (np.asarray(q_h, dtype=np.int64) - spec.qp_h.zero_point)
    q_mx = np.array([requantize_exact(int(a), spec.m_mx, spec.qp_mx.zero_point, 8) for a in acc_x])
    q_mh = np.array([requantize_exact(int(a), spec.m_mh, spec.qp_mh.zero_point, 8) for a in acc_h])
    if spec.norm:
        q_mx = madnorm_int_exact(q_mx, spec.norm_x)
        q_mh = madnorm_int_exact(q_mh, spec.norm_h)
        zx, zh = spec.norm_x.qp_y.zero_point, spec.norm_h.qp_y.zero_point
    else:
        zx, zh = spec.qp_mx.zero_point, spec.qp_mh.zero_point
    pw = spec.qp_pre_sig
    pre_sig = np.array(
        [
            rescale_add_exact(
                [(int(q_mx[r]) - zx, spec.m_x2sig), (int(q_mh[r]) - zh, spec.m_h2sig)],
                pw.zero_point,
                pw.bitwidth,
            )
            for r in spec._sig_rows
        ]
    )
    pj = spec.qp_pre_j
    pre_j = np.array(
        [
            rescale_add_exact(
                [(int(q_mx[r]) - zx, spec.m_x2j), (int(q_mh[r]) - zh, spec.m_h2j)],
                pj.zero_point,
                pj.bitwidth,
            )
            for r in spec._j_rows
        ]
    )
    return pre_sig, pre_j


def lstm_apply_gates_exact(pre_sig, pre_j, q_c, spec: QuantLstmSpec):
    m = spec.hidden_size
    gates = np.array([eval_pwl_int_exact(int(q), spec.pwl_sig) for q in pre_sig])
    t_j = np.array([eval_pwl_int_exact(int(q), spec.pwl_tanh_j) for q in pre_j])
    z_sig = spec.qp_sig.zero_point
    d_i, d_f, d_o = gates[:m] - z_sig, gates[m : 2 * m] - z_sig, gates[2 * m :] - z_sig

    q_p_fc = np.array(
        [
            requantize_exact(
                int(d_f[k]) * (int(q_c[k]) - spec.qp_c.zero_point),
                spec.m_fc,
                spec.qp_p_fc.zero_point,
                spec.qp_p_fc.bitwidth,
            )
            for k in range(m)
        ]
    )
    q_p_ij = np.array(
        [
            requantize_exact(
                int(d_i[k]) * (int(t_j[k]) - spec.qp_tanh_j.zero_point),
                spec.m_ij,
                spec.qp_p_ij.zero_point,
                spec.qp_p_ij.bitwidth,
            )
            for k in range(m)
        ]
    )
    c_new = np.array(
        [
            rescale_add_exact(
                [
                    (int(q_p_fc[k]) - spec.qp_p_fc.zero_point, spec.m_fc2c),
                    (int(q_p_ij[k]) - spec.qp_p_ij.zero_point, spec.m_ij2c),
                ],
                spec.qp_c.zero_point,
                spec.qp_c.bitwidth,
            )
            for k in range(m)
        ]
    )
    tanh_src = madnorm_int_exact(c_new, spec.norm_c) if spec.norm else c_new
    t_c = np.array([eval_pwl_int_exact(int(q), spec.pwl_tanh_c) for q in tanh_src])
    h_new = np.array(
        [
            requantize_exact(
                int(d_o[k]) * (int(t_c[k]) - spec.qp_tanh_c.zero_point),
                spec.m_h,
                spec.qp_h.zero_point,
                8,
            )
            for k in range(m)
        ]
    )
    return h_new, c_new


def lstm_step_exact(q_x, q_h, q_c, spec: QuantLstmSpec):
    """Oracle step on integer arrays; returns (q_h', q_c')."""
    pre_sig, pre_j = lstm_gate_preacts_exact(q_x, q_h, spec)
    return lstm_apply_gates_exact(pre_sig, pre_j, q_c, spec)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def _time_order(n: int, direction: str):
    if direction == "forward":
        return range(n)
    if direction == "backward":
        return range(n - 1, -1, -1)
    raise ValueError(f"unknown direction {direction!r}")


def lstm_sequence_real(
    xs: np.ndarray,
    weights: LstmWeights,
    direction: str = "forward",
    record=_noop,
    norm: bool = False,
) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    step = madnorm_lstm_step_real if norm else lstm_step_real
    state = LstmState.zeros(weights.hidden_size)
    hs = np.zeros((len(xs), weights.hidden_size))
    for t in _time_order(len(xs), direction):
        state = step(xs[t], state, weights, record)
        hs[t] = state.h
    return hs


def lstm_sequence_int(
    q_xs: QuantTensor, spec: QuantLstmSpec, direction: str = "forward", float_act: bool = False
) -> QuantTensor:
    data = np.atleast_2d(q_xs.data)
    state = spec.zero_state()
    hs = np.zeros((len(data), spec.hidden_size), dtype=np.uint8)
    for t in _time_order(len(data), direction):
        state = lstm_step_int(QuantTensor(data[t], q_xs.qp), state, spec, float_act=float_act)
        hs[t] = state.h.data
    return QuantTensor(hs, spec.qp_h)


def lstm_sequence_exact(q_xs: np.ndarray, spec: QuantLstmSpec, direction: str = "forward") -> np.ndarray:
    data = np.atleast_2d(q_xs)
    q_h = np.full(spec.hidden_size, spec.qp_h.zero_point, dtype=np.int64)
    q_c = np.full(spec.hidden_size, spec.qp_c.zero_point, dtype=np.int64)
    hs = np.zeros((len(data), spec.hidden_size), dtype=np.int64)
    for t in _time_order(len(data), direction):
        q_h, q_c = lstm_step_exact(data[t], q_h, q_c, spec)
        hs[t] = q_h
    return hs


# ---------------------------------------------------------------------------
# bidirectional layers
# ---------------------------------------------------------------------------


@dataclass
class BiLstmSpec:
    """Forward and backward cells whose hidden outputs share one quantized grid."""

    fwd: QuantLstmSpec
    bwd: QuantLstmSpec

    def __post_init__(self):
        if self.fwd.qp_h != self.bwd.qp_h:
            raise ValueError("forward/backward hidden qparams must be shared for concatenation")
        if self.fwd.qp_x != self.bwd.qp_x:
            raise ValueError("forward/backward cells must consume the same input qparams")

    @property
    def qp_h(self) -> QuantParams:
        return self.fwd.qp_h

    @classmethod
    def from_float(
        cls,
        w_fwd: LstmWeights,
        w_bwd: LstmWeights,
        ranges_fwd: dict,
        ranges_bwd: dict,
        *,
        qp_x: QuantParams | None = None,
        **kwargs,
    ) -> "BiLstmSpec":
        if qp_x is None:
            lo = min(ranges_fwd["x"][0], ranges_bwd["x"][0])
            hi = max(ranges_fwd["x"][1], ranges_bwd["x"][1])
            qp_x = compute_qparams(lo, hi, 8)
        lo = min(ranges_fwd["h"][0], ranges_bwd["h"][0])
        hi = max(ranges_fwd["h"][1], ranges_bwd["h"][1])
        qp_h = compute_qparams(lo, hi, 8)
        fwd = QuantLstmSpec.from_float(w_fwd, ranges_fwd, qp_x=qp_x, qp_h=qp_h, **kwargs)
        bwd = QuantLstmSpec.from_float(w_bwd, ranges_bwd, qp_x=qp_x, qp_h=qp_h, **kwargs)
        return cls(fwd, bwd)


def bilstm_sequence_real(xs, w_fwd: LstmWeights, w_bwd: LstmWeights, record=_noop) -> np.ndarray:
    fwd = lstm_sequence_real(xs, w_fwd, "forward", record=lambda n, v: record(f"fwd.{n}", v))
    bwd = lstm_sequence_real(xs, w_bwd, "backward", record=lambda n, v: record(f"bwd.{n}", v))
    return np.concatenate([fwd, bwd], axis=-1)


def bilstm_sequence_int(q_xs: QuantTensor, spec: BiLstmSpec, float_act: bool = False) -> QuantTensor:
    fwd = lstm_sequence_int(q_xs, spec.fwd, "forward", float_act=float_act)
    bwd = lstm_sequence_int(q_xs, spec.bwd, "backward", float_act=float_act)
    return QuantTensor(np.concatenate([fwd.data, bwd.data], axis=-1), spec.qp_h)


def bilstm_sequence_exact(q_xs: np.ndarray, spec: BiLstmSpec) -> np.ndarray:
    fwd = lstm_sequence_exact(q_xs, spec.fwd, "forward")
    bwd = lstm_sequence_exact(q_xs, spec.bwd, "backward")
    return np.concatenate([fwd, bwd], axis=-1)
