"""Mean-absolute-deviation normalization: real reference and integer path.

MadNorm centres a vector on its mean and divides by the mean absolute
deviation instead of the standard deviation, which keeps the whole
operation inside integer arithmetic (sums, absolute values and fixed-point
rescales; no square root).  A LayerNorm reference is included for
comparison tests only and never runs on the integer path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import floatguard
from .quant import (
    MultiplierCombo,
    QuantParams,
    QuantTensor,
    ScaledMultiplier,
    _clamp_store,
    _shift_round_exact,
    combine_round,
    combine_round_exact,
    compute_qparams,
    dequantize,
    divide_round_exact,
    iround,
    quantize,
    requantize_exact,
    requantize_scaled,
)

_AFFINE_FRAC_BITS = 23


def layernorm_real(x, eps: float = 1e-5) -> np.ndarray:
    """Standardize across the hidden dimension (test reference only)."""
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean()
    return centred / np.sqrt((centred**2).mean() + eps)


def _dead_deviation(d, mu):
    # deviations at the rounding noise of the mean are treated as zero
    return d <= 1e-12 * np.abs(mu)


def madnorm_real(x) -> np.ndarray:
    """Centre on the mean and divide by the mean absolute deviation.

    Zero (or numerically-dead) deviation yields a zero vector, mirroring the
    integer path's guarded division.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean()
    centred = x - mu
    d = np.abs(centred).mean()
    if d == 0.0 or _dead_deviation(d, mu):
        return np.zeros_like(x)
    return centred / d


@dataclass
class MadNormQParams:
    """Per-stage quantization parameters for one integer MadNorm instance.

    The input may be 8- or 16-bit (the latter when normalizing a 16-bit cell
    state); every intermediate stage is 8-bit.  Optional affine parameters are
    folded in as one extra per-element requantize stage.
    """

    qp_x: QuantParams
    qp_mu: QuantParams
    qp_xhat: QuantParams
    qp_d: QuantParams
    qp_y: QuantParams
    hidden: int
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    qp_gamma: QuantParams | None = None
    qp_beta: QuantParams | None = None
    qp_y_raw: QuantParams | None = None

    _m_mu: ScaledMultiplier = field(init=False, repr=False)
    _combo_xhat: MultiplierCombo = field(init=False, repr=False)
    _m_d: ScaledMultiplier = field(init=False, repr=False)
    _m_y: ScaledMultiplier = field(init=False, repr=False)

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden dimension must be at least 1")
        for name in ("qp_mu", "qp_xhat", "qp_d", "qp_y"):
            if getattr(self, name).bitwidth != 8:
                raise ValueError(f"{name} must be 8-bit")
        if self.qp_d.min < 0 or self.qp_d.zero_point != 0:
            raise ValueError("deviation qparams must be non-negative with zero_point 0")
        h = self.hidden
        self._m_mu = ScaledMultiplier.from_real(self.qp_x.scale / (self.qp_mu.scale * h))
        self._combo_xhat = MultiplierCombo.from_reals(
            [self.qp_x.scale / self.qp_xhat.scale, -self.qp_mu.scale / self.qp_xhat.scale]
        )
        self._m_d = ScaledMultiplier.from_real(self.qp_xhat.scale / (self.qp_d.scale * h))
        qp_num = self.qp_y_raw if self.gamma is not None else self.qp_y
        self._m_y = ScaledMultiplier.from_real(self.qp_xhat.scale / (qp_num.scale * self.qp_d.scale))
        if self.gamma is not None:
            self._build_affine()

    def _build_affine(self):
        if self.qp_y_raw is None or self.qp_gamma is None or self.qp_beta is None:
            raise ValueError("affine form needs qp_y_raw, qp_gamma and qp_beta")
        gamma_q = np.asarray(quantize(self.gamma, self.qp_gamma))
        beta_q = np.asarray(quantize(self.beta, self.qp_beta))
        g = dequantize(gamma_q, self.qp_gamma) * (self.qp_y_raw.scale / self.qp_y.scale)
        b = dequantize(beta_q, self.qp_beta) / self.qp_y.scale + self.qp_y.zero_point
        e = _AFFINE_FRAC_BITS
        mants = np.zeros(self.hidden, dtype=np.int64)
        shifts = np.full(self.hidden, e, dtype=np.int64)
        for i in range(self.hidden):
            if g[i] != 0.0:
                sm = ScaledMultiplier.from_real(abs(float(g[i])))
                shift = min(max(sm.shift, e), e + 28)
                mant = int(iround(abs(float(g[i])) * 2.0**shift))
                mants[i] = mant if g[i] > 0 else -mant
                shifts[i] = shift
        self._aff_mants = mants
        self._aff_shifts = shifts
        self._aff_consts = iround(b * 2.0**e)

    @classmethod
    def from_ranges(cls, ranges: dict, hidden: int, input_bits: int = 8, gamma=None, beta=None) -> "MadNormQParams":
        """Build from observed per-stage (min, max) ranges.

        Expected keys: ``x``, ``mu``, ``xhat``, ``d``, ``y`` and, with affine
        parameters, ``y_raw``.
        """
        qp = {k: compute_qparams(*ranges[k], 8) for k in ("mu", "xhat", "d", "y")}
        kwargs = {}
        if gamma is not None:
            gamma = np.asarray(gamma, dtype=np.float64)
            beta = np.asarray(beta, dtype=np.float64) if beta is not None else np.zeros_like(gamma)
            kwargs = dict(
                gamma=gamma,
                beta=beta,
                qp_gamma=compute_qparams(gamma.min(), gamma.max(), 8),
                qp_beta=compute_qparams(beta.min(), beta.max(), 8),
                qp_y_raw=compute_qparams(*ranges["y_raw"], 8),
            )
        return cls(
            qp_x=compute_qparams(*ranges["x"], input_bits),
            qp_mu=qp["mu"],
            qp_xhat=qp["xhat"],
            qp_d=qp["d"],
            qp_y=qp["y"],
            hidden=hidden,
            **kwargs,
        )


def madnorm_observe(x: np.ndarray, record, prefix: str) -> np.ndarray:
    """Float-path MadNorm that reports every integer-stage value for calibration."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    d = np.abs(xhat).mean(axis=-1, keepdims=True)
    dead = (d == 0.0) | _dead_deviation(d, mu)
    y = np.where(dead, 0.0, xhat / np.where(dead, 1.0, d))
    record(f"{prefix}.mu", mu)
    record(f"{prefix}.xhat", xhat)
    record(f"{prefix}.d", d)
    record(f"{prefix}.y", y)
    return y


def madnorm_int(q_x: QuantTensor, p: MadNormQParams) -> QuantTensor:
    """Integer-only MadNorm over the last axis of ``q_x``.

    Mean, centred values and deviation each land on their own calibrated
    8-bit grid; the division is guarded by ``max(q_d, 1)``.
    """
    if q_x.qp != p.qp_x:
        raise ValueError("input qparams do not match the MadNorm configuration")
    data = q_x.data.astype(np.int64)
    floatguard.note(data)
    h = p.hidden
    if data.shape[-1] != h:
        raise ValueError("hidden dimension mismatch")

    acc_mu = data.sum(axis=-1, keepdims=True) - h * p.qp_x.zero_point
    q_mu = requantize_scaled(acc_mu, p._m_mu, p.qp_mu.zero_point, 8)

    dx = data - p.qp_x.zero_point
    dmu = q_mu.astype(np.int64) - p.qp_mu.zero_point
    q_xhat = combine_round([dx, dmu], p._combo_xhat, p.qp_xhat.zero_point, 8)

    dxhat = q_xhat.astype(np.int64) - p.qp_xhat.zero_point
    acc_d = np.abs(dxhat).sum(axis=-1, keepdims=True)
    q_d = requantize_scaled(acc_d, p._m_d, p.qp_d.zero_point, 8)

    den = np.maximum(q_d, 1)
    num = dxhat * np.int64(p._m_y.mantissa)
    if p.gamma is None:
        out = _divide_rows(num, den, p._m_y.shift, p.qp_y.zero_point, 8)
        return QuantTensor(out.astype(p.qp_y.storage_dtype), p.qp_y)

    q_raw = _divide_rows(num, den, p._m_y.shift, p.qp_y_raw.zero_point, 8)
    draw = q_raw.astype(np.int64) - p.qp_y_raw.zero_point
    raw = draw * p._aff_mants + (p._aff_consts << (p._aff_shifts - _AFFINE_FRAC_BITS))
    val = _shift_round_rows(raw, p._aff_shifts)
    out = np.minimum(np.maximum(val, 0), p.qp_y.qmax)
    floatguard.note(out)
    return QuantTensor(out.astype(p.qp_y.storage_dtype), p.qp_y)


def _divide_rows(num: np.ndarray, den: np.ndarray, shift: int, zp: int, bits: int) -> np.ndarray:
    """Rowwise divide_round where ``den`` broadcasts over the last axis."""
    floatguard.note(num, den)
    den_total = den.astype(np.int64) << np.int64(max(shift, 0))
    num = num.astype(np.int64)
    if shift < 0:
        num = num << np.int64(-shift)
    v = np.sign(num) * ((2 * np.abs(num) + den_total) // (2 * den_total))
    return _clamp_store(v, zp, bits)


def _shift_round_rows(raw: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    half = np.int64(1) << (shifts - 1)
    return np.sign(raw) * ((np.abs(raw) + half) >> shifts)


def madnorm_int_exact(q_x, p: MadNormQParams) -> np.ndarray:
    """Arbitrary-precision mirror of :func:`madnorm_int` (1-D input)."""
    data = [int(v) for v in np.asarray(q_x).ravel()]
    h = p.hidden
    if len(data) != h:
        raise ValueError("hidden dimension mismatch")

    acc_mu = sum(data) - h * p.qp_x.zero_point
    q_mu = requantize_exact(acc_mu, p._m_mu, p.qp_mu.zero_point, 8)

    dmu = q_mu - p.qp_mu.zero_point
    q_xhat = [
        combine_round_exact([v - p.qp_x.zero_point, dmu], p._combo_xhat, p.qp_xhat.zero_point, 8)
        for v in data
    ]

    dxhat = [v - p.qp_xhat.zero_point for v in q_xhat]
    acc_d = sum(abs(v) for v in dxhat)
    q_d = requantize_exact(acc_d, p._m_d, p.qp_d.zero_point, 8)
    den = max(q_d, 1)

    if p.gamma is None:
        out = [
            divide_round_exact(v * p._m_y.mantissa, den, p._m_y.shift, p.qp_y.zero_point, 8)
            for v in dxhat
        ]
        return np.array(out, dtype=np.int64)

    q_raw = [
        divide_round_exact(v * p._m_y.mantissa, den, p._m_y.shift, p.qp_y_raw.zero_point, 8)
        for v in dxhat
    ]
    out = []
    for i, v in enumerate(q_raw):
        shift = int(p._aff_shifts[i])
        raw = (v - p.qp_y_raw.zero_point) * int(p._aff_mants[i])
        raw += int(p._aff_consts[i]) << (shift - _AFFINE_FRAC_BITS)
        out.append(max(0, min(_shift_round_exact(raw, shift), p.qp_y.qmax)))
    return np.array(out, dtype=np.int64)
