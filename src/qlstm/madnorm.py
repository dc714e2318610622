"""Mean-absolute-deviation normalization: real reference and integer path.

MadNorm centres a vector on its mean and divides by the mean absolute
deviation instead of the standard deviation, which keeps the whole
operation inside integer arithmetic (sums, absolute values and fixed-point
rescales; no square root).  On an 8-bit input grid the centred values and
the division are gathers from pair tables built once per instance (see
:class:`MadNormRows`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import floatguard
from .quant import (
    MultiplierCombo,
    QuantParams,
    Rescale,
    check_int,
    combine_round,
    combine_round_exact,
    divide_round,
    divide_round_exact,
    narrowest,
    requantize_exact,
    requantize_scaled,
    saturating_multiplier,
    stage_qparams,
    tabulate,
    term_multiplier,
)


#: MadNorm's stages after its input, every one on an 8-bit grid
NORM_STAGES = ("mu", "xhat", "d", "y")


@dataclass
class MadNormQParams:
    """Per-stage quantization parameters for one integer MadNorm instance.

    The input may be 8- or 16-bit (the latter when normalizing a 16-bit cell
    state); every stage of :data:`NORM_STAGES` is 8-bit.
    """

    qp_x: QuantParams
    qp_mu: QuantParams
    qp_xhat: QuantParams
    qp_d: QuantParams
    qp_y: QuantParams
    hidden: int

    def __post_init__(self):
        check_int("hidden", self.hidden)
        if self.hidden < 1:
            raise ValueError("hidden dimension must be at least 1")
        for stage in NORM_STAGES:
            if getattr(self, f"qp_{stage}").bitwidth != 8:
                raise ValueError(f"stage {stage!r} must be 8-bit")
        if self.qp_d.min < 0 or self.qp_d.zero_point != 0:
            raise ValueError("deviation qparams must be non-negative with zero_point 0")
        h = self.hidden
        self._m_mu = saturating_multiplier(self.qp_x.scale / (self.qp_mu.scale * h))
        reals = [self.qp_x.scale / self.qp_xhat.scale, -self.qp_mu.scale / self.qp_xhat.scale]
        self._combo_xhat = MultiplierCombo.from_reals(reals)
        # the combo folds the shift of its larger term's multiplier into both terms
        term_multiplier("xhat", max(abs(v) for v in reals), self.qp_x.qmax)
        self._m_d = saturating_multiplier(self.qp_xhat.scale / (self.qp_d.scale * h))
        self._m_y = saturating_multiplier(self.qp_xhat.scale / (self.qp_y.scale * self.qp_d.scale))

    @classmethod
    def from_ranges(cls, ranges: dict, qp_x: QuantParams, hidden: int) -> "MadNormQParams":
        """Build on the input grid ``qp_x`` from the observed ``(min, max)``
        of every stage in :data:`NORM_STAGES`; errors name the stage."""
        return cls(qp_x=qp_x, hidden=hidden, **{f"qp_{s}": stage_qparams(ranges, s, 8) for s in NORM_STAGES})


def _noop(name, value):
    pass


def scoped(record, prefix: str):
    """``record`` with ``prefix.`` before every stage name it is given.

    A recorder with a ``view`` method (``runtime.CalibrationObserver``)
    returns its cached view, so recording through it builds no string per
    call; ``_noop`` stays itself and any other callable is wrapped.
    """
    if record is _noop:
        return _noop
    view = getattr(record, "view", None)
    if view is not None:
        return view(prefix)
    return lambda name, value: record(f"{prefix}.{name}", value)


def madnorm_observe(x: np.ndarray, record, prefix: str) -> np.ndarray:
    """Real MadNorm over the last axis; reports each integer stage's values.

    Zero deviation, or one at the rounding noise of the mean, yields zeros,
    like the integer path's guarded division.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    d = np.abs(xhat).mean(axis=-1, keepdims=True)
    dead = d <= 1e-12 * np.abs(mu)
    y = np.where(dead, 0.0, xhat / np.where(dead, 1.0, d))
    record = scoped(record, prefix)
    record("mu", mu)
    record("xhat", xhat)
    record("d", d)
    record("y", y)
    return y


class MadNormRows:
    """Constants of the integer MadNorm kernel for ``k`` stacked instances.

    Every constant is a ``(k, 1)`` column built once (the x_hat stage's
    mantissas a ``(k, 2)`` pair), so row ``r`` of a ``(k, h)`` input is
    normalized on instance ``r``'s grids with instance ``r``'s multipliers.

    ``tabled`` instances (every input grid 8-bit) also hold two pair
    tables, instance ``i``'s entry for the storage pair ``(a, b)`` at
    ``(i << 16) + (a << 8) + b``: ``xhat_table``, the centred x_hat at
    ``(mu, x)`` (the ``combine_round`` stage), and ``y_table``, the output
    at ``(d, x_hat)`` (the ``divide_round`` stage; its row 0 divides by
    ``max(0, 1)``, as the guard does).  Each is the stage's op called on
    every pair, so it is bit-exact by construction.  Resident: 192 KiB per
    instance (x_hat int16, y uint8).  A 16-bit input keeps the arithmetic.
    """

    def __init__(self, params):
        if len({p.hidden for p in params}) != 1:
            raise ValueError("stacked MadNorm instances must share the hidden dimension")
        h = self.hidden = params[0].hidden

        def col(f, dtype=np.int64):
            return np.array([[f(p)] for p in params], dtype=dtype)

        zp_x = col(lambda p: p.qp_x.zero_point)
        self.mu_off = h * zp_x
        zp_mu = col(lambda p: p.qp_mu.zero_point)
        self.mu = Rescale.of(col(lambda p: p._m_mu, object), 0, -zp_mu, 255 - zp_mu)
        # x_hat rounds (x - zp_x) * a + dmu * b once; both terms share the combo's shift
        zp_xhat = col(lambda p: p.qp_xhat.zero_point)
        combos = [p._combo_xhat for p in params]
        self.xhat = Rescale([c.mantissas for c in combos], [[c.shift] for c in combos], 0, -zp_xhat, 255 - zp_xhat)
        self.xhat_a, self.xhat_b = self.xhat.mant[:, :1], self.xhat.mant[:, 1:]
        self.xhat_off = zp_x * self.xhat_a
        # the lower bound 1 guards the division (qp_d's zero point is 0)
        self.d = Rescale.of(col(lambda p: p._m_d, object), 0, 1, 255)
        self.y = Rescale.of(col(lambda p: p._m_y, object), col(lambda p: p.qp_y.zero_point), 0, 255)
        self.tabled = all(p.qp_x.bitwidth == 8 for p in params)
        if self.tabled:
            # x_hat's and y's operands are 8-bit: each instance's stage, called on all
            # 2^16 storage pairs, is a table that the kernel gathers from at (a << 8) + b
            off = np.arange(len(params))[:, None] << 16
            zp_mu = col(lambda p: p.qp_mu.zero_point)
            raw = lambda a, b: b * self.xhat_a + ((a - zp_mu) * self.xhat_b - self.xhat_off)  # as in madnorm_int
            xhat = tabulate(lambda a, b: combine_round(raw(a, b), self.xhat))
            self.xhat_table, self.xhat_row = narrowest(xhat).ravel(), off + (zp_mu << 8)  # (mu, x)
            # the y table's row 0 divides by max(0, 1), as the guard does
            y = tabulate(lambda a, b: divide_round(b - zp_xhat, np.maximum(a, 1), self.y))
            self.y_table, self.y_row = y.astype(np.uint8).ravel(), off + zp_xhat  # (d, x_hat)


def madnorm_int(x: np.ndarray, r: MadNormRows) -> np.ndarray:
    """Integer-only MadNorm over the rows of a raw ``(k, h)`` int64 array.

    Row ``i`` of ``x`` lies on instance ``i``'s input grid (the caller
    checks the qparams); the result is the raw ``(k, h)`` output (uint8 from
    the tables, int64 from the arithmetic), row ``i`` on instance ``i``'s
    output grid.  Mean, centred values and deviation each land on their own
    calibrated 8-bit grid; the division is guarded by ``max(q_d, 1)``.
    """
    floatguard.note(x)
    if x.shape[-1] != r.hidden:
        raise ValueError("hidden dimension mismatch")
    dmu = requantize_scaled(x.sum(axis=-1, keepdims=True) - r.mu_off, r.mu)
    if r.tabled:
        dxhat = r.xhat_table[x + ((dmu << 8) + r.xhat_row)]
    else:
        dxhat = combine_round(x * r.xhat_a + (dmu * r.xhat_b - r.xhat_off), r.xhat)
    q_d = requantize_scaled(np.abs(dxhat).sum(axis=-1, keepdims=True), r.d)
    if r.tabled:
        return r.y_table[dxhat + ((q_d << 8) + r.y_row)]
    return divide_round(dxhat, q_d, r.y)


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

    out = [
        divide_round_exact(v * p._m_y.mantissa, den, p._m_y.shift, p.qp_y.zero_point, 8)
        for v in dxhat
    ]
    return np.array(out, dtype=np.int64)
