"""MadNorm: real reference, integer path vs exact oracle, distribution facts."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlstm.madnorm import MadNormQParams, MadNormRows, madnorm_int, madnorm_int_exact, madnorm_observe
from qlstm.quant import compute_qparams, dequantize, quantize

finite_vec = st.lists(st.floats(-100, 100), min_size=1, max_size=64).map(np.array)


def calibrated_params(vectors, hidden, input_bits=8):
    """Stage ranges observed on ``vectors`` via the float path."""
    ranges = {}

    def rec(name, v):
        v = np.asarray(v, dtype=np.float64)
        key = name.split(".")[-1]
        lo, hi = float(v.min()), float(v.max())
        if key in ranges:
            ranges[key] = (min(ranges[key][0], lo), max(ranges[key][1], hi))
        else:
            ranges[key] = (lo, hi)

    for x in vectors:
        madnorm_observe(np.asarray(x, dtype=np.float64), rec, "n")
        rec("n.x", x)
    return MadNormQParams.from_ranges(ranges, compute_qparams(*ranges["x"], input_bits), hidden)


def madnorm_one(q_x, p):
    """The integer kernel on one vector, as the one-row stack of ``p``."""
    return madnorm_int(np.asarray(q_x, dtype=np.int64)[None], MadNormRows([p]))[0]


def madnorm_real(x):
    """The float path's MadNorm of ``x``, its stage reports dropped."""
    return madnorm_observe(x, lambda name, value: None, "n")


class TestMadNormReal:
    def test_hand_example(self):
        assert np.allclose(madnorm_real([1.0, 2.0, 3.0]), [-1.5, 0.0, 1.5])

    def test_constant_vector(self):
        assert np.array_equal(madnorm_real([2.5] * 5), np.zeros(5))

    @given(finite_vec, st.floats(-8, 8).filter(lambda c: abs(c) > 1e-3))
    def test_scale_equivariance(self, x, c):
        got = madnorm_real(c * x)
        want = np.sign(c) * madnorm_real(x)
        assert np.allclose(got, want, atol=1e-9)

    @given(finite_vec)
    def test_zero_mean(self, x):
        assert abs(madnorm_real(x).mean()) < 1e-9


class TestMadNormInt:
    def test_zero_point_vector_normalizes_to_zero_point(self):
        rng = np.random.default_rng(0)
        p = calibrated_params(rng.normal(0, 1, (20, 16)), 16)
        out = madnorm_one(np.full(16, p.qp_x.zero_point), p)
        assert np.all(out == p.qp_y.zero_point)

    def test_single_element_maps_to_zero_point(self):
        ranges = {"x": (-1, 1), "mu": (-1, 1), "xhat": (-0.5, 0.5), "d": (0, 0.5), "y": (-1, 1)}
        p = MadNormQParams.from_ranges(ranges, compute_qparams(*ranges["x"], 8), 1)
        assert madnorm_one(quantize(np.array([0.7]), p.qp_x), p)[0] == p.qp_y.zero_point

    def test_close_to_real_path(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(0, 2, (50, 64))
        p = calibrated_params(xs, 64)
        for x in xs[:10]:
            q_x = quantize(x, p.qp_x)
            got = dequantize(madnorm_one(q_x, p), p.qp_y)
            want = madnorm_real(dequantize(q_x, p.qp_x))
            assert np.max(np.abs(got - want)) <= 3 * p.qp_y.scale

    def test_bit_exact_vs_oracle_10k(self):
        # 10^4 random vectors split over H in {1, 2, 64, 1366}
        rng = np.random.default_rng(2)
        per_h = 2500
        for hidden in (1, 2, 64, 1366):
            if hidden == 1:
                p = MadNormQParams.from_ranges(
                    {"mu": (-2, 2), "xhat": (-1, 1), "d": (0, 1), "y": (-1, 1)}, compute_qparams(-2, 2, 8), 1
                )
            else:
                p = calibrated_params(rng.normal(0, 1.5, (30, hidden)), hidden)
            xs = rng.normal(0, 1.5, (per_h, hidden))
            rows = MadNormRows([p])
            for x in xs:
                q_x = quantize(x, p.qp_x)
                assert np.array_equal(madnorm_int(q_x[None], rows)[0], madnorm_int_exact(q_x, p))

    def test_16bit_input_variant(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(0, 3, (30, 32))
        p = calibrated_params(xs, 32, input_bits=16)
        for x in xs[:20]:
            q_x = quantize(x, p.qp_x)
            assert np.array_equal(madnorm_one(q_x, p), madnorm_int_exact(q_x, p))

    def test_oracle_rejects_wrong_width(self):
        rng = np.random.default_rng(6)
        p = calibrated_params(rng.normal(0, 1, (10, 8)), 8)
        with pytest.raises(ValueError, match="hidden dimension mismatch"):
            madnorm_int_exact(np.full(7, p.qp_x.zero_point), p)


def _qp(e: int, below: float, bits: int = 8):
    """qparams over a range of width 2^e, the fraction ``below`` of it under 0."""
    return compute_qparams(-below * 2.0**e, (1 - below) * 2.0**e, bits)


@st.composite
def madnorm_stack(draw):
    """``k`` MadNorm instances of one width, each with its own grids, and one
    input row per instance: random, constant, or pinned at 0 and qmax.

    The exponents keep every product inside int64, so the integer kernel has
    to agree with the exact oracle everywhere; ``y_left`` picks grids whose
    output multiplier has shift <= 0 (a left-shifted numerator).
    """
    hidden, k = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    params, rows = [], []
    for _ in range(k):
        below = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
        if draw(st.booleans()):  # y_left
            e_xhat, e_d, e_y = draw(st.integers(5, 6)), draw(st.integers(-12, -9)), draw(st.integers(-12, -9))
        else:
            e_xhat, e_d, e_y = draw(st.integers(-6, 6)), draw(st.integers(-12, 4)), draw(st.integers(-12, 4))
        p = MadNormQParams(
            qp_x=_qp(draw(st.integers(-6, 6)), below[0], draw(st.sampled_from([8, 16]))),
            qp_mu=_qp(draw(st.integers(-6, 6)), below[1]),
            qp_xhat=_qp(e_xhat, below[2]),
            qp_d=compute_qparams(0.0, 2.0**e_d, 8),
            qp_y=_qp(e_y, below[3]),
            hidden=hidden,
        )
        qmax = p.qp_x.qmax
        kind = draw(st.sampled_from(["random", "constant", "zero", "qmax", "extremes"]))
        if kind == "random":
            row = draw(st.lists(st.integers(0, qmax), min_size=hidden, max_size=hidden))
        elif kind == "constant":
            row = [draw(st.integers(0, qmax))] * hidden
        elif kind == "extremes":
            row = draw(st.lists(st.sampled_from([0, qmax]), min_size=hidden, max_size=hidden))
        else:
            row = [0 if kind == "zero" else qmax] * hidden
        params.append(p)
        rows.append(row)
    return params, np.array(rows, dtype=np.int64)


class TestStackedKernel:
    @given(madnorm_stack())
    def test_rows_equal_oracle(self, case):
        params, x = case
        out = madnorm_int(x, MadNormRows(params))
        assert out.shape == x.shape
        for row, q_x, p in zip(out, x, params):
            want = madnorm_int_exact(q_x, p)
            assert np.array_equal(row, want)
            # the one-row stack of the instance gives the same row
            assert np.array_equal(madnorm_one(q_x, p), want)

    def test_left_shifted_output_multiplier_and_guard(self):
        # shift <= 0 on the output multiplier, and constant rows whose
        # deviation rounds to 0 (the max(q_d, 1) guard)
        p = MadNormQParams(
            qp_x=_qp(2, 0.5), qp_mu=_qp(2, 0.5), qp_xhat=_qp(6, 0.5),
            qp_d=compute_qparams(0.0, 2.0**-12, 8), qp_y=_qp(-12, 0.5), hidden=5,
        )
        q = MadNormRows([p, p])
        assert p._m_y.shift <= 0
        x = np.array([[0, 255, 7, 128, 255], [9, 9, 9, 9, 9]], dtype=np.int64)
        out = madnorm_int(x, q)
        for row, q_x in zip(out, x):
            assert np.array_equal(row, madnorm_int_exact(q_x, p))

    @pytest.mark.parametrize("e_y", [30, 34, 40, 50])
    def test_right_shifted_output_multiplier_rounds_to_zero(self, e_y):
        # an output range 2^e_y wide gives the output multiplier shift 53 to 73;
        # from shift 56 on, the divisor den << shift would wrap int64
        p = MadNormQParams(
            qp_x=_qp(1, 0.5), qp_mu=_qp(1, 0.5), qp_xhat=_qp(1, 0.5),
            qp_d=compute_qparams(0.0, 1.0, 8), qp_y=_qp(e_y + 1, 0.5), hidden=4,
        )
        assert p._m_y.shift >= 53
        x = np.array([[0, 255, 7, 128], [255, 0, 0, 0]], dtype=np.int64)
        out = madnorm_int(x, MadNormRows([p, p]))
        for row, q_x in zip(out, x):
            assert np.array_equal(row, madnorm_int_exact(q_x, p))

    def test_rows_must_share_the_hidden_dimension(self):
        ranges = {"x": (-1, 1), "mu": (-1, 1), "xhat": (-1, 1), "d": (0, 1), "y": (-1, 1)}
        a = MadNormQParams.from_ranges(ranges, compute_qparams(*ranges["x"], 8), 4)
        with pytest.raises(ValueError, match="hidden dimension"):
            MadNormRows([a, replace(a, hidden=5)])
        with pytest.raises(ValueError, match="hidden dimension mismatch"):
            madnorm_int(np.zeros((1, 5), dtype=np.int64), MadNormRows([a]))


class TestDistributionFacts:
    """Monte-Carlo checks of the normalization scale's statistical behavior."""

    def test_gaussian_mad_to_std_ratio(self):
        rng = np.random.default_rng(123)
        x = rng.normal(0, 1, 10**6)
        ratio = np.abs(x - x.mean()).mean() / x.std()
        assert 0.788 <= ratio <= 0.808  # true value sqrt(2/pi) ~ 0.7979

    def test_scale_convergence(self):
        # |D_n - E|X - mu|| shrinks as n grows (median of 5 trials per n)
        dists = [
            (lambda r, n: r.normal(0, 1, n), np.sqrt(2 / np.pi)),
            (lambda r, n: r.uniform(0, 1, n), 0.25),
            (lambda r, n: r.exponential(1.0, n), 2 / np.e),
        ]
        for di, (sample, sigma) in enumerate(dists):
            meds = []
            for ni, n in enumerate((10**3, 10**4, 10**5, 10**6)):
                errs = []
                for trial in range(5):
                    r = np.random.default_rng([0, di, ni, trial])
                    x = sample(r, n)
                    errs.append(abs(np.abs(x - x.mean()).mean() - sigma))
                meds.append(float(np.median(errs)))
            assert all(meds[i + 1] < meds[i] for i in range(3)), (di, meds)

    def test_concentration_inequality(self):
        # Pr(|X - mu| / sigma_mad < k) >= 1 - 1/k (with 0.01 Monte-Carlo slack)
        dists = [
            lambda r, n: r.normal(0, 1, n),
            lambda r, n: r.uniform(0, 1, n),
            lambda r, n: r.exponential(1.0, n),
        ]
        n = 10**5
        for di, sample in enumerate(dists):
            r = np.random.default_rng([1, di])
            x = sample(r, n)
            mu = x.mean()
            sigma_mad = np.abs(x - mu).mean()
            for k in (2, 4, 8):
                p = np.mean(np.abs(x - mu) / sigma_mad < k)
                assert p >= 1 - 1 / k - 0.01, (di, k, p)
