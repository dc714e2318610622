"""MadNorm: real reference, integer path vs exact oracle, distribution facts."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlstm.madnorm import (
    MadNormQParams,
    layernorm_real,
    madnorm_int,
    madnorm_int_exact,
    madnorm_observe,
    madnorm_real,
)
from qlstm.quant import QuantTensor, compute_qparams, dequantize

finite_vec = st.lists(st.floats(-100, 100), min_size=1, max_size=64).map(np.array)


def calibrated_params(vectors, hidden, input_bits=8, gamma=None, beta=None):
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
        y = madnorm_observe(np.asarray(x, dtype=np.float64), rec, "n")
        if gamma is not None:
            rec("n.y_raw", y)
            rec("n.y", gamma * y + (beta if beta is not None else 0.0))
        rec("n.x", x)
    return MadNormQParams.from_ranges(ranges, hidden, input_bits=input_bits, gamma=gamma, beta=beta)


class TestLayerNormReal:
    def test_hand_example(self):
        out = layernorm_real([1.0, 2.0, 3.0])
        want = np.array([-np.sqrt(3 / 2), 0.0, np.sqrt(3 / 2)])
        assert np.allclose(out, want, atol=1e-4)

    def test_constant_vector(self):
        assert np.allclose(layernorm_real([5.0] * 8), 0.0, atol=1e-3)

    @given(finite_vec, st.floats(-50, 50))
    def test_shift_invariance(self, x, c):
        assert np.allclose(layernorm_real(x + c), layernorm_real(x), atol=1e-6)


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
        q_x = QuantTensor.zeros(16, p.qp_x)
        out = madnorm_int(q_x, p)
        assert np.all(out.data == p.qp_y.zero_point)

    def test_single_element_maps_to_zero_point(self):
        ranges = {"x": (-1, 1), "mu": (-1, 1), "xhat": (-0.5, 0.5), "d": (0, 0.5), "y": (-1, 1)}
        p = MadNormQParams.from_ranges(ranges, 1)
        q_x = QuantTensor.from_real(np.array([0.7]), p.qp_x)
        assert madnorm_int(q_x, p).data[0] == p.qp_y.zero_point

    def test_close_to_real_path(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(0, 2, (50, 64))
        p = calibrated_params(xs, 64)
        for x in xs[:10]:
            q_x = QuantTensor.from_real(x, p.qp_x)
            got = madnorm_int(q_x, p).dequantize()
            want = madnorm_real(dequantize(q_x.data, p.qp_x))
            assert np.max(np.abs(got - want)) <= 3 * p.qp_y.scale

    def test_bit_exact_vs_oracle_10k(self):
        # 10^4 random vectors split over H in {1, 2, 64, 1366}
        rng = np.random.default_rng(2)
        per_h = 2500
        for hidden in (1, 2, 64, 1366):
            if hidden == 1:
                p = MadNormQParams.from_ranges(
                    {"x": (-2, 2), "mu": (-2, 2), "xhat": (-1, 1), "d": (0, 1), "y": (-1, 1)}, 1
                )
            else:
                p = calibrated_params(rng.normal(0, 1.5, (30, hidden)), hidden)
            xs = rng.normal(0, 1.5, (per_h, hidden))
            for x in xs:
                q_x = QuantTensor.from_real(x, p.qp_x)
                got = madnorm_int(q_x, p).data.astype(np.int64)
                assert np.array_equal(got, madnorm_int_exact(q_x.data, p))

    def test_16bit_input_variant(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(0, 3, (30, 32))
        p = calibrated_params(xs, 32, input_bits=16)
        for x in xs[:20]:
            q_x = QuantTensor.from_real(x, p.qp_x)
            got = madnorm_int(q_x, p).data.astype(np.int64)
            assert np.array_equal(got, madnorm_int_exact(q_x.data, p))

    def test_affine_fold_bit_exact(self):
        rng = np.random.default_rng(4)
        hidden = 24
        gamma = rng.uniform(0.5, 1.5, hidden)
        beta = rng.uniform(-0.3, 0.3, hidden)
        xs = rng.normal(0, 1, (30, hidden))
        p = calibrated_params(xs, hidden, gamma=gamma, beta=beta)
        for x in xs[:20]:
            q_x = QuantTensor.from_real(x, p.qp_x)
            got = madnorm_int(q_x, p).data.astype(np.int64)
            assert np.array_equal(got, madnorm_int_exact(q_x.data, p))

    def test_rejects_mismatched_input_qparams(self):
        rng = np.random.default_rng(5)
        p = calibrated_params(rng.normal(0, 1, (10, 8)), 8)
        other = compute_qparams(-9.0, 9.0, 8)
        with pytest.raises(ValueError):
            madnorm_int(QuantTensor.zeros(8, other), p)

    def test_oracle_rejects_wrong_width(self):
        rng = np.random.default_rng(6)
        p = calibrated_params(rng.normal(0, 1, (10, 8)), 8)
        with pytest.raises(ValueError, match="hidden dimension mismatch"):
            madnorm_int_exact(np.full(7, p.qp_x.zero_point), p)


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
