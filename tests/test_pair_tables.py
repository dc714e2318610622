"""Pair tables: each 8-bit two-operand stage as a gather from a load-time table.

Every table must equal the stage op it replaces, applied directly to the
whole 256 x 256 grid of its operands' storage values, on every lane or
instance of a stack; and the table path must be chosen exactly where every
operand is 8-bit.
"""
from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from conftest import lanes_of, observe, random_cell, random_lstm_config
from qlstm.lstm import LstmLanes, QuantLstmSpec, lstm_sequence_real
from qlstm.madnorm import MadNormQParams, MadNormRows
from qlstm.quant import (
    QuantParams,
    Rescale,
    combine_round,
    compute_qparams,
    divide_round,
    requantize_scaled,
    rescale_add,
)

GRID = np.arange(256, dtype=np.int64)


def qp8(exponent: int, zero_point: int, frac: float = 1.0) -> QuantParams:
    """An 8-bit grid of scale ``frac * 2^exponent``; only scale and zero point matter here."""
    return QuantParams(-1.0, 1.0, 8, frac * 2.0**exponent, zero_point)


zero_points = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
# exponents from -24 to 24 reach multipliers that saturate (>= 2^17), shift past 63 and shift <= 0
grids = st.builds(qp8, st.integers(-24, 24), zero_points, st.sampled_from([1.0, 1.37, 1.999]))


def lane_tables(lanes: LstmLanes, lane: int) -> tuple:
    """Lane ``lane``'s f*c, i*j and h tables as (256, 256) arrays."""
    at = slice(lane << 16, (lane + 1) << 16)
    return tuple(t[at].reshape(256, 256) for t in (lanes.fc_table, lanes.ij_table, lanes.h_table))


def cell_stages(s: QuantLstmSpec) -> tuple:
    """The arithmetic path's f*c and i*j terms and h over the whole grid of
    their operands' storage values, each stage applied once as the kernel
    applies it."""
    d_sig = (GRID - s.qp_sig.zero_point)[:, None]

    def product(qp, m, v):
        return requantize_scaled(d_sig * v, Rescale.of(m, 0, -qp.zero_point, qp.qmax - qp.zero_point))

    p_fc = product(s.qp_p_fc, s.m_fc, GRID - s.qp_c.zero_point)
    p_ij = product(s.qp_p_ij, s.m_ij, GRID - s.qp_tanh_j.zero_point)
    # each term through the rescale-add into c, its partner 0
    terms = Rescale.of(np.array([[s.m_fc2c], [s.m_ij2c]], dtype=object))
    zero = np.zeros_like(p_fc)
    fc = rescale_add(np.stack((p_fc, zero), axis=-2), terms)
    ij = rescale_add(np.stack((zero, p_ij), axis=-2), terms)
    # h over o and the cell tanh's input: the tanh gather, then the stage
    t_c = s.pwl_tanh_c.grid_out - s.qp_tanh_c.zero_point
    h = requantize_scaled(d_sig * t_c, Rescale.of(s.m_h, s.qp_h.zero_point, 0, 255))
    return fc, ij, h


@lru_cache(maxsize=None)
def base_spec() -> QuantLstmSpec:
    return random_lstm_config(np.random.default_rng(7), m=2, n=2)[2]


def with_grids(sig, tanh_j, tanh_c, c, p_fc, p_ij, h) -> QuantLstmSpec:
    """The base cell on the given stage grids; only the tables' stages read
    them.  Its PWL tables keep their integer forms on the new grids (all
    8-bit, so their grid outputs are unchanged)."""
    s = base_spec()
    try:
        grids = dict(qp_sig=sig, qp_tanh_j=tanh_j, qp_tanh_c=tanh_c, qp_c=c, qp_p_fc=p_fc, qp_p_ij=p_ij, qp_h=h)
        tables = dict(
            pwl_sig=replace(s.pwl_sig, out_qp=sig),
            pwl_tanh_j=replace(s.pwl_tanh_j, out_qp=tanh_j),
            pwl_tanh_c=replace(s.pwl_tanh_c, in_qp=c, out_qp=tanh_c),
        )
        return replace(s, **grids, **tables)
    except ValueError:  # a rescale-add term whose product would leave int64
        assume(False)


lane_grids = st.tuples(*[grids] * 7)


class TestLstmPairTables:
    @settings(max_examples=40)
    @given(lane_grids, lane_grids)
    @example((qp8(0, 0),) * 7, (qp8(0, 255),) * 7)  # multiplier 1 everywhere: shifts <= 0
    @example(  # products saturate; the terms' multipliers shift left
        (qp8(10, 255), qp8(10, 0), qp8(10, 128), qp8(-8, 0), qp8(-20, 255), qp8(-20, 0), qp8(-10, 37)),
        (qp8(-20, 3), qp8(-20, 250), qp8(-20, 0), qp8(20, 255), qp8(24, 0), qp8(24, 255), qp8(24, 0)),
    )
    def test_tables_equal_the_stage_ops_on_every_lane(self, a, b):
        specs = [with_grids(*a), with_grids(*b)]
        lanes = lanes_of(*specs)
        assert lanes.tabled
        for lane, s in enumerate(specs):
            for got, want in zip(lane_tables(lanes, lane), cell_stages(s)):
                assert np.array_equal(got, want)
            # the gate gather gives i, f and o as this lane's rows, j as a column
            sig, tanh_j = s.pwl_sig.grid_out.astype(np.int64), s.pwl_tanh_j.grid_out
            i, f, j, o = lanes.gate_off[lane].reshape(4, -1)[:, 0]
            rows = (sig << 8) + (lane << 16)
            for start in (i, f, o):
                assert np.array_equal(lanes.gate_rows[start : start + len(sig)], rows)
            assert np.array_equal(lanes.gate_rows[j : j + len(tanh_j)], tanh_j)
        assert lanes.h_table.dtype == np.uint8

    def test_tables_are_narrow(self):
        lanes = lanes_of(base_spec())
        assert lanes.fc_table.dtype == lanes.ij_table.dtype == np.int16
        assert sum(t.nbytes for t in (lanes.fc_table, lanes.ij_table, lanes.h_table)) == 5 << 16


def madnorm_stages(p: MadNormQParams) -> tuple:
    """x_hat over (mu, x) and y over (d, x_hat), each stage applied once on
    the whole grid as the arithmetic kernel applies it."""
    c = p._combo_xhat
    zp_xhat = p.qp_xhat.zero_point
    s = Rescale(c.mantissas, c.shift, 0, -zp_xhat, 255 - zp_xhat)
    dmu = (GRID - p.qp_mu.zero_point)[:, None]
    xhat = combine_round((GRID - p.qp_x.zero_point) * s.mant[0] + dmu * s.mant[1], s)
    y = divide_round(GRID - zp_xhat, np.maximum(GRID, 1)[:, None], Rescale.of(p._m_y, p.qp_y.zero_point, 0, 255))
    return xhat, y


def madnorm_params(x, mu, xhat, d, y) -> MadNormQParams:
    try:
        qp_d = QuantParams(0.0, 1.0, 8, d.scale, 0)  # a deviation grid starts at 0
        return MadNormQParams(qp_x=x, qp_mu=mu, qp_xhat=xhat, qp_d=qp_d, qp_y=y, hidden=4)
    except ValueError:
        assume(False)


norm_grids = st.tuples(*[grids] * 5)


class TestMadNormPairTables:
    @settings(max_examples=40)
    @given(norm_grids, norm_grids)
    @example((qp8(0, 0),) * 5, (qp8(0, 255),) * 5)
    @example(  # the output multiplier shifts left; then one that shifts past 63
        (qp8(0, 255), qp8(3, 0), qp8(-6, 128), qp8(-20, 0), qp8(-24, 7)),
        (qp8(0, 0), qp8(0, 255), qp8(-4, 0), qp8(20, 0), qp8(24, 255)),
    )
    def test_tables_equal_the_stage_ops_on_every_instance(self, a, b):
        params = [madnorm_params(*a), madnorm_params(*b)]
        rows = MadNormRows(params)
        assert rows.tabled
        for i, p in enumerate(params):
            at = slice(i << 16, (i + 1) << 16)
            xhat, y = madnorm_stages(p)
            assert np.array_equal(rows.xhat_table[at].reshape(256, 256), xhat)
            got_y = rows.y_table[at].reshape(256, 256)
            assert np.array_equal(got_y, y)
            # row 0 is never read (q_d >= 1); it holds the guarded max(q_d, 1) = 1 row
            assert np.array_equal(got_y[0], got_y[1])
        assert rows.y_table.dtype == np.uint8


def madnorm_cell(cell_bits: int) -> QuantLstmSpec:
    return random_lstm_config(np.random.default_rng(43), cell_bits=cell_bits, norm=True, m=3, n=2)[2]


class TestPathChoice:
    def test_8bit_cells_carry_tables(self):
        lanes = lanes_of(madnorm_cell(8))
        assert lanes.tabled and len(lanes.fc_table) == len(lanes.h_table) == 1 << 16
        assert not hasattr(lanes, "rq_prod")
        assert lanes.norm_xh.tabled and lanes.norm_c.tabled
        assert len(lanes.norm_xh.xhat_table) == len(lanes.norm_xh.y_table) == 2 << 16

    def test_16bit_cells_keep_the_arithmetic(self):
        lanes = lanes_of(madnorm_cell(16))
        assert not lanes.tabled and not hasattr(lanes, "fc_table")
        # the matmul outputs stay 8-bit, so their MadNorms still gather
        assert lanes.norm_xh.tabled
        assert not lanes.norm_c.tabled and not hasattr(lanes.norm_c, "xhat_table")

    def test_mixed_lanes_keep_the_arithmetic(self):
        """A BiLSTM whose directions have 8- and 16-bit cells."""
        rng = np.random.default_rng(43)
        wf, wb = random_cell(rng, 3, 2), random_cell(rng, 3, 2)
        xs = rng.normal(0, 1, (6, 2))
        rf, rb = observe(lstm_sequence_real, xs, wf), observe(lstm_sequence_real, xs[::-1], wb)
        qp_x = compute_qparams(float(xs.min()), float(xs.max()), 8)
        qp_h = compute_qparams(min(rf["h"][0], rb["h"][0]), max(rf["h"][1], rb["h"][1]), 8)
        common = dict(qp_x=qp_x, qp_h=qp_h, pieces=6)
        fwd = QuantLstmSpec.from_float(wf, rf, **common)
        bwd = QuantLstmSpec.from_float(wb, rb, cell_bits=16, **common)
        mixed = lanes_of(fwd, bwd)  # as the BiLSTM's engine runs them
        assert not mixed.tabled and not hasattr(mixed, "fc_table")
        assert lanes_of(fwd, fwd).tabled

    def test_mixed_madnorm_instances_keep_the_arithmetic(self):
        p8 = MadNormQParams(qp8(0, 3), qp8(0, 3), qp8(0, 3), QuantParams(0.0, 1.0, 8, 1.0, 0), qp8(0, 3), hidden=4)
        p16 = replace(p8, qp_x=QuantParams(-1.0, 1.0, 16, 1.0, 9))
        assert MadNormRows([p8, p8]).tabled
        assert not MadNormRows([p16]).tabled and not MadNormRows([p8, p16]).tabled

