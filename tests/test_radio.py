import numpy as np
import pytest

from mecsim.radio import RateTable, build_rate_table
from mecsim.scenario import SystemParams
from conftest import rate_scenario, synthetic_scenario


def test_effective_bandwidths():
    # a=0.5, W=20 MHz, downlink slot share 0.5, 5 SBS in the cell:
    # 0.5 * 20e6 * 0.5 / 15 Hz per SBS.
    params = SystemParams(a=0.5, t1_frac=0.5, m_sbs=5, n_mbs=1)
    scn = rate_scenario(params, r_dl=np.full((5, 1), 4.0),
                        r_ul=np.full((5, 1), 4.0), r_bh=np.full(5, 8.0))
    table = build_rate_table(scn)
    assert table.s_dl == pytest.approx(np.full(5, 0.5 * 20e6 * 0.5 / 15.0))
    assert table.s_ul == pytest.approx(table.s_dl)
    assert table.s_bh == pytest.approx(table.s_dl)


def test_unit_snr_gives_unit_spectral_efficiency():
    params = SystemParams(m_sbs=1, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[1.0]], r_ul=[[1.0]], r_bh=[1.0])
    table = build_rate_table(scn)
    assert table.r_dl[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert table.r_ul[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert table.r_bh[0] == pytest.approx(1.0, rel=1e-12)


def test_backhaul_floor_fraction():
    # a=0.5, r_dl=4, r_bh=8: floor = 0.5*4 / (0.5*8) = 0.5
    params = SystemParams(a=0.5, m_sbs=1, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[4.0]], r_ul=[[4.0]], r_bh=[8.0])
    table = build_rate_table(scn)
    assert table.eta_min[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_degenerate_splits_raise_with_demand_present():
    for bad in (dict(a=0.0), dict(a=1.0), dict(t1_frac=0.0), dict(t1_frac=1.0)):
        params = SystemParams(m_sbs=1, n_mbs=1, **bad)
        scn = synthetic_scenario([[1e-9]], [[1e-9]], [1e-8], params)
        with pytest.raises(ValueError, match="degenerate partition"):
            build_rate_table(scn)


def test_degenerate_split_allowed_without_affected_class():
    # All-backhaul split is fine when no high-rate devices exist.
    params = SystemParams(a=1.0, m_sbs=1, n_mbs=1)
    scn = synthetic_scenario(np.zeros((1, 0)), [[1e-9]], [1e-8], params)
    table = build_rate_table(scn)
    assert table.s_bh[0] == 0.0


def test_rates_are_linear_in_fraction():
    table = RateTable(
        s_dl=np.array([1e6]), s_ul=np.array([2e6]), s_bh=np.array([5e5]),
        r_dl=np.array([[2.0]]), r_ul=np.array([[3.0]]), r_bh=np.array([4.0]),
        eta_min=np.array([[0.1]]))
    rate_dl = table.s_dl[0] * table.r_dl[0, 0] * np.array([0.0, 1.0, 0.3, 0.6])
    assert rate_dl.tolist() == pytest.approx([0.0, 2e6, 6e5, 1.2e6])
    assert 0.5 * table.s_ul[0] * table.r_ul[0, 0] == pytest.approx(3e6)
    assert 0.25 * table.s_bh[0] * table.r_bh[0] == pytest.approx(5e5)


def test_rate_ordering_closure():
    # With eta >= floor * beta the backhaul never lags the access link.
    rng = np.random.default_rng(2)
    params = SystemParams(a=0.35, m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=rng.uniform(1, 20, (2, 4)),
                        r_ul=rng.uniform(1, 20, (2, 4)),
                        r_bh=rng.uniform(2, 25, 2))
    table = build_rate_table(scn)
    for _ in range(200):
        n = int(rng.integers(2))
        k = int(rng.integers(4))
        beta = float(rng.uniform(0, 1))
        eta = table.eta_min[n, k] * beta
        assert beta * table.s_dl[n] * table.r_dl[n, k] <= \
            eta * table.s_bh[n] * table.r_bh[n] * (1 + 1e-12)


def test_band_shares_partition_the_downlink_slot():
    params = SystemParams(a=0.3, t1_frac=0.4, m_sbs=4, n_mbs=1)
    scn = rate_scenario(params, r_dl=np.full((4, 1), 2.0),
                        r_ul=np.full((4, 1), 2.0), r_bh=np.full(4, 5.0))
    table = build_rate_table(scn)
    scale = 3 * 4 / (params.w_hz * (1 - params.t1_frac))
    assert (table.s_dl * scale + table.s_bh * scale) == pytest.approx(np.ones(4))


def test_per_cell_sbs_count_sets_the_share(desk_scenario):
    table = build_rate_table(desk_scenario)
    p = desk_scenario.params
    expected = p.a * p.w_hz * (1 - p.t1_frac) / (3 * p.m_sbs)
    assert table.s_dl == pytest.approx(np.full(desk_scenario.n_sbs, expected))


def test_rate_table_entries_positive(desk_scenario):
    table = build_rate_table(desk_scenario)
    for arr in (table.r_dl, table.r_ul, table.r_bh, table.s_dl, table.s_ul,
                table.s_bh, table.eta_min):
        assert np.all(arr > 0)
        assert np.all(np.isfinite(arr))
