"""Shared fixtures: desk-scale seeded scenarios and hand-built synthetic ones.

Synthetic scenarios carry chosen channel gains (positions are dummies), which
lets tests pin exact rates, costs and delays without fighting the channel
draw.
"""

import numpy as np
import pytest

from mecsim.content import Catalog, build_demand, demand_rng
from mecsim.radio import REUSE, build_rate_table
from mecsim.scenario import Counts, Scenario, SystemParams, dbm_to_mw, \
    generate_scenario

DESK_STORAGE = 28e6   # partial caches: 5 of 20 files plus offload headroom


@pytest.fixture(scope="session")
def desk_scenario():
    return generate_scenario(SystemParams(seed=7), Counts(n_hrd=20, n_csd=20))


@pytest.fixture(scope="session")
def desk_demand(desk_scenario):
    catalog = Catalog.build(20, 0.6)
    return build_demand(catalog, desk_scenario.n_sbs, 20, 20,
                        demand_rng(7, 0.6), storage_bytes=DESK_STORAGE,
                        cache_policy="sampled")


def synthetic_scenario(gain_sbs_hrd, gain_sbs_csd, gain_mbs_sbs,
                       params: SystemParams | None = None) -> Scenario:
    """Scenario with chosen gains; one macrocell, dummy geometry."""
    gain_sbs_hrd = np.atleast_2d(np.asarray(gain_sbs_hrd, dtype=float))
    gain_sbs_csd = np.atleast_2d(np.asarray(gain_sbs_csd, dtype=float))
    gain_mbs_sbs = np.asarray(gain_mbs_sbs, dtype=float).reshape(-1)
    n_sbs = gain_mbs_sbs.size
    n_hrd = gain_sbs_hrd.shape[1] if gain_sbs_hrd.size else 0
    n_csd = gain_sbs_csd.shape[1] if gain_sbs_csd.size else 0
    if gain_sbs_hrd.size == 0:
        gain_sbs_hrd = np.zeros((n_sbs, 0))
    if gain_sbs_csd.size == 0:
        gain_sbs_csd = np.zeros((n_sbs, 0))
    if params is None:
        params = SystemParams(m_sbs=n_sbs, n_mbs=1)
    spread = np.arange(n_sbs, dtype=float)[:, None] * [37.0, 53.0] + 11.0
    return Scenario(
        params=params,
        mbs_pos=np.zeros((1, 2)),
        sbs_pos=spread,
        sbs_cell=np.zeros(n_sbs, dtype=np.int64),
        hrd_pos=np.ones((n_hrd, 2)) + np.arange(n_hrd)[:, None],
        hrd_cell=np.zeros(n_hrd, dtype=np.int64),
        csd_pos=2.0 * np.ones((n_csd, 2)) + np.arange(n_csd)[:, None],
        csd_cell=np.zeros(n_csd, dtype=np.int64),
        gain_sbs_hrd=gain_sbs_hrd,
        gain_sbs_csd=gain_sbs_csd,
        gain_mbs_sbs=gain_mbs_sbs,
        backhaul_mbs=np.zeros(n_sbs, dtype=np.int64),
    )


def gain_for_rate(params: SystemParams, n_sbs: int, rate_bits_hz: float,
                  link: str) -> float:
    """Channel gain making log2(1 + SNR) hit rate_bits_hz exactly."""
    noise_mw_hz = dbm_to_mw(params.noise_dbm_hz)
    if link in ("dl", "ul"):
        band = params.a * params.w_hz / (REUSE * n_sbs)
        power = dbm_to_mw(params.p_sbs_dbm if link == "dl" else params.p_md_dbm)
    elif link == "bh":
        band = (1.0 - params.a) * params.w_hz / (REUSE * n_sbs)
        power = dbm_to_mw(params.p_mbs_dbm)
    else:
        raise ValueError(link)
    snr = 2.0 ** rate_bits_hz - 1.0
    return snr * noise_mw_hz * band / power


def rate_scenario(params: SystemParams, r_dl, r_ul, r_bh) -> Scenario:
    """Synthetic scenario whose spectral efficiencies equal the given arrays.

    ``r_dl``/``r_ul`` are (n_sbs, n_dev) arrays of target bits/s/Hz;
    ``r_bh`` is (n_sbs,).
    """
    r_dl = np.atleast_2d(np.asarray(r_dl, dtype=float))
    r_ul = np.atleast_2d(np.asarray(r_ul, dtype=float))
    r_bh = np.asarray(r_bh, dtype=float).reshape(-1)
    n_sbs = r_bh.size
    g_hrd = np.array([[gain_for_rate(params, n_sbs, r, "dl") for r in row]
                      for row in r_dl]) if r_dl.size else np.zeros((n_sbs, 0))
    g_csd = np.array([[gain_for_rate(params, n_sbs, r, "ul") for r in row]
                      for row in r_ul]) if r_ul.size else np.zeros((n_sbs, 0))
    g_bh = np.array([gain_for_rate(params, n_sbs, r, "bh") for r in r_bh])
    g_hrd = g_hrd.reshape(n_sbs, -1)
    g_csd = g_csd.reshape(n_sbs, -1)
    return synthetic_scenario(g_hrd, g_csd, g_bh, params)


def demand_for(scenario, *, delta=0.6, n_files=20, file_size=5e6,
               storage=DESK_STORAGE, policy="sampled", seed=None, **kw):
    catalog = Catalog.build(n_files, delta, file_size)
    seed = scenario.params.seed if seed is None else seed
    return build_demand(catalog, scenario.n_sbs, scenario.n_hrd,
                        scenario.n_csd, demand_rng(seed, delta),
                        storage_bytes=storage, cache_policy=policy, **kw)
