"""Shared fixtures: desk-scale seeded scenarios and hand-built synthetic ones.

Synthetic scenarios carry chosen channel gains (positions are dummies), which
lets tests pin exact rates, costs and delays without fighting the channel
draw.  ``allocate_csd``/``allocate_hrd`` run the library's closed forms on
raw cost vectors, ``idle_allocation`` builds an allocation at IDLE_FRAC
everywhere, ``game_sums`` a game's running sums from a state's member
lists and ``whole_block`` every move of a game, valued from those sums.
``hand_demand`` builds a small demand profile field by field.  The seeded
instances, ``instance`` and ``demand_for``, live in the fingerprint tool
(``tests/tools/fingerprint.py``), which solves them too; this module puts
its folder on the import path.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mecsim._kernels import IDLE_FRAC, _sum, hrd_closed_form, root_shares
from mecsim.association import CoalitionSums, _neighbourhood, \
    _neighbourhood_block
from mecsim.content import Catalog, DemandProfile
from mecsim.delays import Allocation
from mecsim.radio import REUSE
from mecsim.scenario import Counts, Scenario, SystemParams, dbm_to_mw, \
    generate_scenario

sys.path.insert(0, str(Path(__file__).with_name("tools")))


@pytest.fixture(scope="session")
def desk_scenario():
    return generate_scenario(SystemParams(seed=7), Counts(n_hrd=20, n_csd=20))


def synthetic_scenario(gain_sbs_hrd, gain_sbs_csd, gain_mbs_sbs,
                       params: SystemParams | None = None) -> Scenario:
    """Scenario with chosen gains, (n_sbs, n_dev) for the access links;
    one macrocell, dummy geometry."""
    gain_sbs_hrd, gain_sbs_csd = (np.atleast_2d(np.asarray(g, dtype=float))
                                  for g in (gain_sbs_hrd, gain_sbs_csd))
    gain_mbs_sbs = np.asarray(gain_mbs_sbs, dtype=float).reshape(-1)
    n_sbs, n_hrd, n_csd = (gain_mbs_sbs.size, gain_sbs_hrd.shape[1],
                           gain_sbs_csd.shape[1])
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
    n_sbs = np.size(r_bh)

    def gains(rates, link):
        return np.vectorize(lambda r: gain_for_rate(params, n_sbs, r, link),
                            otypes=[float])(rates)

    return synthetic_scenario(gains(r_dl, "dl"), gains(r_ul, "ul"),
                              gains(r_bh, "bh"), params)


def hand_demand(n_sbs, n_hrd, n_csd, n_files=2, **fields):
    """A ``DemandProfile`` of ``n_files`` files of 5 MB, all cached at every
    SBS, each HRD requesting the first; 100 kB tasks of 1e9 cycles, 1.4e9
    local and 6e10 edge cycles/s, 2 GB of storage, unit weights; then
    ``fields`` replaced."""
    request = np.zeros((n_hrd, n_files), dtype=np.int8)
    request[:, 0] = 1
    return DemandProfile(**{
        "catalog": Catalog.build(n_files, 0.6, file_size_bytes=5e6),
        "request": request, "cache": np.ones((n_sbs, n_files), np.int8),
        "task_input_bytes": np.full(n_csd, 1e5),
        "task_cycles": np.full(n_csd, 1e9),
        "local_cps": np.full(n_csd, 1.4e9), "edge_cps": np.full(n_sbs, 6e10),
        "storage_bytes": np.full(n_sbs, 2e9), "hrd_weight": np.ones(n_hrd),
        "csd_weight": np.ones(n_csd), **fields})


def allocate_csd(ul_cost, ed_cost):
    """Square-root-share fractions for one coalition's uplink/compute
    blocks, by the arithmetic ``_kernels.csd_alloc`` installs."""
    def split(cost):
        roots = np.sqrt(np.asarray(cost, dtype=float)).reshape(-1).tolist()
        return np.array(root_shares(roots, _sum(roots)))
    return split(ul_cost), split(ed_cost)


def allocate_hrd(dl_cost, bh_cost, cached, rho):
    """Downlink/backhaul fractions for one coalition's active request pairs,
    by ``_kernels.hrd_closed_form``.

    ``cached`` marks pairs with no backhaul demand; their eta stays at the
    idle placeholder.  Every missed pair keeps ``eta >= rho * beta``, its
    rate ordering (``rho`` is its ``eta_min``).
    """
    sd = np.sqrt(np.asarray(dl_cost, dtype=float))
    pos = np.flatnonzero(~np.asarray(cached, dtype=bool))
    sb = np.sqrt(np.asarray(bh_cost, dtype=float)[pos])
    rho = np.asarray(rho, dtype=float)[pos]
    beta, eta_miss, _, _ = hrd_closed_form(
        sd.tolist(), list(zip(pos.tolist(), sb.tolist(), rho.tolist())))
    eta = np.full(sd.shape, IDLE_FRAC)
    eta[pos] = eta_miss
    return np.array(beta), eta


def idle_allocation(n_pairs: int, n_csd: int) -> Allocation:
    """Every fraction of ``n_pairs`` request pairs and ``n_csd`` computation
    devices at IDLE_FRAC."""
    return Allocation(alpha=np.full(n_csd, IDLE_FRAC),
                      gamma=np.full(n_csd, IDLE_FRAC),
                      beta=np.full(n_pairs, IDLE_FRAC),
                      eta=np.full(n_pairs, IDLE_FRAC))


def game_sums(state, game: str) -> CoalitionSums:
    """The running sums of ``game`` ("hrd" or "csd") at the state's member
    lists, as ``association.run_coalition_game`` builds them."""
    lists = state.hrd_members if game == "hrd" else state.csd_members
    return CoalitionSums(state.costs, game, lists)


def whole_block(state, game: str, *, drawable: bool = False):
    """Every move of ``game`` at the state's partition (with ``drawable``,
    every move a random phase draws), valued as one ``_Block`` from the
    running sums ``game_sums`` builds, which it holds as ``sums``."""
    sums = game_sums(state, game)
    block, _ = _neighbourhood_block(
        state, sums, _neighbourhood(sums.none, sums.size.size), 0,
        drawable=drawable)
    return block
