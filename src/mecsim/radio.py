"""Resource-share factors and per-link spectral efficiencies.

The band splits ``a`` (access vs backhaul) and ``t1_frac`` (uplink vs
downlink slot) combine with the factor-3 frequency reuse and the per-cell SBS
count into effective per-SBS bandwidths S.  A link's rate is then
``fraction * S * log2(1 + SNR)`` with the SNR taken over the per-SBS subband
of that link class, which keeps the SNR independent of the allocated
fraction.  Gains are quasi-static, so the whole table is computed once per
scenario and never rebuilt by the optimizer.
"""

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, dbm_to_mw

REUSE = 3.0   # adjacent macrocell clusters split each band three ways


@dataclass(frozen=True)
class RateTable:
    """Per-SBS effective bandwidths and per-link spectral efficiencies."""

    s_dl: np.ndarray      # (n_sbs,) Hz, downlink access
    s_ul: np.ndarray      # (n_sbs,) Hz, uplink access
    s_bh: np.ndarray      # (n_sbs,) Hz, downlink backhaul
    r_dl: np.ndarray      # (n_sbs, n_hrd) bits/s/Hz
    r_ul: np.ndarray      # (n_sbs, n_csd)
    r_bh: np.ndarray      # (n_sbs,)
    eta_min: np.ndarray   # (n_sbs, n_hrd) rho in the rate ordering
    #                       eta >= rho * beta that keeps a missed pair's
    #                       access rate at most its backhaul rate


def build_rate_table(scenario: Scenario) -> RateTable:
    p = scenario.params
    a, t1 = p.a, p.t1_frac

    # Per-cell SBS count: each SBS shares its cell's subband slice equally.
    cell_counts = np.bincount(scenario.sbs_cell, minlength=scenario.n_mbs)
    m_of_sbs = cell_counts[scenario.sbs_cell].astype(float)

    noise_mw_hz = dbm_to_mw(p.noise_dbm_hz)
    band_acc = a * p.w_hz / (REUSE * m_of_sbs)
    band_bh = (1.0 - a) * p.w_hz / (REUSE * m_of_sbs)
    noise_acc = noise_mw_hz * band_acc          # (n_sbs,)
    noise_bh = noise_mw_hz * band_bh

    with np.errstate(all="ignore"):
        snr_dl = dbm_to_mw(p.p_sbs_dbm) * scenario.gain_sbs_hrd / noise_acc[:, None]
        snr_ul = dbm_to_mw(p.p_md_dbm) * scenario.gain_sbs_csd / noise_acc[:, None]
        snr_bh = dbm_to_mw(p.p_mbs_dbm) * scenario.gain_mbs_sbs / noise_bh
        r_dl = np.log2(1.0 + snr_dl)
        r_ul = np.log2(1.0 + snr_ul)
        r_bh = np.log2(1.0 + snr_bh)
        eta_min = a * r_dl / ((1.0 - a) * r_bh[:, None])

    s_dl = a * p.w_hz * (1.0 - t1) / (REUSE * m_of_sbs)
    s_ul = a * p.w_hz * t1 / (REUSE * m_of_sbs)
    s_bh = (1.0 - a) * p.w_hz * (1.0 - t1) / (REUSE * m_of_sbs)
    # A split of a or t1_frac at 0 or 1 (a degenerate partition) leaves some
    # link class a zero band, which fails here only if devices demand it.
    for link, s, r, used in (("downlink", s_dl, r_dl, scenario.n_hrd),
                             ("backhaul", s_bh, r_bh, scenario.n_hrd),
                             ("uplink", s_ul, r_ul, scenario.n_csd)):
        if used and not (np.all(s > 0) and np.all((0 < r) & (r < np.inf))):
            raise ValueError(
                f"{link} rates at a={a}, t1_frac={t1}, w_hz={p.w_hz} and "
                "these channel gains are not finite and positive (a "
                "degenerate partition or a dead channel)")
    return RateTable(s_dl=s_dl, s_ul=s_ul, s_bh=s_bh,
                     r_dl=r_dl, r_ul=r_ul, r_bh=r_bh, eta_min=eta_min)
