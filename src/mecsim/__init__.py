"""Small-cell network simulator with edge computing and caching.

Deterministic, seedable pipeline: scenario generation (deployments and
quasi-static channel gains), content demand (Zipf popularity, per-SBS
caches), per-link rates under orthogonal band/slot partitioning, delay
evaluation, closed-form per-coalition resource allocation with a
weak-duality certificate of its optimality, a coalitional association game
with a best-gain initializer, and a sweep/CSV experiment harness.
"""

from ._kernels import IDLE_FRAC, USING_NUMBA
from .allocation import CoalitionCosts, build_costs, oracle_solve_p3
from .association import (GameState, SolveAudit, abcg_init, audit_solve,
                          audit_stability, run_amnd, run_coalition_game)
from .content import (Catalog, DemandProfile, build_demand, demand_rng,
                      draw_requests, place_cache, zipf_popularity)
from .delays import (Allocation, DelayReport, Partition, audit_constraints,
                     objective)
from .experiments import (CSV_COLUMNS, ExperimentConfig, SweepRow, emit_csv,
                          load_config, load_csv, run_sweep, save_config,
                          trend_check)
from .radio import RateTable, build_rate_table
from .scenario import (Counts, LinkModel, MBS_SBS, SBS_MD, Scenario,
                       SystemParams, channel_gain, generate_scenario,
                       load_scenario, los_probability, pathloss_db,
                       save_scenario)

__version__ = "0.1.0"
