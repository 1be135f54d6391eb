"""The domain of every numeric input, and the one check that enforces it.

``DOMAINS`` names each numeric field of ``SystemParams``, ``Counts``,
``Catalog``, ``DemandProfile`` and ``ExperimentConfig``, and the positions
and gains of a scenario file's deployment.  The constructors,
``ExperimentConfig.validate``, ``scenario.load_scenario`` and the
functions that read such a value first (``zipf_popularity``,
``place_cache``) call ``check``, so flags, ``sweep --set``, config files
and scenario files meet one rule.  Rules that relate two inputs, and the
checks that derived rates and costs neither overflow nor underflow
(``radio.build_rate_table``, ``allocation.build_costs``), stay where they
apply.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class Domain:
    """Finite values in [lo, hi], with lo itself excluded if ``above`` and
    integers only if ``integer``; ``unit`` follows a bound in an error."""

    lo: float
    hi: float = math.inf
    above: bool = False
    integer: bool = False
    unit: str = ""

    def rule(self, x) -> str | None:
        """The rule that ``x``, a number or an array of them, breaks, or
        None."""
        if isinstance(x, (int, float)):
            least = most = x
            integral = isinstance(x, int)
        elif x.size:
            least, most = x.min(), x.max()      # NaN if any entry is NaN
            integral = x.dtype.kind in "iu" or x.dtype.kind == "O" and all(
                isinstance(v, numbers.Integral) for v in x.flat)
        else:
            return None
        if self.integer:
            if not integral:
                return "must be an integer"
        elif not (math.isfinite(least) and math.isfinite(most)):
            return "must be finite"
        if (self.lo <= least and most <= self.hi
                and not (self.above and least == self.lo)):
            return None
        if self.hi < math.inf:
            return f"must lie in [{self.lo:g}, {self.hi:g}]{self.unit}"
        if self.lo:
            return f"must be at least {self.lo:g}{self.unit}"
        return "must be positive" if least >= 0 else "must not be negative"


_POSITIVE = Domain(0.0, above=True)
_NONNEGATIVE = Domain(0.0)
_COUNT = Domain(0, integer=True)

DOMAINS = {
    # The full-share delays divide by these.
    **dict.fromkeys(("w_hz", "file_size_bytes", "task_input_bytes",
                     "local_cps", "edge_cps", "hrd_weight", "csd_weight"),
                    _POSITIVE),
    # Zero is a task of no cycles, an SBS without a cache, a uniform
    # popularity law or a file nobody requests.  ``grid`` holds values of
    # the sweep axis: a, t1_frac or delta.
    **dict.fromkeys(("task_cycles", "storage_bytes", "delta", "deltas",
                     "popularity", "grid"), _NONNEGATIVE),
    **dict.fromkeys(("a", "t1_frac"), Domain(0.0, 1.0)),
    **dict.fromkeys(("request", "cache"), Domain(0, 1, integer=True)),
    **dict.fromkeys(("seed", "seeds", "n_hrd", "n_csd"), _COUNT),
    "m_sbs": Domain(1, integer=True, unit=" SBS per macrocell"),
    "n_mbs": Domain(1, integer=True, unit=" MBS"),
    "n_files": Domain(1, integer=True, unit=" file"),
    "requests_per_hrd": Domain(1, integer=True, unit=" request"),
    # 10**(dBm/10) milliwatts stay normal floats.
    **dict.fromkeys(("p_mbs_dbm", "p_sbs_dbm", "p_md_dbm"),
                    Domain(-3000.0, 3000.0, unit=" dBm")),
    "noise_dbm_hz": Domain(-3000.0, 3000.0, unit=" dBm/Hz"),
    # Node discs far wider than the 1e-9 m collocation threshold, and
    # squared distances that stay finite.
    "isd_m": Domain(1e-6, 1e100, unit=" m"),
    # A scenario file's deployment: node positions in m, and linear
    # channel gains, which every rate takes the logarithm of.
    **dict.fromkeys(("mbs_pos", "sbs_pos", "hrd_pos", "csd_pos"),
                    Domain(-math.inf)),
    **dict.fromkeys(("gain_sbs_hrd", "gain_sbs_csd", "gain_mbs_sbs"),
                    _POSITIVE),
}


def check(name: str, value) -> None:
    """Raise ValueError("<name> <rule>") unless ``value``, a number or an
    array of them, lies in the domain of ``name``."""
    if not isinstance(value, (int, float)):
        value = np.asarray(value)
    rule = DOMAINS[name].rule(value)
    if rule:
        raise ValueError(f"{name} {rule}")


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj`` that has a domain."""
    for f in fields(obj):
        if f.name in DOMAINS:
            check(f.name, getattr(obj, f.name))
