"""Spans around calls into mecsim's public functions, for the traced run.

The library itself carries no instrumentation: ``Tracer.patch`` replaces
module attributes of the imported ``mecsim`` package with timing wrappers,
in this process only, and ``Tracer.unpatch`` puts the originals back.  A
wrapper replaces the attribute in every mecsim module that bound the same
function object (``from .x import f`` copies), so calls made inside the
library are seen too.

Per call the tracer keeps, in memory: the call count, the inclusive time,
and the self time (inclusive time minus the time of wrapped calls made
inside it).  Coarse calls are also kept as spans ``(name, start, end,
parent span, op id, self time)``; the hot calls (``evaluate_and_apply`` and
the four kernel bindings, about 35 k per desk solve) are folded into their
parent span's child time and the per-name totals instead, so the trace
stays small.  Move outcomes are classified by reading the ``MoveProposal``
fields after ``evaluate_and_apply`` returns.
"""

import sys
import time
from collections import defaultdict

# Functions wrapped, by name; each is looked up in every loaded mecsim module.
COARSE = ("generate_scenario", "build_demand", "build_rate_table",
          "build_costs", "abcg_init", "run_amnd", "run_coalition_game",
          "stabilize_partition", "reallocate", "audit_stability",
          "audit_constraints", "objective", "oracle_solve_p3", "run_sweep",
          "emit_csv", "main")
HOT = ("evaluate_and_apply",)
KERNELS = ("hrd_value", "csd_value", "hrd_alloc", "csd_alloc")

OUTCOMES = ("accepted", "rejected_infeasible", "rejected_not_improving")


def layer_of(module_name: str) -> str:
    """``mecsim._kernels`` -> ``kernels``, ``mecsim.association`` -> ``association``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.op = -1
        self.stack = [[0.0, 0.0, -1]]          # frames: [start, child time, span id]
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer = {}                          # function name -> layer
        self.spans = []
        self.moves = defaultdict(int)            # (game, phase, outcome) -> count
        self.phase_s = defaultdict(float)        # "csd.game", "csd.stabilize", "late_iter"
        self.late_accepted = 0
        self.phase = None
        self.outer_iter = 0
        self._patched = []

    # -- hooks ------------------------------------------------------------

    def _before_amnd(self, args):
        self.outer_iter = 0

    def _before_game(self, args):
        if args[1] == "csd":            # each outer iteration starts with CSD
            self.outer_iter += 1
        self.phase = "random"

    def _after_game(self, args, result, dur):
        self.phase_s[f"{args[1]}.game"] += dur
        if self.outer_iter >= 2:
            self.phase_s["late_iter"] += dur
        self.phase = None

    def _before_stabilize(self, args):
        self.phase = "stabilize"

    def _after_stabilize(self, args, result, dur):
        self.phase_s[f"{args[1]}.stabilize"] += dur
        self.phase = "random"

    def _after_reallocate(self, args, result, dur):
        if self.outer_iter >= 2:
            self.phase_s["late_iter"] += dur

    def _after_move(self, args, accepted, dur):
        prop = args[1]
        if accepted:
            outcome = "accepted"
            if self.outer_iter >= 2:
                self.late_accepted += 1
        elif not prop.feasible:
            outcome = "rejected_infeasible"
        else:
            outcome = "rejected_not_improving"
        self.moves[(prop.game, self.phase, outcome)] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name, fn, coarse, before=None, after=None):
        perf = time.perf_counter
        stack, spans = self.stack, self.spans
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1]
            if coarse:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[2]
            frame = [perf(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                parent[1] += dur
                calls[name] += 1
                incl_s[name] += dur
                self_s[name] += own
                if coarse:
                    spans[sid] = (name, frame[0], end, parent[2], self.op, own)
            if after is not None:
                after(args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        """Wrap every target attribute of every loaded mecsim module."""
        if self._patched:
            raise RuntimeError("tracer already patched")
        from mecsim import _kernels
        hooks = {
            "run_amnd": (self._before_amnd, None),
            "run_coalition_game": (self._before_game, self._after_game),
            "stabilize_partition": (self._before_stabilize,
                                    self._after_stabilize),
            "reallocate": (None, self._after_reallocate),
            "evaluate_and_apply": (None, self._after_move),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mecsim" or n.startswith("mecsim.")) and m]
        targets = {}
        for name in COARSE + HOT:
            for mod in modules:
                fn = getattr(mod, name, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("mecsim"):
                    targets.setdefault(name, fn)
        for name in KERNELS:
            targets[name] = getattr(_kernels, name)
        for name, fn in targets.items():
            self.layer[name] = layer_of(fn.__module__ if name not in KERNELS
                                        else _kernels.__name__)
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrapper(name, fn, name in COARSE, before, after)
            for mod in modules:
                if mod.__dict__.get(name) is fn:
                    self._patched.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def unpatch(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched = []

    def reset_stack(self) -> None:
        """Drop frames left open by a call that raised."""
        del self.stack[1:]

    # -- readout ----------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly for one seed."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({"moves." + ".".join(k): v for k, v in self.moves.items()})
        out["late_iter_accepted"] = self.late_accepted
        return out

    def layer_self_s(self) -> dict:
        """Self time summed by layer (mecsim module)."""
        out = defaultdict(float)
        for name, t in self.self_s.items():
            out[self.layer[name]] += t
        return out
