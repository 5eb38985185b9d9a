"""Spans around the calls into each ods layer, recorded from outside the program.

Each wrapped function is replaced at every name an ods module binds it to
(and ``Trajectory.observables`` on its class), because callers look the
name up at call time.  A span is (name, start, end, parent, attributes) and
is kept in memory until the run writes it out.  Functions called once per
RHS evaluation or per sample (the Hamiltonians, the sample audit, the dark
state) are too many to keep one span each: their count and time are summed
per name and charged to the enclosing span as child time.  A span's self
time is its duration minus its children's, hot calls included.
"""

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "hot" names are aggregated per call
SPANS = (
    ("ods.cli", "main", "cli.main"),
    ("ods.cli", "write_csv", "cli.write_csv"),
    ("ods.config", "parse_config", "config.parse_config"),
    ("ods.planner", "plan_superposition", "planner.plan_superposition"),
    ("ods.planner", "run_protocol", "planner.run_protocol"),
    ("ods.planner", "fidelity_scan", "planner.fidelity_scan"),
    ("ods.adiabaticity", "evolving_margin", "adiabaticity.evolving_margin"),
    ("ods.evolver", "evolve", "evolver.evolve"),
    ("ods.evolver", "solve_ivp", "evolver.solve_ivp"),
)
HOT = (
    ("ods.drive", "effective_hamiltonian", "drive.hamiltonian"),
    ("ods.drive", "full_hamiltonian", "drive.hamiltonian"),
    ("ods.evolver", "_check_sample", "evolver.audit"),
    ("ods.eigensystem", "dark_state", "eigensystem.dark_state"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, child_time, attrs]
        self.stack = [None]
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._patches = []

    # -- recording ---------------------------------------------------------
    def _span(self, name, fn, attrs_of):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self.stack[-1], 0.0, {}]
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
                if self.stack[-1] is not None:
                    self.spans[self.stack[-1]][4] += rec[2] - rec[1]
            if attrs_of is not None:
                rec[5] = attrs_of(args, kwargs, result)
            return result
        return wrapper

    def _hot(self, name, fn):
        totals = self.hot[name]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            totals[0] += 1
            totals[1] += dt
            if self.stack[-1] is not None:
                self.spans[self.stack[-1]][4] += dt
            return result
        return wrapper

    # -- installing --------------------------------------------------------
    def install(self):
        from ods import evolver

        modules = [m for n, m in list(sys.modules.items()) if n == "ods" or n.startswith("ods.")]
        for mod_name, attr, span in SPANS + HOT:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            if (mod_name, attr, span) in HOT:
                wrapper = self._hot(span, original)
            else:
                wrapper = self._span(span, original, _ATTRS.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, wrapper)
        obs = evolver.Trajectory.observables
        self._patches.append((evolver.Trajectory, "observables", obs))
        evolver.Trajectory.observables = self._span(
            "evolver.observables", obs, lambda a, k, r: {"samples": len(r["t"])})

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------
    def totals(self):
        """name -> dict(calls, seconds, self_seconds, summed attributes)."""
        out = defaultdict(lambda: defaultdict(float))
        for name, start, end, _parent, child, attrs in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["seconds"] += end - start
            agg["self_seconds"] += end - start - child
            for key, value in attrs.items():
                agg[key] += value
        for name, (calls, seconds) in self.hot.items():
            out[name]["calls"] += calls
            out[name]["seconds"] += seconds
            out[name]["self_seconds"] += seconds
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [dict(name=n, start=s, end=e, parent=p, child_s=c, **a)
                          for n, s, e, p, c, a in self.spans],
                "hot": {n: {"calls": c, "seconds": s} for n, (c, s) in self.hot.items()},
            }, fh)


def _csv_attrs(args, kwargs, result):
    path, columns = args[0], args[2]
    return {"rows": len(columns[0]) if columns else 0, "bytes": os.path.getsize(path)}


_ATTRS = {
    "evolver.solve_ivp": lambda a, k, r: {"nfev": int(r.nfev)},
    "evolver.evolve": lambda a, k, r: {"samples": len(r.times)},
    "cli.write_csv": _csv_attrs,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by name: (value, unit)."""
    t = tracer.totals()

    def get(name, key):
        return t[name][key] if name in t else 0.0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    ham_calls = get("drive.hamiltonian", "calls")
    samples = get("evolver.evolve", "samples")
    return {
        "drive.hamiltonian_calls": (int(ham_calls), "count"),
        "drive.hamiltonian_us": (per(get("drive.hamiltonian", "seconds"), ham_calls, 1e6), "us"),
        "evolver.solve_calls": (int(get("evolver.solve_ivp", "calls")), "count"),
        "evolver.rhs_evals": (int(get("evolver.solve_ivp", "nfev")), "count"),
        "evolver.solver_self_s": (get("evolver.solve_ivp", "self_seconds"), "s"),
        "evolver.evolve_self_s": (get("evolver.evolve", "seconds")
                                  - get("evolver.solve_ivp", "seconds"), "s"),
        "evolver.samples": (int(samples), "count"),
        "evolver.audit_us_per_sample": (per(get("evolver.audit", "seconds"),
                                            get("evolver.audit", "calls"), 1e6), "us"),
        "evolver.observables_us_per_sample": (per(get("evolver.observables", "seconds"),
                                                  get("evolver.observables", "samples"), 1e6), "us"),
        "eigensystem.dark_state_calls": (int(get("eigensystem.dark_state", "calls")), "count"),
        "eigensystem.dark_state_us": (per(get("eigensystem.dark_state", "seconds"),
                                          get("eigensystem.dark_state", "calls"), 1e6), "us"),
        "adiabaticity.evolving_margin_s": (get("adiabaticity.evolving_margin", "seconds"), "s"),
        "planner.plan_superposition_us": (per(get("planner.plan_superposition", "seconds"),
                                              get("planner.plan_superposition", "calls"), 1e6), "us"),
        "planner.run_protocol_self_s": (get("planner.run_protocol", "self_seconds"), "s"),
        "planner.fidelity_scan_self_s": (get("planner.fidelity_scan", "self_seconds"), "s"),
        "cli.write_csv_s": (get("cli.write_csv", "seconds"), "s"),
        "cli.csv_bytes": (int(get("cli.write_csv", "bytes")), "B"),
        "cli.write_csv_us_per_row": (per(get("cli.write_csv", "seconds"),
                                         get("cli.write_csv", "rows"), 1e6), "us"),
        "cli.main_self_s": (get("cli.main", "self_seconds"), "s"),
        "config.parse_config_us": (per(get("config.parse_config", "seconds"),
                                       get("config.parse_config", "calls"), 1e6), "us"),
    }
