"""Tracing from outside the program: wraps frogline's public functions.

The wrappers replace module attributes (and three WalkStore methods) while a
traced pass runs, and restore them afterwards. A function imported by name
into another frogline module is replaced there too, found by identity, so
the wrapper sees every call the program makes. A function the program no
longer has is skipped and its metrics read 0.

Trial-level work is kept as spans (call -> trial -> config / engine, and
call -> write / library). High-frequency calls (walk access, step generation,
coverage evaluations, transition applications) only feed counters and
summed times.
"""

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _frogline_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "frogline"
                                  or name.startswith("frogline."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []
        self.reset()

    def reset(self):
        """Zero the counters; spans are kept for the whole run."""
        self.sum = defaultdict(float)
        self.count = defaultdict(int)
        self._walk_depth = 0
        self._lib_depth = 0
        self._walk_keys = set()
        self._scans = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    # -- installing wrappers -----------------------------------------------

    def install(self):
        from frogline import (experiments, frog_sim, randomness, spectral_bd,
                              tree_analytics)
        plan = [
            (randomness, "init_config", self._config),
            (randomness, "generate_steps", self._step_gen),
            (frog_sim, "covered_under", self._coverage),
            (frog_sim, "susceptibility", self._engine),
            (frog_sim, "cover_time", self._engine),
            (tree_analytics, "apply_transition", self._apply),
            (tree_analytics, "apply_transition_T", self._apply),
            (tree_analytics, "mixing_profile", self._library("mixing_s")),
            (tree_analytics, "lower_bound_quantities",
             self._library("lower_bound_s")),
            (tree_analytics, "kappa_sequence", self._library("kappa_s")),
            (spectral_bd, "hitting_eigenvalues", self._library("law_s")),
            (spectral_bd, "geometric_convolution_law",
             self._library("law_s", law=True)),
            (experiments, "write_table", self._write),
            (experiments, "run_trial", self._trial),
        ]
        modules = _frogline_modules()
        for module, name, make in plan:
            orig = getattr(module, name, None)
            if orig is None:
                continue
            wrapped = make(orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        store = getattr(randomness, "WalkStore", None)
        for name in ("ensure", "prefix", "position"):
            orig = getattr(store, name, None)
            if orig is not None:
                self._patches.append((store, name, orig))
                setattr(store, name, self._walk(orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- wrappers -----------------------------------------------------------

    def _walk(self, fn):
        def wrapper(store, pid, *args, **kwargs):
            if self._walk_depth:
                return fn(store, pid, *args, **kwargs)
            self._walk_keys.add((id(store), pid))
            self._walk_depth = 1
            t0 = perf_counter()
            try:
                return fn(store, pid, *args, **kwargs)
            finally:
                self.sum["walk_s"] += perf_counter() - t0
                self.count["walk_calls"] += 1
                self._walk_depth = 0
        return wrapper

    def _step_gen(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.sum["step_gen_s"] += perf_counter() - t0
            self.count["steps_generated"] += len(out)
            return out
        return wrapper

    def _config(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("config"):
                t0 = perf_counter()
                init = fn(*args, **kwargs)
                self.sum["config_s"] += perf_counter() - t0
            self.count["particles"] += init.particle_count()
            return init
        return wrapper

    def _coverage(self, fn):
        def wrapper(g, init, walks, tau, *args, **kwargs):
            out = fn(g, init, walks, tau, *args, **kwargs)
            self.count["coverage_evals"] += 1
            self.count["steps_scanned"] += out[1]
            self._scans.append((tau, out[1]))
            return out
        return wrapper

    def _engine(self, fn):
        def wrapper(*args, **kwargs):
            self._scans = []
            walk0 = self.sum["walk_s"]
            with self.span("engine", function=fn.__name__):
                t0 = perf_counter()
                value = fn(*args, **kwargs)
                dt = perf_counter() - t0
            self.sum["engine_s"] += dt - (self.sum["walk_s"] - walk0)
            # steps read by the evaluation at tau = S, the one that decided S
            self.count["useful_scanned"] += sum(
                steps for tau, steps in self._scans if tau == value)
            return value
        return wrapper

    def _flush_walks(self):
        self.count["walks_created"] += len(self._walk_keys)
        self._walk_keys.clear()

    def _trial(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("trial"):
                result = fn(*args, **kwargs)
            self.sum["trial_wall_s"] += result.wall_ms / 1000.0
            self._flush_walks()
            return result
        return wrapper

    def _apply(self, fn):
        def wrapper(g, y, *args, **kwargs):
            t0 = perf_counter()
            out = fn(g, y, *args, **kwargs)
            self.sum["apply_s"] += perf_counter() - t0
            self.count["apply_calls"] += 1
            self.count["bytes_computed"] += y.nbytes + out.nbytes
            return out
        return wrapper

    def _library(self, key, law=False):
        def make(fn):
            def wrapper(*args, **kwargs):
                outer = self._lib_depth == 0
                self._lib_depth += 1
                try:
                    with self.span("library", function=fn.__name__):
                        t0 = perf_counter()
                        out = fn(*args, **kwargs)
                        dt = perf_counter() - t0
                finally:
                    self._lib_depth -= 1
                self.sum[key] += dt
                if outer:
                    self.sum["library_s"] += dt
                if law:
                    self.count["law_len"] += len(out.masses)
                return out
            return wrapper
        return make

    def _write(self, fn):
        def wrapper(rows, *args, **kwargs):
            with self.span("write"):
                t0 = perf_counter()
                rows = list(rows)
                text = fn(rows, *args, **kwargs)
                self.sum["write_s"] += perf_counter() - t0
            self.count["rows_written"] += len(rows)
            self.count["bytes_written"] += len(text.encode())
            return text
        return wrapper

    # -- per-pass metrics ---------------------------------------------------

    def pass_metrics(self, pass_s):
        """Per-layer metrics of the pass just traced, as {name: (value, unit)}."""
        self._flush_walks()
        s, c = self.sum, self.count

        def ratio(num, den, scale=1.0):
            # 0 where the base is 0: the quantity does not arise on the workload
            return num * scale / den if den else 0.0

        return {
            "randomness.config_s": (s["config_s"], "s"),
            "randomness.particles": (c["particles"], "count"),
            "randomness.walk_s": (s["walk_s"], "s"),
            "randomness.step_gen_s": (s["step_gen_s"], "s"),
            "randomness.walk_overhead_s": (s["walk_s"] - s["step_gen_s"], "s"),
            "randomness.walks_created": (c["walks_created"], "count"),
            "randomness.steps_generated": (c["steps_generated"], "count"),
            "randomness.ns_per_step": (
                ratio(s["walk_s"], c["steps_generated"], 1e9), "ns"),
            "randomness.walk_calls": (c["walk_calls"], "count"),
            "randomness.useful_step_ratio": (
                ratio(c["useful_scanned"], c["steps_generated"]), "ratio"),
            "frog_sim.engine_s": (s["engine_s"], "s"),
            "frog_sim.coverage_evals": (c["coverage_evals"], "count"),
            "frog_sim.steps_scanned": (c["steps_scanned"], "count"),
            "frog_sim.useful_scan_ratio": (
                ratio(c["useful_scanned"], c["steps_scanned"]), "ratio"),
            "tree_analytics.apply_calls": (c["apply_calls"], "count"),
            "tree_analytics.apply_s": (s["apply_s"], "s"),
            "tree_analytics.bytes_computed": (c["bytes_computed"], "B"),
            "tree_analytics.mixing_s": (s["mixing_s"], "s"),
            "tree_analytics.lower_bound_s": (s["lower_bound_s"], "s"),
            "tree_analytics.kappa_s": (s["kappa_s"], "s"),
            "spectral_bd.law_s": (s["law_s"], "s"),
            "spectral_bd.law_len": (c["law_len"], "count"),
            "experiments.write_s": (s["write_s"], "s"),
            "experiments.rows_written": (c["rows_written"], "count"),
            "experiments.bytes_written": (c["bytes_written"], "B"),
            "experiments.overhead_s": (
                pass_s - s["trial_wall_s"] - s["library_s"] - s["write_s"],
                "s"),
        }
