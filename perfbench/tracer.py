"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces the module attributes through which mvlevy's modules
call each other with timing wrappers, so every call a caller looks up by
name opens a span.  Nothing under src/ is edited: the wrappers live here
and are removed again before the output checks run.

A span records its name, start, end, parent span and run id.  A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans sum to the duration of the outermost one.  The
drift closure is called once per Euler step (10^5 calls per job), so its
calls are tallied into the counters and into the parent's child time but
not kept as span records; every other call is kept.

This module imports only the standard library: the parent process of the
benchmark reads EXACT_COUNTS without importing numpy or mvlevy.
"""

import json
import time
from collections import Counter, defaultdict
from statistics import median

ROOT_SPAN = "bench.solve"

# Per-layer metrics that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "levy.draws", "drift.field_evals", "simulate.trajectories",
    "simulate.retries", "simulate.kept_points", "measures.w1_calls",
    "measures.w1_points", "fixed_point.iterations",
    "fixed_point.traj_per_iter", "conditions.calls",
    "selfconsistent.root_count_calls", "selfconsistent.scan_rows",
    "selfconsistent.h_fn_calls", "cli.rows_written", "cli.bytes_written",
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []                     # kept (id, name, parent, start, end)
        self.calls = Counter()              # span name -> calls
        self.busy = defaultdict(float)      # span name -> summed duration
        self.self_s = defaultdict(float)    # span name -> summed self time
        self.durations = defaultdict(list)  # span name -> kept durations
        self.counts = Counter()             # work counted at the boundaries
        self._open = []                     # stack of [span id, child time]
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn, keep=True, on_result=None):
        """fn wrapped in a span; on_result(counts, result, *args, **kwargs)
        updates the work counters after a successful call."""
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            frame = [sid, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self._close(name, sid, parent, start, end, frame[1], keep)
            if on_result is not None:
                on_result(self.counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, sid, parent, start, end, child_s, keep):
        dur = end - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child_s
        if self._open:
            self._open[-1][1] += dur
        if keep:
            self.durations[name].append(dur)
            self.spans.append((sid, name, parent, start, end))

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, owner, attr, name, **kw):
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "run": self.run_id}) + "\n")


def _rows_written(counts, result, measure, path):
    counts["cli.rows_written"] += measure.size


def _iterations(counts, report, *args, **kwargs):
    counts["fixed_point.iterations"] += report.iterations


def _trajectory(counts, occ, spec, frozen, levy, x0, cfg, **kwargs):
    counts["simulate.kept_points"] += occ.size
    counts["simulate.steps"] += int(round(cfg.T / occ.dt))
    # frozen_trajectory halves dt once on a blowup and retries
    counts["simulate.retries"] += occ.dt < cfg.dt


def _w1_points(counts, result, mu, nu):
    counts["measures.w1_points"] += mu.size + nu.size


def _draws(counts, draws, *args, **kwargs):
    counts["levy.draws"] += draws.shape[0]


def _scan_rows(counts, result, case, m_max, grid_n, **kwargs):
    counts["selfconsistent.scan_rows"] += grid_n


def instrument(tr):
    """Wrap the attributes each caller looks up; the owner named first is
    the caller's namespace (fixed_point calls frozen_trajectory and w1
    through its own module globals, simulate calls the sampler and the
    drift functions through its own)."""
    from mvlevy import cli, conditions, fixed_point, measures, selfconsistent, simulate

    tr.install(cli, "main", "cli.main")
    tr.install(measures.EmpiricalMeasure, "to_csv", "cli.to_csv",
               on_result=_rows_written)
    tr.install(fixed_point, "multiplicity_search", "fixed_point.multiplicity_search")
    tr.install(fixed_point, "iterate_lambda", "fixed_point.iterate_lambda",
               on_result=_iterations)
    tr.install(fixed_point, "frozen_trajectory", "simulate.frozen_trajectory",
               on_result=_trajectory)
    tr.install(fixed_point, "w1", "measures.w1", on_result=_w1_points)
    tr.install(simulate, "sample_increment", "levy.sample_increment",
               on_result=_draws)
    tr.install(simulate, "measure_stats", "drift.measure_stats")
    field_closure = simulate.field_closure
    tr.patch(simulate, "field_closure", lambda spec, stats: tr.wrap(
        "drift.field", field_closure(spec, stats), keep=False))
    tr.install(conditions, "ex14_feasibility", "conditions.ex14_feasibility")
    tr.install(conditions, "m_star", "conditions.m_star")
    tr.install(selfconsistent, "beta_c", "selfconsistent.beta_c")
    tr.install(selfconsistent, "root_count", "selfconsistent.root_count",
               on_result=_scan_rows)
    tr.install(selfconsistent, "h_fn", "selfconsistent.h_fn")


def layer_metrics(tr, solve_s):
    """Per-layer metrics of one traced job, named after mvlevy's modules."""
    calls, busy, self_s, c = tr.calls, tr.busy, tr.self_s, tr.counts
    traj = tr.durations["simulate.frozen_trajectory"]
    loop_s = self_s["simulate.frozen_trajectory"]
    sample_s = busy["levy.sample_increment"]
    iters = c["fixed_point.iterations"]
    layer_self = sum(v for k, v in self_s.items() if k != ROOT_SPAN)
    cond = ("conditions.ex14_feasibility", "conditions.m_star")
    return {
        "levy.draws": c["levy.draws"],
        "levy.sample_s": sample_s,
        "levy.draws_per_s": c["levy.draws"] / sample_s if sample_s else 0.0,
        "drift.field_evals": calls["drift.field"],
        "drift.field_s": busy["drift.field"],
        "drift.stats_s": busy["drift.measure_stats"],
        "simulate.trajectories": len(traj),
        "simulate.traj_s.p50": median(traj) if traj else 0.0,
        "simulate.traj_s.max": max(traj, default=0.0),
        "simulate.loop_self_s": loop_s,
        "simulate.step_us": 1e6 * loop_s / c["simulate.steps"] if traj else 0.0,
        "simulate.retries": c["simulate.retries"],
        "simulate.kept_points": c["simulate.kept_points"],
        "measures.w1_calls": calls["measures.w1"],
        "measures.w1_points": c["measures.w1_points"],
        "measures.w1_s": busy["measures.w1"],
        "fixed_point.iterations": iters,
        "fixed_point.traj_per_iter": len(traj) / iters if iters else 0.0,
        "fixed_point.self_s": (self_s["fixed_point.iterate_lambda"]
                               + self_s["fixed_point.multiplicity_search"]),
        "conditions.calls": sum(calls[k] for k in cond),
        "conditions.busy_s": sum(busy[k] for k in cond),
        "selfconsistent.root_count_calls": calls["selfconsistent.root_count"],
        "selfconsistent.scan_rows": c["selfconsistent.scan_rows"],
        "selfconsistent.root_count_s": busy["selfconsistent.root_count"],
        "selfconsistent.h_fn_calls": calls["selfconsistent.h_fn"],
        "selfconsistent.h_fn_s": busy["selfconsistent.h_fn"],
        "selfconsistent.bisect_self_s": self_s["selfconsistent.beta_c"],
        "cli.write_s": busy["cli.to_csv"],
        "cli.rows_written": c["cli.rows_written"],
        "cli.self_s": self_s["cli.main"],
        "trace.solve_s": solve_s,
        "trace.layer_self_frac": layer_self / solve_s,
    }
