"""mvlevy benchmark: closed-loop CLI workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ou_fixpoint --seed 1 --seconds 40 --trace 0

One client runs jobs one after another, each in a fresh interpreter
(perfbench/job.py).  It starts the next job only if the last job's
duration says it will end within --seconds, so a run ends near --seconds
instead of overrunning by up to a job.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json as medians over the jobs.  --trace 1 alternates untraced
and traced jobs and reports the per-layer metrics: medians over the traced
jobs, counts from the first traced job, and the tracing overhead.

The last stdout line is the result; the line before it is the run's
provenance.  A full record, with every job, goes to
.perfbench/results/; traced jobs write their spans to .perfbench/traces/.
Exits 1 without a result when a job cannot run at all (for example when
src/mvlevy is missing).  See README.md in this directory for the design.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracer import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("ou_fixpoint", "double_well_multiplicity", "selfconsistent_sweep")
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s; stop jobs before that


class JobFailed(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256():
    """Hash of the package sources: names the code even where there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mvlevy").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_job(args, k, traced, t_start):
    run_id = f"{args.workload}-seed{args.seed}-job{k}"
    tmp = Path(tempfile.mkdtemp(prefix="job-", dir=WORK))
    try:
        spec = {"workload": args.workload, "seed": args.seed, "trace": traced,
                "run_id": run_id, "src": str(SRC.resolve()),
                "out": str(tmp / "out"), "result": str(tmp / "result.json"),
                "spans": str(WORK / "traces" / f"{run_id}.jsonl")}
        timeout = RUN_DEADLINE_S - (time.monotonic() - t_start)
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                                  env=child_env(), stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise JobFailed(f"job {k} did not finish within the run deadline")
        if proc.returncode != 0:
            raise JobFailed(f"job {k} exited with code {proc.returncode}")
        with open(spec["result"]) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["traced"] = traced
    return res


def layer_summary(jobs):
    """Per-layer metrics plus the checks that exact counts repeat."""
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    out, checks = {}, {}
    for name in traced[0]["layers"]:
        vals = [j["layers"][name] for j in traced]
        if name in EXACT_COUNTS:
            out[name] = vals[0]
            if len(vals) > 1:
                checks[f"{name} repeats exactly"] = len(set(vals)) == 1
        else:
            out[name] = median(vals)
    out["trace.overhead_frac"] = (median(j["solve_s"] for j in traced)
                                  / median(j["solve_s"] for j in plain) - 1.0)
    return out, checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mvlevy" / "__init__.py").is_file():
        print(f"perfbench: no mvlevy sources under {SRC}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    t_start = time.monotonic()
    jobs = []
    try:
        # closed loop, one client.  Start a job only while the last one says
        # it will end within --seconds; a traced run needs one of each kind.
        while True:
            t_job = time.monotonic()
            jobs.append(run_job(args, len(jobs), bool(args.trace and len(jobs) % 2),
                                t_start))
            now = time.monotonic()
            if (now - t_start + (now - t_job) > args.seconds
                    and not (args.trace and len(jobs) < 2)):
                break
    except JobFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = {}
    for k, job in enumerate(jobs):
        checks.update({f"job {k}: {name}": ok for name, ok in job["checks"].items()})
    if args.trace:
        values, count_checks = layer_summary(jobs)
        checks.update(count_checks)
    else:
        values = {name: median(j[name] for j in jobs)
                  for name in ("solve_s", "setup_s", "peak_rss_mb")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"perfbench: check failed: {name}", file=sys.stderr)

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "jobs": len(jobs), "loop": "closed, 1 client",
        "nproc": nproc(), "cpu_model": cpu_model(), "blas_threads": nproc(),
        "versions": jobs[0]["versions"], "git_commit": git_commit(),
        "source_sha256": source_sha256(), "config_sha256": jobs[0]["config_sha256"],
    }
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"provenance": provenance, "result": result, "jobs": jobs,
                   "checks": checks}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
