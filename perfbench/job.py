"""One benchmark job in a fresh interpreter; run.py starts it.

Usage: python3 perfbench/job.py '<json spec>'

The spec names the workload, seed, spawn time (time.monotonic in the
parent, which is the same clock in every process on Linux), source and
output directories, whether to trace, and where to write the result.
Exits 3 without a result when mvlevy cannot be imported from the
checkout's src/; every other failure is recorded as failed checks.
"""

import json
import os
import sys
import time


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(spec):
    try:
        import numpy
        import scipy
        import mvlevy
        import mvlevy.cli  # noqa: F401  (imported by every CLI call)
    except ImportError as exc:
        print(f"perfbench: cannot import mvlevy: {exc}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - spec["t_spawn"]
    if not os.path.realpath(mvlevy.__file__).startswith(spec["src"] + os.sep):
        print(f"perfbench: mvlevy imported from {mvlevy.__file__}, "
              f"not from {spec['src']}", file=sys.stderr)
        return 3

    import hashlib
    import resource
    import tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    cfg = wl.config(spec["seed"])
    tr = None
    if spec["trace"]:
        tr = tracer.Tracer(spec["run_id"])
        tracer.instrument(tr)
        solve = tr.wrap(tracer.ROOT_SPAN, wl.solve)
    else:
        solve = wl.solve
    error = None
    ctx = {}
    t0 = time.perf_counter()
    try:
        ctx = solve(cfg, spec["out"])
    except Exception as exc:  # a failed job fails its checks; keep measuring
        error = f"solve raised {exc!r}"
    solve_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.uninstall()
    bytes_written = _dir_bytes(spec["out"])

    # a non-zero exit code or an exception fails every check of the job
    names = ["every CLI call exits 0"] + [name for name, _ in wl.checks]
    results = [False] * len(names)
    if error is None and all(rc == 0 for rc in ctx["rc"]):
        results[0] = True
        try:
            wl.load(cfg, spec["out"], ctx)
        except (OSError, ValueError, KeyError) as exc:
            error = f"cannot read the outputs: {exc!r}"
        else:
            for k, (name, fn) in enumerate(wl.checks, start=1):
                try:
                    results[k] = bool(fn(cfg, ctx))
                except Exception as exc:  # a check that cannot be evaluated fails
                    print(f"perfbench: check {name!r} raised {exc!r}", file=sys.stderr)
    if error is not None:
        print(f"perfbench: {spec['run_id']}: {error}", file=sys.stderr)
    if tr is not None:
        # a layer that is never reached fails the run rather than reading 0 s
        for name in wl.entry_points:
            names.append(f"trace reached {name}")
            results.append(tr.calls[name] > 0)

    out = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb,
           "checks": dict(zip(names, results)), "error": error,
           "config_sha256": hashlib.sha256(
               json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
           "layers": None}
    if tr is not None:
        out["layers"] = tracer.layer_metrics(tr, solve_s)
        out["layers"]["cli.bytes_written"] = bytes_written
        tr.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
