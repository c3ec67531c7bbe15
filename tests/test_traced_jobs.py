"""The benchmark's jobs run end to end on the current sources.

A traced job (perfbench/job.py with trace on) replaces mvlevy's module
attributes with timing wrappers and calls back into the tracer with each
call's arguments (README "Testing notes" lists them).  A change that
renames such an attribute, or changes how its caller passes arguments,
can leave the untraced command correct while the traced job exits
non-zero.  Each job runs in a fresh interpreter, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = (ROOT / "src").resolve()
JOB = ROOT / "perfbench" / "job.py"
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# run.py adds the tracing overhead from pairs of jobs; one job has no pair
JOB_LAYERS = [name for name in PER_LAYER if name != "trace.overhead_frac"]


def _run_job(tmp_path, workload, trace):
    spec = {"workload": workload, "seed": 1, "trace": trace,
            "run_id": f"{workload}-trace{int(trace)}", "src": str(SRC),
            "out": str(tmp_path / "out"), "result": str(tmp_path / "result.json"),
            "spans": str(tmp_path / "spans.jsonl"), "t_spawn": time.monotonic()}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(JOB), json.dumps(spec)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "result.json").read_text()), proc.stderr


@pytest.mark.parametrize("workload", ["ou_fixpoint", "double_well_multiplicity",
                                      "selfconsistent_sweep"])
def test_traced_job_passes_every_check(tmp_path, workload):
    res, err = _run_job(tmp_path, workload, trace=True)
    assert res["error"] is None, err
    failed = [name for name, ok in res["checks"].items() if not ok]
    assert not failed, err
    assert any(name.startswith("trace reached ") for name in res["checks"])
    assert res["layers"] is not None
    assert sorted(set(JOB_LAYERS) - set(res["layers"])) == []
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_untraced_job_passes_every_check(tmp_path):
    res, err = _run_job(tmp_path, "ou_fixpoint", trace=False)
    assert res["error"] is None, err
    assert res["checks"] and all(res["checks"].values()), err
    assert res["layers"] is None
