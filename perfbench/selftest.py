"""Self-tests of the benchmark, at smoke size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, timeout=120):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes_and_emits_every_metric(workload, trace):
    code, result = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails_the_run(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    refs["smoke"]["anderson-average"][0]["average"] *= 1.0 + 1e-6
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(refs))
    code, result = bench("--workload", "anderson-average", "--trace", "0",
                         "--references", str(corrupted))
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_traced_and_untraced_outputs_are_identical():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        from tracer import Tracer
    finally:
        del sys.path[:2]
    out_dir = str(HERE / "out")
    Path(out_dir).mkdir(exist_ok=True)
    tracer = Tracer()
    for name in WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED, "smoke", out_dir)
        plain = wl.batch(0)
        with tracer.active():
            traced = wl.batch(0)
        assert traced == plain, name
    assert tracer.spans and not tracer.skipped
