"""doslab benchmark: one workload per process, a closed loop of units.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the root of a source checkout and imports doslab from ``src/``.
It pins the BLAS threads to the number of usable cores before numpy loads,
sets the workload up (imports, input construction and a reduced-size
warm-up), then runs one unit after another for S seconds, checks every
unit's output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before every batch the workload's host-speed probe (probe.py) runs once,
untimed by the unit clock.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json: ``units_per_ref_s`` is the median
over units of ``probe time / (unit time * probe.REF_S)``, the rate rescaled
by the probe just before the unit to a host on which the probe takes
REF_S seconds; ``peak_rss_mb`` is the
process's ``ru_maxrss`` when its first timed batch completes (later units
only add allocator fragmentation, which varies with the run length);
``setup_s`` is the median wall time of SETUP_REPS fresh processes that only
set up (``--setup-only``), from spawn to exit.  With ``--trace 1`` blocks
of two batches alternate between untraced and traced, and the metrics are
the per-layer ones, averaged per traced unit, plus the median probe time.
A failed unit makes the exit code 1.  The full report (machine
fingerprint, raw ``units_per_s``, per-unit and probe times, failures,
spans) goes to perfbench/out/.

``--size smoke`` runs the same pipelines at small sizes for the self-tests;
``--record-references K`` rewrites the stored default-seed outputs of the
first K units at the chosen size.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
SETUP_REPS = 3
REL_TOL = 1e-9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the reference seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--references", type=Path, default=REFERENCES)
    ap.add_argument("--record-references", type=int, metavar="K", default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def git_sha():
    # a checkout without .git may sit inside an unrelated repository
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(seed, blas_threads):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_vendor": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(), "seed": seed}


def matches(ref, got):
    """Ints, strings, bools and digests exactly; floats within REL_TOL."""
    if isinstance(ref, float) or isinstance(got, float):
        return (isinstance(ref, (int, float)) and isinstance(got, (int, float))
                and math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0))
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(map(matches, ref, got))
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(
            matches(ref[k], got[k]) for k in ref)
    return type(ref) is type(got) and ref == got


def setup(workloads, args, seed):
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, seed, args.size, str(OUT))
    wl.warm_up()
    return wl


def setup_times(args, seed):
    """Wall time of SETUP_REPS fresh processes that set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(seed), "--size", args.size,
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t)
    return times


def record_references(workloads, args, seed):
    wl = workloads.make(args.workload, seed, args.size, str(OUT))
    outs = []
    i = 0
    while len(outs) < args.record_references:
        outs.extend(wl.batch(i))
        i += 1
    for out in outs:
        problems = wl.check(out)
        if problems:
            raise SystemExit(f"refusing to record a failing unit: {problems}")
    refs = json.loads(args.references.read_text()) if args.references.exists() else {}
    refs.setdefault(args.size, {})[args.workload] = outs[:args.record_references]
    args.references.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.record_references} {args.size} units of "
          f"{args.workload} (seed {seed})")


def run_loop(wl, tracer, probe, args, refs):
    """Closed loop: batches until ``seconds`` have passed (at least one, or
    four in trace mode so both halves are measured), each after one probe."""
    # dicts: index, seconds (share of the batch), probe seconds, traced, problems
    units = []
    outputs = []
    first_peak_kb = None
    min_batches = 4 if args.trace else 1
    start = time.perf_counter()
    i = 0
    while i < min_batches or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and (i // 2) % 2 == 1
        probe_s = probe(wl.PROBE)
        t = time.perf_counter()
        try:
            if traced:
                with tracer.active():
                    outs = wl.batch(i)
            else:
                outs = wl.batch(i)
            error = None
        except Exception as exc:  # a failing unit is a result, not a crash
            outs, error = [None] * wl.per_batch, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        for out in outs:
            index = len(units)
            problems = [error] if error else wl.check(out)
            if out is not None and index < len(refs) and not matches(refs[index], out):
                problems.append("output differs from the stored reference")
            units.append({"index": index, "seconds": dt / len(outs),
                          "probe_s": probe_s, "traced": traced,
                          "problems": problems})
            outputs.append(out)
        if first_peak_kb is None:
            first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        i += 1
    return units, outputs, first_peak_kb


def rate(units):
    return 1.0 / statistics.median(u["seconds"] for u in units)


def main(argv=None):
    args = parse_args(argv)
    blas_threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads)
    if not (ROOT / "src" / "doslab" / "__init__.py").is_file():
        print(f"error: no doslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from probe import REF_S, probe
    from tracer import Tracer, metric_names
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.record_references:
        record_references(workloads, args, seed)
        return 0
    wl = setup(workloads, args, seed)
    if args.setup_only:
        return 0
    setup_s = [] if args.trace else setup_times(args, seed)
    refs = []
    if seed == workloads.DEFAULT_SEED:
        refs = json.loads(args.references.read_text()).get(
            args.size, {}).get(args.workload, [])
    tracer = Tracer()
    units, outputs, first_peak_kb = run_loop(wl, tracer, probe, args, refs)
    failed = sum(1 for u in units if u["problems"])

    if args.trace:
        plain = [u for u in units if not u["traced"]]
        traced = [u for u in units if u["traced"]]
        totals = tracer.summary()
        known = metric_names()
        values = {"trace.overhead_frac": rate(plain) / rate(traced) - 1.0,
                  "host.probe_s": statistics.median(u["probe_s"] for u in units)}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in values:
                continue
            if name not in known:
                raise SystemExit(f"per-layer metric {name} is not traced")
            values[name] = totals.get(name, 0.0) / len(traced)
        wanted = spec["per_layer"]
    else:
        values = {
            # on a slow host the probe takes longer than REF_S and scales
            # the unit's rate up; pairing each unit with its own probe
            # follows speed phases that change within a run
            "units_per_ref_s": statistics.median(
                u["probe_s"] / (u["seconds"] * REF_S[wl.PROBE]) for u in units),
            "peak_rss_mb": first_peak_kb / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    report = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint(seed, blas_threads),
        "setup_s": setup_s, "probe": wl.PROBE,
        "units_per_s": rate(units),
        "attempted": len(units), "failed": failed,
        "failed_frac": failed / len(units),
        "final_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
        "outputs": outputs, "metrics": metrics,
    }
    if args.trace:
        report.update(tracer.dump())
    suffix = "" if args.size == "full" else f"-{args.size}"
    out_path = OUT / f"{args.workload}-seed{seed}-trace{args.trace}{suffix}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for u in units:
        if u["problems"]:
            print(f"unit {u['index']} failed: {'; '.join(u['problems'])}",
                  file=sys.stderr)
    print(json.dumps({"fingerprint": report["fingerprint"],
                      "failed_frac": report["failed_frac"],
                      "skipped": tracer.skipped, "report": str(out_path)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(units),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
