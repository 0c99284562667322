"""Paired in-process A/B timing of one benchmark workload on two revisions.

    python tools/ab.py --workload W --parent REV [--change REV] --seconds S
                       --out BENCH_<n>.json [--seed N]

Each revision's ``src/doslab`` and ``perfbench/workloads.py`` are read with
``git archive`` (``--change`` defaults to the working tree) and loaded side
by side in one process: the parent's package as ``doslab_a``, the change's
as ``doslab_b`` and, for the A/A pass, a second copy of the change as
``doslab_b2``; each ``workloads.py`` is loaded once per copy with its
``doslab`` imports rewritten to that package.  Library modules import each
other only relatively, so the copies share no state.  BLAS threads are
pinned to the usable cores, as ``perfbench/run.py`` pins them.

After one warm-up per copy, rounds run until S seconds have passed: round
i runs batch i of all three copies in a random order, so the units of a
round see the same inputs and nearly the same host, and every unit must
pass the workload's ``check`` (exit code 1 otherwise).  The result is the
median over rounds of the per-unit time ratio change / parent, with a
bootstrap 95 % CI over rounds, and the same for the A/A ratio of the two
change copies: a CI of that ratio away from 1.0 is the bias of the pairing
itself.  Only units are timed; setup time and peak memory stay with
``run.py``, since one process holds every copy.

The ratios, CIs, per-round unit times and ``perfbench/run.py``'s machine
fingerprint go to the ``ab`` section of ``--out`` under the workload's name;
the file is created, or updated in place.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
BOOTSTRAP = 2000
_IMPORT = re.compile(r"^(from|import) doslab\b", re.MULTILINE)


class UnitFailed(Exception):
    """A unit's output failed the workload's check."""


def _load_run():
    """``perfbench/run.py`` as a module; importing it runs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(rev: str | None, into: pathlib.Path) -> pathlib.Path:
    """The tree holding ``src/doslab`` and ``perfbench/workloads.py`` of
    ``rev``, read with ``git archive`` into ``into``; the working tree for
    None."""
    if rev is None:
        return ROOT
    blob = _git("archive", rev, "src/doslab", "perfbench/workloads.py")
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into


def load_tree(tree: pathlib.Path, name: str,
              packages: pathlib.Path) -> types.ModuleType:
    """Copy ``tree``'s ``src/doslab`` to ``packages/name``, import it as
    ``name`` and return ``tree``'s ``perfbench/workloads.py`` loaded as
    ``workloads_<name>`` with its ``doslab`` imports pointing there."""
    shutil.copytree(tree / "src" / "doslab", packages / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if str(packages) not in sys.path:
        sys.path.insert(0, str(packages))
    importlib.import_module(name)
    path = tree / "perfbench" / "workloads.py"
    source = _IMPORT.sub(rf"\1 {name}", path.read_text(encoding="utf-8"))
    module = types.ModuleType(f"workloads_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


def run_rounds(workloads: dict, seconds: float, seed: int) -> dict:
    """Per-unit seconds of batch i of every workload, round after round in
    a random order, until ``seconds`` have passed (at least two rounds)."""
    order = random.Random(seed)
    times = {name: [] for name in workloads}
    start, i = time.perf_counter(), 0
    while i < 2 or time.perf_counter() - start < seconds:
        for name in order.sample(list(workloads), len(workloads)):
            wl = workloads[name]
            t = time.perf_counter()
            outs = wl.batch(i)
            dt = time.perf_counter() - t
            for out in outs:
                problems = wl.check(out)
                if problems:
                    raise UnitFailed(f"{name}, batch {i}: {'; '.join(problems)}")
            times[name].append(dt / len(outs))
        i += 1
    return times


def median_ratio(num: list, den: list, seed: int) -> dict:
    """Median of the paired ratios num / den with a bootstrap 95 % CI."""
    import numpy as np  # after the BLAS threads are pinned
    ratios = np.asarray(num) / np.asarray(den)
    draws = np.random.default_rng(seed).integers(
        0, len(ratios), (BOOTSTRAP, len(ratios)))
    lo, hi = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    return {"ratio": float(np.median(ratios)), "ci95": [float(lo), float(hi)],
            "pairs": len(ratios)}


def _line(label: str, stat: dict) -> str:
    lo, hi = stat["ci95"]
    return (f"{label} {stat['ratio']:.3f} (95% CI {lo:.3f}-{hi:.3f}, "
            f"{stat['pairs']} pairs)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, metavar="REV")
    ap.add_argument("--change", default=None, metavar="REV",
                    help="default: the working tree")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    args = ap.parse_args(argv)

    run = _load_run()
    threads = len(os.sched_getaffinity(0))
    for var in run.BLAS_ENV:
        os.environ[var] = str(threads)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        parent = extract(args.parent, tmp / "parent")
        change = extract(args.change, tmp / "change")
        workloads = {}
        for name, tree in (("doslab_a", parent), ("doslab_b", change),
                           ("doslab_b2", change)):
            module = load_tree(tree, name, tmp / "packages")
            if args.workload not in module.WORKLOADS:
                print(f"error: unknown workload {args.workload!r}",
                      file=sys.stderr)
                return 2
            workdir = tmp / "work" / name
            workdir.mkdir(parents=True)
            workloads[name] = module.make(args.workload, args.seed, "full",
                                          str(workdir))
        for wl in workloads.values():
            wl.warm_up()
        try:
            times = run_rounds(workloads, args.seconds, args.seed)
        except UnitFailed as exc:
            print(f"error: unit failed its check: {exc}", file=sys.stderr)
            return 1
    ab = median_ratio(times["doslab_b"], times["doslab_a"], args.seed)
    aa = median_ratio(times["doslab_b2"], times["doslab_b"], args.seed)
    entry = {
        "parent": _git("rev-parse", args.parent).decode().strip(),
        "change": (_git("rev-parse", args.change).decode().strip()
                   if args.change else "working tree"),
        "seconds": args.seconds, "seed": args.seed,
        "time_ratio": ab, "aa_time_ratio": aa,
        "unit_seconds": {"parent": times["doslab_a"],
                         "change": times["doslab_b"],
                         "change_again": times["doslab_b2"]},
        "fingerprint": run.fingerprint(args.seed, threads),
    }
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("ab", {})[args.workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.workload}: {_line('change / parent', ab)}; "
          f"{_line('A/A', aa)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
