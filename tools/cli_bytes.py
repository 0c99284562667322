"""Check that two revisions of doslab write the same bytes from the CLI.

Each config in ``tools/configs`` is run once per revision: the command is
the file name up to its first dot (``space-check-c.f2.json`` runs
``doslab space check-c``), in a child process with ``--threads 1``, inside
a fresh temporary directory, so the config's relative output paths land
there.  A run is identical when its exit code, stdout, stderr and every
file it wrote (names and bytes) match.  For each output that differs, the
numbers in its text are paired in order and the largest absolute and
relative difference between them is printed.

A revision's ``src/`` is read with ``git archive`` into a temporary
directory, so no worktree is made and nothing under ``.git`` is written.
REV2 defaults to the working tree.

Usage: ``python tools/cli_bytes.py REV [REV2]`` prints one line per run and
exits 1 if any run differs.
"""
from __future__ import annotations

import io
import os
import pathlib
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "tools" / "configs"


def _extract_src(rev: str, into: pathlib.Path) -> pathlib.Path:
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


_NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _largest_difference(a: bytes, b: bytes) -> str:
    """The largest absolute and relative difference between the numbers of
    two outputs, paired in order of appearance."""
    x, y = ([float(t) for t in _NUMBER.findall(v)] for v in (a, b))
    if len(x) != len(y):
        return f"{len(x)} numbers against {len(y)}"
    diffs = [(abs(p - q), abs(p - q) / max(abs(p), abs(q)))
             for p, q in zip(x, y) if p != q]
    if not diffs:
        return f"same {len(x)} numbers"
    return (f"{len(diffs)} of {len(x)} numbers differ, largest by "
            f"{max(d for d, _ in diffs):.3g} absolute, "
            f"{max(r for _, r in diffs):.3g} relative")


def _command(config: pathlib.Path) -> list[str]:
    schema = config.name.split(".")[0]
    if schema.startswith("space-"):
        return ["space", schema[len("space-"):]]
    return [schema]


def _run(src: pathlib.Path, config: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and the written files of one run."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "doslab.cli", *_command(config),
             "--config", str(config), "--threads", "1"],
            cwd=cwd, env=env, capture_output=True)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(pathlib.Path(cwd).rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, **files}


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python tools/cli_bytes.py REV [REV2]", file=sys.stderr)
        return 1
    configs = sorted(CONFIGS.glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        srcs = [_extract_src(rev, tmp / str(i))
                for i, rev in enumerate(argv[1:])]
        if len(srcs) == 1:
            srcs.append(ROOT / "src")
        differ = 0
        for config in configs:
            a, b = (_run(src, config) for src in srcs)
            diff = [k for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]
            differ += bool(diff)
            status = f"differs: {', '.join(diff)}" if diff else "identical"
            print(f"{config.name:24s} exit {a['exit code']}  {status}")
            for key in diff:
                if isinstance(a.get(key), bytes) and isinstance(b.get(key),
                                                                bytes):
                    print(f"    {key}: {_largest_difference(a[key], b[key])}")
    print(f"{len(configs) - differ} of {len(configs)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
