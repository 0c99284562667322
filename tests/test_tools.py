"""The paired in-process A/B tool, ``tools/ab.py``, on the working tree."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _ab():
    spec = importlib.util.spec_from_file_location("ab_tool",
                                                  ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_runs_two_copies_of_a_tree_side_by_side(tmp_path):
    """Each copy of ``doslab`` loads under its own name with a workloads
    module bound to it, every round times the same batch on each copy,
    and the median ratio lies inside its bootstrap CI."""
    ab = _ab()
    workloads = {}
    for name in ("doslab_ab_x", "doslab_ab_y"):
        module = ab.load_tree(ROOT, name, tmp_path / "packages")
        assert module.Lattice.__module__ == f"{name}.spaces"
        assert module.ergodic.__name__ == f"{name}.ergodic"
        workloads[name] = module.make("anderson-average", 0, "smoke",
                                      str(tmp_path))
    times = ab.run_rounds(workloads, 0.2, seed=0)
    assert len(times["doslab_ab_x"]) == len(times["doslab_ab_y"]) >= 2
    stat = ab.median_ratio(times["doslab_ab_y"], times["doslab_ab_x"], seed=0)
    lo, hi = stat["ci95"]
    assert 0.0 < lo <= stat["ratio"] <= hi
    assert stat["pairs"] == len(times["doslab_ab_x"])


def test_ab_stops_at_the_first_unit_that_fails_its_check():
    class Wrong:
        def batch(self, i):
            return [{"unit": i}]

        def check(self, out):
            return [f"unit {out['unit']} is wrong"]

    ab = _ab()
    with pytest.raises(ab.UnitFailed, match="w, batch 0: unit 0 is wrong"):
        ab.run_rounds({"w": Wrong()}, 0.0, seed=0)
