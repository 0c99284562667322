"""The four benchmark workloads.

A workload is built from a seed and a size, runs a reduced-size warm-up,
and then produces units on demand: ``batch(i)`` runs the i-th batch and
returns one output dict per unit it completed (anderson-average runs
several realizations per library call; the others run one unit per batch).
Every unit draws its inputs from ``(seed, unit index)``, so no two units
of a run share an input and a cache across calls cannot turn repeats into
hits.  ``check(out)`` returns the unit's failed conditions, empty when the
unit is correct.  ``PROBE`` names the host-speed probe (probe.py) that
matches the workload's dominant cost.

Why each workload exists (see METRICS.md for the metric map):

* chain-identity: dense assembly, the parity fold, eigensolves with
  vectors and values-only product eigensolves, slope fits and the dense
  peak memory, all in one pipeline (acceptance criterion 3's shape).
* anderson-average: one dense eigendecomposition with vectors per
  realization of an iid potential, nothing reused across units
  (criterion 9's shape); the target of KPM and tridiagonal solvers.
* percolation-growth: no operator and no eigensolve, so every spectral
  change must predict "no change" here (criterion 6's pipeline, with a
  sample write and read).
* cluster-spectrum: graph hopping assembly, BFS balls and dense
  eigensolves of an operator that is neither tridiagonal nor foldable.
"""
from __future__ import annotations

import math
import os

import numpy as np

# library calls go through the modules, so the tracer's patches apply
from doslab import dos, ergodic, hamiltonians, percolation, spaces
from doslab.hamiltonians import adjacency, iid_potential, periodic_potential
from doslab.spaces import Graph, Lattice
from doslab.spectral import bump, gaussian

DEFAULT_SEED = 0


# independent streams of one workload seed
UNIT, SETUP, WARM_UP = 0, 1, 2


def unit_rng(seed: int, index: int, stream: int = UNIT) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _seed63(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63 - 1))


# ---------------------------------------------------------------------------
# chain-identity


class ChainIdentity:
    """One unit: one spec on Z^1, truncations at R and R+100 shared by three
    trace-identity checks.  Even units use the free chain, odd units the
    period-2 [0, 1] potential."""

    SIZES = {
        # R_outer >= 1024 keeps the default slope window at n >= 2048;
        # unit i uses R_outer + (offset + i // 2) % R_SPAN, offset drawn from
        # the seed, so (spec, R) repeats only after 2 * R_SPAN units and the
        # cost stays flat
        "full": {"r_outer": 1100, "warm_r": 256},
        "smoke": {"r_outer": 1024, "warm_r": 256},
    }
    R_SPAN = 32
    MARGIN = 100.0
    PROFILES = ((0.0, 1.5), (-0.8, 1.0), (1.0, 1.2))
    MAX_GAP = 0.10
    per_batch = 1
    PROBE = "lapack"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.space = Lattice(1)
        self.specs = (("free", adjacency()),
                      ("period2", adjacency(periodic_potential([0.0, 1.0]))))
        self.profiles = tuple(bump(c, h) for c, h in self.PROFILES)
        self.offset = int(unit_rng(seed, 0, SETUP).integers(self.R_SPAN))

    def warm_up(self) -> None:
        # below R = 1024 the default slope window is too short, so the
        # warm-up passes an explicit one with eight dyadic points
        r = self.size["warm_r"]
        for _, spec in self.specs:
            self._unit(spec, r, window=(1, r))

    def _unit(self, spec, r_outer: int, window=None) -> list:
        radius = float(r_outer)
        ladder = self.space.ladder_to_radius(radius)
        w = hamiltonians.lattice_weight(self.space, ladder)
        operator = hamiltonians.build_truncated(self.space, spec, radius)
        dos_operator = hamiltonians.build_truncated(self.space, spec,
                                                    radius + self.MARGIN)
        return [dos.main_theorem_check(self.space, spec, g, w, radius,
                                       margin=self.MARGIN, ladder=ladder,
                                       operator=operator,
                                       dos_operator=dos_operator, window=window)
                for g in self.profiles]

    def batch(self, i: int) -> list:
        name, spec = self.specs[i % 2]
        r_outer = self.size["r_outer"] + (self.offset + i // 2) % self.R_SPAN
        checks = self._unit(spec, r_outer)
        return [{
            "spec": name, "r_outer": r_outer,
            "gaps": [c.relative_gap for c in checks],
            "lhs": [c.lhs_value for c in checks],
            "dos_tail": [c.rhs_limit for c in checks],
            "modulated_ok": [c.modulated_ok for c in checks],
        }]

    def check(self, out: dict) -> list:
        problems = []
        if max(out["gaps"]) > self.MAX_GAP:
            problems.append(f"relative gap {max(out['gaps']):.4f} > {self.MAX_GAP}")
        if not all(out["modulated_ok"]):
            problems.append("modulated gap slope not flat")
        return problems


# ---------------------------------------------------------------------------
# anderson-average


class AndersonAverage:
    """One unit: one realization of an iid uniform [0, 1] potential on Z^1,
    averaged over the cube window [-1000, 1000] with margin 50 (n = 2101).
    A batch is one ergodic_average call over a few realizations."""

    SIZES = {
        "full": {"schedule": (10, 100, 1000), "per_call": 3, "warm": (10, 100)},
        "smoke": {"schedule": (10, 100), "per_call": 2, "warm": (10,)},
    }
    MARGIN = 50.0
    PROBE = "lapack"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.space = Lattice(1)
        self.fn = gaussian(0.3, 0.7)
        self.window_size = 2 * self.size["schedule"][-1] + 1
        self.per_batch = self.size["per_call"]

    def _call(self, schedule, realizations: int, seed: int):
        # ergodic_average reseeds the potential per realization from ``seed``
        spec = adjacency(iid_potential(0.0, 1.0, seed=0))
        return ergodic.ergodic_average(self.space, spec, self.fn,
                                       ergodic.cubes(1, schedule),
                                       realizations=realizations, seed=seed,
                                       margin=self.MARGIN)

    def warm_up(self) -> None:
        self._call(self.size["warm"], 2, self.seed)

    def batch(self, i: int) -> list:
        call_seed = _seed63(unit_rng(self.seed, i))
        rep = self._call(self.size["schedule"], self.size["per_call"], call_seed)
        return [{"realization_seed": int(s), "average": float(a),
                 "window_size": rep.window_size}
                for s, a in zip(rep.seeds, rep.averages)]

    def check(self, out: dict) -> list:
        problems = []
        if out["window_size"] != self.window_size:
            problems.append(f"window covers {out['window_size']} sites, "
                            f"expected {self.window_size}")
        # 0 <= g <= 1, so every diagonal entry of g(H) and their mean is too
        if not (math.isfinite(out["average"]) and 0.0 <= out["average"] <= 1.0):
            problems.append(f"average {out['average']!r} outside [0, 1]")
        return problems


# ---------------------------------------------------------------------------
# percolation-growth


def _canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Each vertex mapped to the smallest vertex of its cluster."""
    _, inverse = np.unique(labels, return_inverse=True)
    smallest = np.full(inverse.max() + 1, len(labels), dtype=np.int64)
    np.minimum.at(smallest, inverse, np.arange(len(labels)))
    return smallest[inverse]


class PercolationGrowth:
    """One unit: one bond-percolation seed on [0, L)^2 at p = 0.6, its
    largest cluster, chemical-ball growth, the cluster ladder with the
    ball-ratio check, and a save -> load round trip.

    The plateau statistic and the ball-ratio verdict are recorded but not
    gated: they are properties of the random cluster, not of the code.  At
    L = 300, t_max = 75 the plateau exceeds criterion 6's 0.15 on 4 of 30
    seeds and the verdict is "inconclusive" on 1 of 48 (at L = 600,
    t_max = 300 the plateau still exceeds 0.15 on 1 of 60).  The gate
    instead recomputes the plateau from the growth table and checks the
    growth table against the cluster ladder.
    """

    SIZES = {
        "full": {"L": 300, "t_max": 75, "warm_L": 60},
        "smoke": {"L": 120, "t_max": 30, "warm_L": 40},
    }
    D = 2
    P = 0.6
    C_THRESHOLD = 0.05
    per_batch = 1
    PROBE = "python"

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.path = os.path.join(workdir, f"percolation-sample-{os.getpid()}.bin")

    def _unit(self, L: int, t_max: int, sample_seed: int) -> dict:
        sample = percolation.percolate_bonds(self.D, L, self.P, sample_seed)
        cluster = percolation.largest_cluster(sample)
        growth = percolation.chemical_ball_growth(cluster, t_max)
        ladder = cluster.radii_ladder(t_max)
        ratios = spaces.condition_c_report(ladder, threshold=self.C_THRESHOLD)
        percolation.save_sample(sample, self.path)
        loaded = percolation.load_sample(self.path)
        os.remove(self.path)
        return {
            "sample_seed": sample_seed, "cluster_size": int(cluster.n_nodes),
            "largest_label_count": int(np.unique(sample.labels,
                                                 return_counts=True)[1].max()),
            "ball_counts": [int(c) for c in growth.ball_counts],
            "ladder_counts": [int(c) for c in ladder.counts],
            "plateau": growth.plateau_stat, "ratio_verdict": ratios.verdict,
            "digest": percolation.sample_digest(sample),
            "loaded_digest": percolation.sample_digest(loaded),
            "same_partition": bool(np.array_equal(
                _canonical_partition(sample.labels),
                _canonical_partition(loaded.labels))),
        }

    def warm_up(self) -> None:
        L = self.size["warm_L"]
        self._unit(L, L // 4, self.seed)

    def batch(self, i: int) -> list:
        return [self._unit(self.size["L"], self.size["t_max"],
                           _seed63(unit_rng(self.seed, i)))]

    def check(self, out: dict) -> list:
        problems = []
        counts = np.asarray(out["ball_counts"], dtype=np.float64)
        if out["cluster_size"] != out["largest_label_count"]:
            problems.append("largest cluster size differs from the labels")
        if np.any(np.diff(counts) <= 0) or counts[-1] > out["cluster_size"]:
            problems.append("chemical ball counts do not grow inside the cluster")
        t = np.arange(1, len(counts) + 1)
        window = (counts / t ** self.D)[math.ceil(len(counts) / 2) - 1:]
        plateau = (window.max() - window.min()) / window.mean()
        if not math.isclose(plateau, out["plateau"], rel_tol=1e-12):
            problems.append(f"plateau {out['plateau']!r} != {plateau!r} "
                            "recomputed from the ball counts")
        if out["ladder_counts"] != out["ball_counts"]:
            problems.append("cluster ladder disagrees with the growth table")
        if out["loaded_digest"] != out["digest"]:
            problems.append("save -> load changed the sample digest")
        if not out["same_partition"]:
            problems.append("save -> load changed the cluster partition")
        return problems


# ---------------------------------------------------------------------------
# cluster-spectrum


class ClusterSpectrum:
    """One unit: a fresh truncation of adjacency + iid potential on a
    chemical ball of a percolation cluster, around a base vertex drawn near
    the box center, grown until it holds ``n_target`` sites; then the IDS
    (values only) and the DOS approximant (with vectors) on it."""

    SIZES = {
        "full": {"L": 200, "clusters": 2, "n_target": 1800, "warm_n": 300},
        "smoke": {"L": 60, "clusters": 1, "n_target": 250, "warm_n": 100},
    }
    P = 0.6
    MARGIN = 10
    per_batch = 1
    PROBE = "lapack"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.fn = gaussian(0.3, 0.7)
        rng = unit_rng(seed, 0, SETUP)
        self.clusters = [
            percolation.largest_cluster(percolation.percolate_bonds(
                2, self.size["L"], self.P, _seed63(rng)))
            for _ in range(self.size["clusters"])]

    def _unit(self, cluster: Graph, n_target: int, rng) -> dict:
        L = self.size["L"]
        near = np.flatnonzero(
            np.abs(cluster.coords - (L - 1) / 2.0).max(axis=1) <= L / 8)
        base = int(near[rng.integers(len(near))])
        graph = Graph(cluster.indptr, cluster.indices, base, cluster.labels,
                      cluster.coords, cluster.meta)
        ladder = graph.ladder_to_radius(float(L * L))
        radius = int(ladder.radii[np.searchsorted(ladder.counts, n_target)])
        spec = adjacency(iid_potential(0.0, 1.0, seed=_seed63(rng)))
        operator = hamiltonians.build_truncated(graph, spec, float(radius))
        hist = dos.ids_histogram(graph, spec, float(radius), operator=operator)
        est = dos.dos_approximant(graph, spec, self.fn,
                                  np.arange(1.0, radius - self.MARGIN + 1),
                                  margin=float(self.MARGIN), operator=operator)
        return {
            "base": int(graph.labels[base]), "radius": radius,
            "n": int(operator.n), "ids_n": int(hist.n),
            "eig_sum": float(hist.energies.sum()),
            "abs_eig_sum": float(np.abs(hist.energies).sum()),
            "trace": float(operator.potential.sum()),
            "dos_tail": est.tail_mean, "dos_diverged": bool(est.diverged),
        }

    def warm_up(self) -> None:
        self._unit(self.clusters[0], self.size["warm_n"],
                   unit_rng(self.seed, 0, WARM_UP))

    def batch(self, i: int) -> list:
        cluster = self.clusters[i % len(self.clusters)]
        return [self._unit(cluster, self.size["n_target"],
                           unit_rng(self.seed, i))]

    def check(self, out: dict) -> list:
        problems = []
        if out["ids_n"] != out["n"]:
            problems.append(f"IDS counts {out['ids_n']} of {out['n']} eigenvalues")
        # adjacency has a zero diagonal, so Tr H is the potential's sum
        if abs(out["eig_sum"] - out["trace"]) > 1e-9 * max(out["abs_eig_sum"], 1.0):
            problems.append(f"eigenvalue sum {out['eig_sum']!r} != trace "
                            f"{out['trace']!r}")
        if out["dos_diverged"]:
            problems.append("DOS tail diverged")
        return problems


WORKLOADS = {
    "chain-identity": ChainIdentity,
    "anderson-average": AndersonAverage,
    "percolation-growth": PercolationGrowth,
    "cluster-spectrum": ClusterSpectrum,
}


def make(name: str, seed: int, size: str, workdir: str):
    if name == "percolation-growth":
        return PercolationGrowth(seed, size, workdir)
    return WORKLOADS[name](seed, size)
