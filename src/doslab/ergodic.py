"""Translation behaviour of the ball averages and averaging over disorder.

Three groups of checks live here:

* weight-shift decay: the gaps |w(x) - w(x-n)| of a lattice power weight,
  rearranged, fall off one power faster than the weight itself, which is
  what lets the trace ignore the choice of base point;
* equivariance: ball averages of diag g(H) around two base points agree
  in the limit, tested as finite-size decay;
* tempered Folner averaging: exact set arithmetic for the deviation and
  temperedness constants, and Monte Carlo averages of the diagonal of
  g(H) over a Folner window for iid potentials.

Potentials are functions of the absolute site, so moving the base point
of the lattice is literally evaluating the same field at shifted sites;
shifts aligned with a period give bit-identical builds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import derive_seed, site_keys
from .budget import charge
from .dos import DEFAULT_MARGIN, dos_approximant
from .errors import PreconditionFailed
from .hamiltonians import (HamiltonianSpec, WeightFunction, build_truncated)
from .spaces import Lattice
from .spectral import function_diagonal


# ---------------------------------------------------------------------------
# weight-shift decay


@dataclass
class ShiftGapReport:
    """Nonincreasing rearrangement of |w(x) - w(x-n)| over a ball.

    ``statistic`` is sup_k k^((d+1)/d) * gap_k (k 1-based): the finite
    stand-in for the weak-quasinorm one power below the weight's own
    scale.  Bounded statistics under radius doubling are the checkable
    form of the decay lemma.
    """

    gaps: np.ndarray
    statistic: float
    d: int
    shift: tuple
    radius: float


def shift_weight_gap(w: WeightFunction, shift,
                     radius: float) -> ShiftGapReport:
    if w.radius_fn is None or "d" not in w.descriptor:
        raise ValueError("shift gap needs a lattice power weight "
                         "(closed form in the distance)")
    d = int(w.descriptor["d"])
    p = float(w.descriptor.get("p", 2.0))
    shift = tuple(int(s) for s in np.atleast_1d(shift))
    if len(shift) != d:
        raise ValueError(f"shift has {len(shift)} components, lattice is {d}-d")
    space = Lattice(d, p)
    offsets, _, dists = space.ball_arrays(radius)
    here = w.radius_fn(dists)
    there = w.radius_fn(space.norms(offsets - np.asarray(shift, dtype=np.int64)))
    gaps = np.sort(np.abs(here - there))[::-1]
    k = np.arange(1, len(gaps) + 1, dtype=np.float64)
    statistic = float(np.max(k ** ((d + 1.0) / d) * gaps))
    return ShiftGapReport(gaps=gaps, statistic=statistic, d=d, shift=shift,
                          radius=float(radius))


# ---------------------------------------------------------------------------
# equivariance of ball averages


@dataclass
class EquivarianceReport:
    radii: np.ndarray
    values: np.ndarray
    shifted_values: np.ndarray
    diffs: np.ndarray
    shift: tuple

    @property
    def max_diff(self) -> float:
        return float(self.diffs.max())

    @property
    def tail_diff(self) -> float:
        return float(self.diffs[-1])

    @property
    def nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.diffs) <= 1e-15))


def equivariance_check(space, spec: HamiltonianSpec, shift, fn, radii,
                       margin: float = DEFAULT_MARGIN) -> EquivarianceReport:
    """Ball averages of diag g(H) around the base point and around the base
    point moved by ``shift``.

    Both operators evaluate the same potential field at absolute sites, so
    a shift aligned with a potential period reproduces the original build
    bit for bit and the differences are exactly zero.
    """
    if not isinstance(space, Lattice):
        raise ValueError("equivariance check needs a lattice space")
    shift = tuple(int(s) for s in np.atleast_1d(shift))
    if len(shift) != space.d:
        raise ValueError(f"shift has {len(shift)} components, "
                         f"the lattice has d = {space.d}")
    moved = Lattice(space.d, space.p,
                    base=[b + s for b, s in zip(space.base, shift)])
    est = dos_approximant(space, spec, fn, radii, margin=margin)
    est_shifted = dos_approximant(moved, spec, fn, radii, margin=margin)
    diffs = np.abs(est.values - est_shifted.values)
    return EquivarianceReport(radii=np.asarray(radii, dtype=np.float64),
                              values=est.values,
                              shifted_values=est_shifted.values,
                              diffs=diffs, shift=shift)


# ---------------------------------------------------------------------------
# Folner sequences


@dataclass
class FolnerSequence:
    """Schedule of finite subsets of Z^d: cubes [-n, n]^d, l1 balls of
    radius n, or dyadic intervals [0, 2^n) (``lacunary``, d = 1)."""

    shape: str
    d: int
    schedule: tuple

    def __post_init__(self):
        if self.shape not in ("cube", "ball", "lacunary"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if len(self.schedule) == 0:
            raise ValueError("empty schedule")
        if self.shape == "lacunary" and self.d != 1:
            raise ValueError("dyadic intervals are one-dimensional")
        cards = [self.cardinality(i) for i in range(len(self))]
        if any(b <= a for a, b in zip(cards, cards[1:])):
            raise ValueError("cardinalities must increase along the schedule")

    def __len__(self) -> int:
        return len(self.schedule)

    def cardinality(self, i: int) -> int:
        n = self.schedule[i]
        if self.shape == "cube":
            return (2 * n + 1) ** self.d
        if self.shape == "ball":
            return len(self.points(i))
        return 1 << n

    def points(self, i: int) -> np.ndarray:
        """The i-th set as an (m, d) array of coordinates."""
        n = self.schedule[i]
        if self.shape in ("cube", "ball"):
            # [-n, n]^d is the l_inf ball of radius n
            p = math.inf if self.shape == "cube" else 1.0
            return Lattice(self.d, p).ball_arrays(float(n))[0]
        charge(1 << n, "folner interval")
        return np.arange(1 << n, dtype=np.int64)[:, None]


def cubes(d: int, schedule) -> FolnerSequence:
    return FolnerSequence("cube", d, tuple(int(n) for n in schedule))


def l1_balls(d: int, schedule) -> FolnerSequence:
    return FolnerSequence("ball", d, tuple(int(n) for n in schedule))


@dataclass
class FolnerReport:
    """Exact shift deviations and the temperedness ratio table.

    ``deviations[i, j]`` is |F_i (symm diff) (F_i + e_j)| / |F_i|;
    ``tempered_ratios[i]`` is |union_{k<=i} (-F_k) + F_{i+1}| / |F_{i+1}|
    and ``c_estimate`` their maximum.
    """

    shape: str
    schedule: tuple
    cardinalities: np.ndarray
    deviations: np.ndarray
    tempered_ratios: np.ndarray
    c_estimate: float


def _mask_extent(points: np.ndarray) -> int:
    return int(np.abs(points).max(initial=0))


def _as_mask(points: np.ndarray, extent: int) -> np.ndarray:
    d = points.shape[1]
    side = 2 * extent + 1
    m = np.zeros((side,) * d, dtype=bool)
    m[tuple((points + extent).T)] = True
    return m


def _minkowski(mask_a: np.ndarray, into: np.ndarray) -> np.ndarray:
    """into union-with (A + B) where B is already embedded in ``into``'s grid.

    scipy's dilation adds structure offsets without reflection, so the
    structure mask is used as is.  scipy.ndimage (which loads
    scipy.special) is imported here, at its one use, so that importing
    this module stays cheap.
    """
    from scipy.ndimage import binary_dilation
    return binary_dilation(into, structure=mask_a)


def folner_tempered_check(seq: FolnerSequence,
                          n_max: int | None = None) -> FolnerReport:
    """Exact deviation fractions per generator and temperedness ratios."""
    if n_max is None:
        n_max = len(seq)
    if n_max < 3:
        raise ValueError("need at least 3 sets for a trend")
    if n_max > len(seq):
        raise ValueError(f"schedule has only {len(seq)} sets")
    if seq.shape == "lacunary":
        return _lacunary_report(seq, n_max)
    pts = [seq.points(i) for i in range(n_max)]
    cards = np.array([len(p) for p in pts], dtype=np.int64)
    d = seq.d
    deviations = np.empty((n_max, d))
    for i, p in enumerate(pts):
        keys = site_keys(p)
        for j in range(d):
            e = np.zeros(d, dtype=np.int64)
            e[j] = 1
            moved = site_keys(p + e)
            common = len(np.intersect1d(keys, moved, assume_unique=True))
            deviations[i, j] = 2.0 * (len(p) - common) / len(p)
    ratios = np.empty(n_max - 1)
    for i in range(n_max - 1):
        target = pts[i + 1]
        extent = _mask_extent(target) + max(_mask_extent(q)
                                            for q in pts[: i + 1])
        acc = np.zeros((2 * extent + 1,) * d, dtype=bool)
        base = _as_mask(target, extent)
        for k in range(i + 1):
            flipped = _as_mask(-pts[k], _mask_extent(pts[k]))
            acc |= _minkowski(flipped, base)
        ratios[i] = acc.sum() / len(target)
    return FolnerReport(shape=seq.shape, schedule=tuple(seq.schedule[:n_max]),
                        cardinalities=cards, deviations=deviations,
                        tempered_ratios=ratios,
                        c_estimate=float(ratios.max()))


def _lacunary_report(seq: FolnerSequence, n_max: int) -> FolnerReport:
    # F_n = [0, 2^n): everything has closed form in exact integers
    ns = np.array(seq.schedule[:n_max], dtype=np.int64)
    cards = (np.int64(1) << ns).astype(np.int64)
    deviations = (2.0 / cards)[:, None]
    ratios = np.empty(n_max - 1)
    for i in range(n_max - 1):
        # union_{k<=i} {-(2^{n_k}-1)..0} + {0..2^{n_{i+1}}-1}
        size = (1 << int(ns[i])) + (1 << int(ns[i + 1])) - 1
        ratios[i] = size / float(1 << int(ns[i + 1]))
    return FolnerReport(shape="lacunary", schedule=tuple(int(n) for n in ns),
                        cardinalities=cards, deviations=deviations,
                        tempered_ratios=ratios, c_estimate=float(ratios.max()))


# ---------------------------------------------------------------------------
# ergodic averaging over iid potentials


@dataclass
class ErgodicReport:
    """Window averages per realization and their spread.

    ``solvers`` is the (solver, size) per block of the realizations'
    operators, which share one sparsity pattern, and ``diagonal_routes``
    holds, per realization, the route diag g(H) took on each block.
    """

    averages: np.ndarray
    seeds: tuple
    mean: float
    std: float
    sem: float
    z_scores: np.ndarray
    n_within_3std: int
    window_size: int
    solvers: tuple
    diagonal_routes: tuple

    @property
    def n_realizations(self) -> int:
        return len(self.averages)


def _window_indices(op, window_points: np.ndarray) -> np.ndarray:
    keys = site_keys(op.points)
    order = np.argsort(keys)
    wanted = site_keys(window_points)
    pos = np.searchsorted(keys[order], wanted)
    if np.any(pos >= len(keys)) or np.any(keys[order][np.minimum(pos, len(keys) - 1)] != wanted):
        raise ValueError("folner window escapes the built ball")
    # ball order, not listing order: the window's mean then sums the same
    # set in the same order however the Folner sequence lists it
    return np.sort(order[pos])


def ergodic_average(space: Lattice, spec: HamiltonianSpec, fn,
                    folner: FolnerSequence, realizations: int, seed: int,
                    margin: float = DEFAULT_MARGIN,
                    index: int = -1) -> ErgodicReport:
    """Folner-window averages of diag g(H) across disorder realizations.

    Realization j rebuilds the operator with the potential's field reseeded
    by child seed j, truncated to a ball covering the window plus margin.
    z-scores use the cross-realization standard deviation (for a degenerate
    field the std is zero and the z-scores are reported as zero).
    """
    if not isinstance(space, Lattice):
        raise ValueError("ergodic averaging needs a lattice space")
    if spec.potential.kind != "iid_uniform":
        raise PreconditionFailed("ergodic averaging needs an iid potential")
    if realizations < 2:
        raise ValueError("need at least 2 realizations")
    if margin < 1:
        raise ValueError(
            "margin too small: the truncation must strictly contain the "
            "folner window")
    if not -len(folner) <= index < len(folner):
        raise ValueError(f"index {index} outside the folner schedule of "
                         f"{len(folner)} sets")
    window = folner.points(index)
    if window.shape[1] != space.d:
        raise ValueError("folner sets and lattice have different dimension")
    radius = float(np.max(space.norms(window))) + float(margin)
    seeds = tuple(derive_seed(seed, j) for j in range(realizations))
    averages = np.empty(realizations)
    routes = []
    idx = None
    for j, child in enumerate(seeds):
        spec_j = HamiltonianSpec(
            spec.hopping, replace(spec.potential, seed=child))
        op = build_truncated(space, spec_j, radius)
        if idx is None:
            idx = _window_indices(op, window)
        diag = function_diagonal(op, fn)
        averages[j] = float(np.mean(diag.values[idx]))
        routes.append(diag.routes)
    mean = float(averages.mean())
    std = float(averages.std(ddof=1))
    sem = std / math.sqrt(realizations)
    z = np.zeros_like(averages) if std == 0 else (averages - mean) / std
    return ErgodicReport(averages=averages, seeds=seeds, mean=mean, std=std,
                         sem=sem, z_scores=z,
                         n_within_3std=int(np.sum(np.abs(z) <= 3.0)),
                         window_size=len(window), solvers=op.solvers,
                         diagonal_routes=tuple(routes))
