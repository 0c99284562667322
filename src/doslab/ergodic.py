"""Translation behaviour of the ball averages and averaging over disorder.

Three groups of checks live here:

* weight-shift decay: the gaps |w(x) - w(x-n)| of a lattice power weight,
  rearranged, fall off one power faster than the weight itself, which is
  what lets the trace ignore the choice of base point;
* equivariance: ball averages of diag g(H) around two base points agree
  in the limit, tested as finite-size decay;
* tempered Folner averaging: the deviation and temperedness constants of
  cubes, l1 balls and dyadic intervals as quotients of closed-form
  integer counts (nothing is enumerated), and Monte Carlo averages of the
  diagonal of g(H) over a Folner window for iid potentials.

Potentials are functions of the absolute site, so moving the base point
of the lattice is literally evaluating the same field at shifted sites;
shifts aligned with a period give bit-identical builds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import FOLNER_SHAPES
from ._rng import derive_seed
from .budget import charge
from .dos import DEFAULT_MARGIN, dos_approximant
from .errors import PreconditionFailed
from .hamiltonians import HamiltonianSpec, WeightFunction, build_truncated
from .spaces import Lattice, lattice_ball_count, site_rows
from .spectral import function_diagonal

_INT64_MAX = int(np.iinfo(np.int64).max)


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
    with warnings.catch_warnings():
        # the shifted family would repeat the margin-0 warning just given
        warnings.filterwarnings("ignore", "margin 0:", UserWarning)
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
    radius n, or dyadic intervals [0, 2^n) (``lacunary``, d = 1).

    Every set's size is an exact integer in closed form, so nothing is
    enumerated until ``points`` is asked for.
    """

    shape: str
    d: int
    schedule: tuple

    def __post_init__(self):
        if self.shape not in FOLNER_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if len(self.schedule) == 0:
            raise ValueError("empty schedule")
        if self.shape == "lacunary" and self.d != 1:
            raise ValueError("dyadic intervals are one-dimensional")
        if self.shape == "lacunary" and max(self.schedule) > 62:
            raise ValueError("schedule: a dyadic interval [0, 2^n) has an "
                             "int64 size only for n <= 62")
        cards = [self.cardinality(i) for i in range(len(self))]
        for i, c in enumerate(cards):
            if c > _INT64_MAX:
                raise ValueError(f"schedule[{i}]: the {self.shape} in d = "
                                 f"{self.d} has more points than int64 holds")
        if any(b <= a for a, b in zip(cards, cards[1:])):
            raise ValueError("cardinalities must increase along the schedule")

    def __len__(self) -> int:
        return len(self.schedule)

    @property
    def _p(self) -> float:
        # [-n, n]^d is the l_inf ball of radius n
        return math.inf if self.shape == "cube" else 1.0

    def cardinality(self, i: int) -> int:
        n = self.schedule[i]
        if self.shape == "lacunary":
            return 1 << n
        return lattice_ball_count(self.d, self._p, n)

    def _lost(self, i: int) -> int:
        """|F_i minus (F_i + e_j)|, the same for every generator e_j.

        Each line parallel to e_j meets a cube or an l1 ball in one run of
        sites, and exactly the first site of each run is lost, so the count
        is the size of the projection: the same ball in d - 1 dimensions.
        """
        if self.shape == "lacunary":
            return 1
        return lattice_ball_count(self.d - 1, self._p, self.schedule[i])

    def _union_size(self, i: int) -> int:
        """|union_{k<=i} (-F_k) + F_{i+1}| along the increasing schedule.

        Cubes and l1 balls are symmetric and nested, and B_a + B_b =
        B_(a+b) on Z^d, so the union is the ball of radius n_i + n_(i+1);
        for dyadic intervals it is (-2^(n_i), 2^(n_(i+1))).
        """
        a, b = self.schedule[i], self.schedule[i + 1]
        if self.shape == "lacunary":
            return (1 << a) + (1 << b) - 1
        return lattice_ball_count(self.d, self._p, a + b)

    def points(self, i: int) -> np.ndarray:
        """The i-th set as an (m, d) array of coordinates."""
        n = self.schedule[i]
        if self.shape in ("cube", "ball"):
            return Lattice(self.d, self._p).ball_arrays(float(n))[0]
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


def folner_tempered_check(seq: FolnerSequence,
                          n_max: int | None = None) -> FolnerReport:
    """Exact deviation fractions per generator and temperedness ratios,
    each a quotient of the closed-form integer counts of the sets."""
    if n_max is None:
        n_max = len(seq)
    if n_max < 3:
        raise ValueError("need at least 3 sets for a trend")
    if n_max > len(seq):
        raise ValueError(f"schedule has only {len(seq)} sets")
    cards = [seq.cardinality(i) for i in range(n_max)]
    deviation = [2.0 * seq._lost(i) / cards[i] for i in range(n_max)]
    ratios = np.array([float(seq._union_size(i)) / float(cards[i + 1])
                       for i in range(n_max - 1)])
    return FolnerReport(shape=seq.shape, schedule=tuple(seq.schedule[:n_max]),
                        cardinalities=np.array(cards, dtype=np.int64),
                        deviations=np.repeat(np.array(deviation)[:, None],
                                             seq.d, axis=1),
                        tempered_ratios=ratios,
                        c_estimate=float(ratios.max()))


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
    rows = site_rows(op.points, window_points)
    if np.any(rows < 0):
        raise ValueError("folner window escapes the built ball")
    # ball order, not listing order: the window's mean then sums the same
    # set in the same order however the Folner sequence lists it
    return np.sort(rows)


def ergodic_average(space: Lattice, spec: HamiltonianSpec, fn,
                    folner: FolnerSequence, realizations: int, seed: int,
                    margin: float = DEFAULT_MARGIN,
                    index: int = -1) -> ErgodicReport:
    """Folner-window averages of diag g(H) across disorder realizations.

    Realization j builds the operator with the potential's field reseeded
    by child seed j, truncated to a ball covering the window plus margin.
    Only the potential differs between realizations, so every build after
    the first takes the first one's ``frame`` (ball, levels, hopping
    triplets and orbit order); each still runs the rest of
    ``build_truncated``, its own fold decision included.  Nothing outlives
    the call.  z-scores use the cross-realization standard deviation (for
    a degenerate field the std is zero and the z-scores are reported as
    zero).
    """
    if not isinstance(space, Lattice):
        raise ValueError("ergodic averaging needs a lattice space")
    if spec.potential.kind != "iid_uniform":
        raise PreconditionFailed("ergodic averaging needs an iid potential")
    if realizations < 2:
        raise ValueError("need at least 2 realizations")
    if not margin >= 1:
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
    op = idx = None
    for j, child in enumerate(seeds):
        spec_j = HamiltonianSpec(
            spec.hopping, replace(spec.potential, seed=child))
        op = build_truncated(space, spec_j, radius,
                             frame=None if op is None else op.frame)
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
