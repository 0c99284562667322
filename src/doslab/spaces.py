"""Discrete metric spaces: balls, radii ladders and the ball-ratio condition.

A space is a countable set with a base point and a proper metric whose
distance values from the base form a discrete ladder r_1 < r_2 < ...
Supported kinds: integer lattices with an l_p metric, finite graphs with
the hop metric, the Cayley graph of the rank-2 free group, and percolation
clusters (built in :mod:`doslab.percolation`, represented as graphs here).

Enumeration conventions
-----------------------
* Ball points are sorted by (distance, canonical point order); the
  canonical order is lexicographic coordinates for lattices, node index
  for graphs and packed-word order for free-group elements.
* Distances are deduplicated on exact integer keys where the metric allows
  it (l_1, l_2 via squared distances, l_inf, hop counts); other exponents
  fall back to a 1e-9 rounding grid.
* Ladder index 0 is reserved for the base point (count 1, radius 0); the
  stored arrays start at the first positive radius.

What every space provides
-------------------------
``key_limit(radius)`` is the one ball rule: the largest dedupe key inside
the closed ball of a float radius, elementwise over an array of radii; a
negative or NaN radius is refused.
Every radius-to-ball decision asks it: ``ball_arrays`` and ``levels``
here, the lattice box (the smallest box that holds every key up to the
limit), and the ball prefixes of a truncated operator, which keeps its
level keys and its space.
``ball_arrays(radius)`` gives the ball's points, dedupe keys and
distances; ``levels(radius)``, the one ball-count path, its realised keys
(base first) with cumulative counts, which both ladders and a truncated
operator read.  ``neighbours(points)`` gives the neighbour pairs among ball
points and each point's degree in the untruncated space, and
``site_ids(points)`` the key a random field is drawn at.  Operator
assembly asks nothing else of a point, so each point format is read only
in this module.  A lattice adds ``offset_pairs`` (pairs at any offsets,
for kernels) and ``site_rows``, the one lattice site index: a position map
over the points' bounding box, in any dimension and at any coordinates.
A graph builds its CSR ``adj`` once, for every search and slice.
``induced_csr`` is the one CSR gather: graph slices and every block of a
truncated operator are cut out by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from ._rng import site_keys
from .budget import charge
from .errors import GraphParseError

_GENERAL_P_GRID = 1e-9


# radii past 2^31 count as 2^31, so that every key limit (a squared
# radius on l_2) fits in int64; even a chain ball that wide has 4e9
# points, about 86 times the default point budget
_FAR = 2.0 ** 31


def _capped(radius):
    """``radius`` as floats capped at _FAR, refused unless every entry is
    >= 0 (a NaN is not)."""
    r = np.asarray(radius, dtype=np.float64)
    if not np.all(r >= 0):
        raise ValueError("radius must be >= 0")
    return np.minimum(r, _FAR)


def _floor_keys(x):
    """floor(x + 1e-9) as int64 keys, elementwise: the slack keeps a key
    that ``x`` misses by rounding inside."""
    return np.floor(x + 1e-9).astype(np.int64)[()]


@dataclass
class RadiiLadder:
    """Realised distances from the base point with cumulative ball counts.

    ``radii[k]`` is the (k+1)-th positive distance, ``counts[k]`` the number
    of points within it.
    """

    radii: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.radii) != len(self.counts):
            raise ValueError("radii and counts length mismatch")
        if len(self.radii) == 0:
            raise ValueError("empty ladder")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if self.counts[0] <= 1 or np.any(np.diff(self.counts) <= 0):
            raise ValueError("ball counts must be strictly increasing from the base")

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def shells(self) -> np.ndarray:
        """Shell sizes S_k = N_k - N_{k-1} with N_0 = 1 (the base point)."""
        return np.diff(self.counts, prepend=np.int64(1))

    @property
    def ratios(self) -> np.ndarray:
        """Consecutive ball-count ratios N_{k+1} / N_k for k = 1..K-1."""
        return self.counts[1:] / self.counts[:-1]

    def level_arrays(self):
        """(radii, counts) including the level-0 base entry."""
        r = np.concatenate(([0.0], self.radii))
        n = np.concatenate(([1], self.counts)).astype(np.int64)
        return r, n

    def prefix(self, k: int) -> "RadiiLadder":
        if not 1 <= k <= len(self):
            raise ValueError(f"prefix length {k} out of range 1..{len(self)}")
        return RadiiLadder(self.radii[:k], self.counts[:k])

    def to_rows(self):
        """Rows (k, r_k, ball_count, shell_count, ratio) with ratio = N_k/N_{k-1}."""
        prev = np.concatenate(([1], self.counts[:-1]))
        return list(zip(range(1, len(self) + 1), self.radii.tolist(),
                        self.counts.tolist(), self.shells.tolist(),
                        (self.counts / prev).tolist()))


@dataclass
class CRatioReport:
    """Verdict on whether consecutive ball counts flatten out.

    ``ratios[k]`` is N_{k+2}/N_{k+1} (0-based into the ladder tail); the
    verdict is

    * ``"pass"``        tail deviations within threshold and window maxima
                        non-increasing across the three dyadic sub-windows,
    * ``"fail"``        deviations stabilised above the threshold,
    * ``"inconclusive"`` anything else.
    """

    ratios: np.ndarray
    deviations: np.ndarray
    threshold: float
    tail_fraction: float
    max_tail_deviation: float
    min_tail_deviation: float
    tail_mean_ratio: float
    trend_maxima: tuple
    verdict: str


def condition_c_report(ladder: RadiiLadder, threshold: float = 0.01,
                       tail_fraction: float = 0.2) -> CRatioReport:
    """Check N_{k+1}/N_k -> 1 on the ladder tail.

    Needs at least 10 ladder entries.  The trend check splits the ratio
    index range into dyadic windows (K/8..K/4, K/4..K/2, K/2..K) and
    requires their maxima to be non-increasing, so a slowly flattening
    sequence is not passed on a lucky tail alone.
    """
    if len(ladder) < 10:
        raise ValueError(f"need at least 10 ladder entries, got {len(ladder)}")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    ratios = ladder.ratios
    dev = np.abs(ratios - 1.0)
    m = len(dev)
    tail_start = m - int(math.ceil(tail_fraction * m))
    tail = dev[tail_start:]
    w1 = dev[m // 8: m // 4]
    w2 = dev[m // 4: m // 2]
    w3 = dev[m // 2:]
    trend = (float(w1.max()), float(w2.max()), float(w3.max()))
    max_tail = float(tail.max())
    min_tail = float(tail.min())
    if max_tail <= threshold and trend[0] >= trend[1] >= trend[2]:
        verdict = "pass"
    elif min_tail > threshold:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return CRatioReport(
        ratios=ratios, deviations=dev, threshold=threshold,
        tail_fraction=tail_fraction,
        max_tail_deviation=max_tail, min_tail_deviation=min_tail,
        tail_mean_ratio=float(ratios[tail_start:].mean()),
        trend_maxima=trend, verdict=verdict)


def lattice_ball_count(d: int, p: float, k):
    """Points of Z^d within integer l_p distance k of the origin, for
    p = inf (or any p when d = 1) and p = 1: (2k+1)^d, or
    sum_i 2^i C(d,i) C(k,i) for p = 1.

    ``k`` is a Python int or an int64 array; the arithmetic is exact
    integer arithmetic in the same type.  d = 0 gives 1.
    """
    if p != 1.0:
        return (2 * k + 1) ** d
    count = 1 + 0 * k
    choose = 1 + 0 * k  # C(k, i)
    for i in range(1, d + 1):
        choose = choose * (k - i + 1) // i
        count = count + 2 ** i * math.comb(d, i) * choose
    return count


# Both ladders read ``levels`` alone; the classes perfbench traces bind them.

def ladder_to_radius(space, radius: float) -> RadiiLadder:
    """Realised radii up to ``radius`` with their ball counts: the space's
    ``levels`` without the base level, refused when that leaves none."""
    keys, counts = space.levels(radius)
    if len(keys) < 2:
        raise ValueError(
            f"radius: {radius:g} is below the first realised distance")
    if keys[0] != 0:
        raise AssertionError("base point missing from its own ball")
    return RadiiLadder(space._key_radius(keys[1:]), counts[1:])


def _hop_radii_ladder(space, k_max: int) -> RadiiLadder:
    """First ``k_max`` positive hop distances with their ball counts,
    refused past the eccentricity of the base."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    keys, counts = space.levels(float(k_max))
    if len(keys) <= k_max:
        raise ValueError(f"graph eccentricity from base is {int(keys[-1])}; "
                         f"cannot build k_max={k_max} ladder")
    return RadiiLadder(space._key_radius(keys[1:]), counts[1:])


class Lattice:
    """Z^d with the l_p metric (p >= 1, numpy.inf allowed) around a base point.

    ``neighbours`` is the nearest-neighbour lattice graph regardless of p;
    the exponent only shapes balls and ladders.
    """

    kind = "lattice"

    def __init__(self, d: int, p: float = 2.0, base: Sequence[int] | None = None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if not (p >= 1):
            raise ValueError("p must be >= 1")
        self.d = int(d)
        self.p = float(p)
        # the realised distances are 0, 1, 2, ... with closed-form counts
        self._integer_radii = self.d == 1 or self.p in (1.0, math.inf)
        self.base = tuple(int(b) for b in ((0,) * d if base is None else base))
        if len(self.base) != self.d:
            raise ValueError("base point dimension mismatch")

    def __repr__(self):
        p = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"Lattice(d={self.d}, p={p}, base={self.base})"

    def _norm_keys(self, offsets: np.ndarray):
        """Dedupe key (int64) and float distance for each offset row."""
        a = np.abs(offsets)
        if self.p not in (1.0, 2.0, math.inf):
            with np.errstate(over="ignore"):
                v = (a.astype(np.float64) ** self.p).sum(axis=1) ** (1.0 / self.p)
            if not np.isfinite(v).all():
                raise ValueError(f"p = {self.p:g}: l_p lengths leave the float range")
            return np.rint(v / _GENERAL_P_GRID).astype(np.int64), v
        if self.p == 1.0:
            k = a.sum(axis=1)
        elif self.p == 2.0:
            k = (a.astype(np.int64) ** 2).sum(axis=1)
        else:
            k = a.max(axis=1)
        return k, self._key_radius(k)

    def key_limit(self, radius):
        """Largest dedupe key still inside the closed ball of ``radius``,
        elementwise over an array of radii."""
        r = _capped(radius)
        if self.p not in (1.0, 2.0, math.inf):
            grid = _GENERAL_P_GRID
            return np.rint((r + grid) / grid).astype(np.int64)[()]
        return _floor_keys(r * r * (1 + 1e-12) if self.p == 2.0 else r)

    def _key_radius(self, keys):
        """The distance each dedupe key stands for."""
        k = np.asarray(keys, dtype=np.float64)
        if self.p not in (1.0, 2.0, math.inf):
            return k * _GENERAL_P_GRID
        return np.sqrt(k) if self.p == 2.0 else k

    def _box_half(self, radius: float) -> int:
        """Half side of the smallest box that holds every key up to
        ``key_limit``, its points charged: the largest axis offset whose
        key is within the limit (half a key of slack keeps the inverse
        clear of rounding)."""
        if math.isinf(radius):
            raise ValueError("radius must be finite")
        half = int(math.floor(self._key_radius(self.key_limit(radius) + 0.5)))
        charge((2 * half + 1) ** self.d,
               f"ball of radius {radius:g} in {self!r}")
        return half

    def _box(self, radius: float) -> np.ndarray:
        half = self._box_half(radius)
        axes = (np.arange(-half, half + 1, dtype=np.int64),) * self.d
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, self.d)

    def ball_arrays(self, radius: float):
        """(sites, keys, dists) inside the closed ball around the base, in
        canonical order; keys and dists are measured from the base."""
        offsets = self._box(radius)
        keys, dists = self._norm_keys(offsets)
        mask = keys <= self.key_limit(radius)
        offsets, keys, dists = offsets[mask], keys[mask], dists[mask]
        order = np.lexsort((*offsets.T[::-1], keys))
        sites = offsets[order] + np.asarray(self.base, dtype=np.int64)
        return sites, keys[order], dists[order]

    def norms(self, offsets) -> np.ndarray:
        """l_p lengths of the rows of an integer offset array."""
        arr = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        if arr.shape[1] != self.d:
            raise ValueError("offset dimension mismatch")
        return self._norm_keys(arr)[1]

    def levels(self, radius: float):
        """(keys, counts): the keys realised within ``radius``, base first,
        with the ball count through each, in closed form on integer radii
        and else counted off the box, which is charged either way."""
        limit = self.key_limit(radius)
        if self._integer_radii:
            k = np.arange(self._box_half(radius) + 1, dtype=np.int64)
            keys = self._norm_keys(k[:, None])[0]
            inside = keys <= limit
            return keys[inside], lattice_ball_count(self.d, self.p, k[inside])
        keys = self._norm_keys(self._box(radius))[0]
        keys, cnt = np.unique(keys[keys <= limit], return_counts=True)
        return keys, np.cumsum(cnt)

    ladder_to_radius = ladder_to_radius

    def radii_ladder(self, k_max: int) -> RadiiLadder:
        """First ``k_max`` positive realised radii with their ball counts."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        radius = (float(k_max) if self._integer_radii
                  else max(4.0, math.ceil(1.2 * k_max ** (1.0 / self.d))))
        while True:
            ladder = self.ladder_to_radius(radius)
            if len(ladder) >= k_max:
                return ladder.prefix(k_max)
            radius = math.ceil(radius * 1.5)

    def distance(self, x: Sequence[int], y: Sequence[int]) -> float:
        return float(self.norms(np.subtract(x, y))[0])

    def offset_pairs(self, points: np.ndarray, offsets):
        """(rows, cols, which): point ``rows[k]`` moved by
        ``offsets[which[k]]`` is point ``cols[k]``, for every such pair
        among ``points``, offset by offset."""
        # moved[o, i] is site i moved by offset o; flat entry o * n + i
        moved = points + np.reshape(offsets, (-1, 1, self.d)).astype(np.int64)
        cols = site_rows(points, moved.reshape(-1, self.d))
        hit = np.flatnonzero(cols >= 0)
        return hit % len(points), cols[hit], hit // len(points)

    def neighbours(self, points: np.ndarray):
        """(rows, cols, degree): the pairs at the unit offsets +-e_a among
        ``points``, both ways, and the degree 2d of every point."""
        unit = np.concatenate((np.eye(self.d), -np.eye(self.d)))
        rows, cols, _ = self.offset_pairs(points, unit)
        return rows, cols, np.full(len(points), 2.0 * self.d)

    def site_ids(self, points: np.ndarray) -> np.ndarray:
        """The packed coordinates of the sites ``points`` (``site_keys``)."""
        return site_keys(points)


def site_rows(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Row of each lattice site of ``sites`` in ``points``, -1 where the
    site is not among them.

    A position map over the bounding box of ``points`` holds each point's
    row at its row-major box index, and one slot past the box holds -1 for
    every site outside it.  For a ball the box is never larger than the
    one ``Lattice._box`` charged, in any dimension and at any coordinates.
    """
    index, inside, size = 0, True, 1
    for c, axis in zip(np.concatenate((points, sites)).T, points.T):
        low, width = int(axis.min()), int(np.ptp(axis)) + 1
        c = np.subtract(c, low, dtype=np.int64)
        inside = inside & (c.view(np.uint64) < width)
        index, size = index * width + c, size * width
    pos = np.full(size + 1, -1)
    pos[index[:len(points)]] = np.arange(len(points))
    return pos[np.where(inside, index, -1)[len(points):]]


class _HopMetric:
    """The ball rule and the ladders of a hop metric, whose dedupe key is
    the distance."""

    def key_limit(self, radius):
        """Largest hop count inside the closed ball of ``radius``,
        elementwise over an array of radii."""
        return _floor_keys(_capped(radius))

    def _key_radius(self, keys):
        return np.asarray(keys, dtype=np.float64)

    ladder_to_radius = ladder_to_radius
    radii_ladder = _hop_radii_ladder


def induced_csr(adj: sparse.csr_array, keep: np.ndarray, pos=None,
                signs=None) -> sparse.csr_array:
    """Rows ``keep`` (distinct indices, in any order) of a square CSR
    matrix as a len(keep)-square matrix, each column j moved to ``pos[j]``
    and multiplied by ``signs[j]``: the one CSR gather, for graph slices
    and for every block of an operator.  Row i of the result is row
    keep[i].

    A column of sign 0 is dropped.  The default map moves keep[i] to i
    with sign 1 and gives every other column sign 0, which cuts out rows
    and columns ``keep``; an orbit map moves several columns to one, and
    the entries that land together are summed.  Zeros are dropped last,
    the entries of sign 0 among them, and rows come out sorted.
    """
    if pos is None:
        pos, signs = np.zeros((2, adj.shape[0]), dtype=adj.indices.dtype)
        pos[keep], signs[keep] = np.arange(len(keep)), 1
    rows = adj[keep]
    sub = sparse.csr_array((rows.data * signs[rows.indices], pos[rows.indices],
                            rows.indptr), shape=(len(keep),) * 2)
    sub.sum_duplicates()
    sub.eliminate_zeros()
    return sub


class Graph(_HopMetric):
    """Finite connected graph with the hop metric.

    Nodes are relabelled 0..n-1 in increasing original-label order;
    ``labels[i]`` recovers the input id.  ``coords`` is optional vertex
    geometry carried along by percolation clusters.
    """

    kind = "graph"

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, base_index: int,
                 labels: np.ndarray | None = None,
                 coords: np.ndarray | None = None,
                 meta: dict | None = None):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        self.n_nodes = n = len(indptr) - 1
        if not 0 <= base_index < n:
            raise ValueError("base index out of range")
        index = sparse.get_index_dtype(maxval=max(n, len(indices)))
        self.adj = sparse.csr_array(
            (np.ones(len(indices)), indices.astype(index, copy=False),
             indptr.astype(index, copy=False)), shape=(n, n))
        self.indptr, self.indices = self.adj.indptr, self.adj.indices
        self.base_index = int(base_index)
        self.labels = (np.arange(self.n_nodes, dtype=np.int64)
                       if labels is None else np.asarray(labels, dtype=np.int64))
        self.coords = coords
        self.meta = dict(meta or {})
        self._base_dist: np.ndarray | None = None

    @property
    def base(self):
        return int(self.labels[self.base_index])

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], base: int,
                   meta: dict | None = None):
        """Build the connected component of ``base`` from an undirected edge
        list; duplicate edges merge and self-loops are dropped."""
        ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        labels, index = np.unique(np.append(ends, base), return_inverse=True)
        n = len(labels)
        u, v = index[:-1].reshape(-1, 2).T
        loop = u == v
        u, v = u[~loop], v[~loop]
        # building CSR from (row, col) pairs merges repeated edges
        adj = sparse.csr_array(
            (np.ones(2 * len(u)), (np.concatenate((u, v)), np.concatenate((v, u)))),
            shape=(n, n))
        full = cls(adj.indptr, adj.indices, int(index[-1]), labels)
        keep = np.flatnonzero(full.bfs_from(full.base_index) >= 0)
        comp = full.subgraph(keep)
        comp.meta.update(meta or {})
        comp.meta["component_size"] = int(len(keep))
        comp.meta["total_nodes"] = int(n)
        return comp

    def subgraph(self, keep: np.ndarray) -> "Graph":
        """The induced subgraph on ``keep`` (distinct node indices, in any
        order); node i of the result is keep[i]."""
        keep = np.asarray(keep, dtype=np.int64)
        new_base = np.flatnonzero(keep == self.base_index)
        if len(new_base) == 0:
            raise ValueError("base node not in kept set")
        sub = induced_csr(self.adj, keep)
        coords = self.coords[keep] if self.coords is not None else None
        return Graph(sub.indptr, sub.indices, int(new_base[0]),
                     self.labels[keep], coords, dict(self.meta))

    def bfs_from(self, start_index: int) -> np.ndarray:
        """Hop distances from node ``start_index``; -1 where unreachable.

        One ``breadth_first_order`` along each row's edges (directed, which
        on the symmetric adjacency of a graph changes nothing).  In that
        order each level is a contiguous run and the children of earlier
        nodes come first, so the level that starts at position s ends at
        1 + the number of children of the nodes before s: one cumulative
        count of children, then one lookup per level.
        """
        # csgraph imports scipy.sparse.linalg, which costs every process ~8 MB
        from scipy.sparse.csgraph import breadth_first_order
        order, parent = breadth_first_order(self.adj, start_index,
                                            directed=True)
        children = np.bincount(parent[order[1:]],
                               minlength=self.n_nodes)[order]
        end_of = np.concatenate(([1], np.cumsum(children) + 1)).item
        starts = [0]
        while starts[-1] < len(order):
            starts.append(end_of(starts[-1]))
        dist = np.full(self.n_nodes, -1, dtype=np.int64)
        dist[order] = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        return dist

    def base_distances(self) -> np.ndarray:
        """Hop distances from the base node (computed once, then cached)."""
        if self._base_dist is None:
            self._base_dist = self.bfs_from(self.base_index)
        return self._base_dist

    def ball_arrays(self, radius: float):
        charge(self.n_nodes, "graph ball enumeration")
        dist = self.base_distances()
        keep = np.flatnonzero((dist >= 0) & (dist <= self.key_limit(radius)))
        keep = keep[np.argsort(dist[keep], kind="stable")]
        return keep, dist[keep], dist[keep].astype(np.float64)

    def levels(self, radius: float):
        """(keys, counts): the hop counts 0..min(R, eccentricity) with the
        ball count through each, one ``bincount`` of the base distances."""
        charge(self.n_nodes, "graph ladder enumeration")
        dist = self.base_distances()
        hops = np.bincount(dist[(dist >= 0) & (dist <= self.key_limit(radius))])
        return np.arange(len(hops), dtype=np.int64), np.cumsum(hops)

    ladder_to_radius = ladder_to_radius
    radii_ladder = _hop_radii_ladder

    def distance(self, x: int, y: int) -> float:
        i, j = (np.flatnonzero(self.labels == v) for v in (x, y))
        for node, index in ((x, i), (y, j)):
            if len(index) == 0:
                raise ValueError(f"node {node} is not in the graph")
        d = self.bfs_from(int(i[0]))[j[0]]
        if d < 0:
            raise ValueError(f"nodes {x} and {y} are not connected")
        return float(d)

    def neighbours(self, points: np.ndarray):
        """(rows, cols, degree): the edges among the nodes ``points``, both
        ways, and each node's row length in the whole graph."""
        sub = induced_csr(self.adj, points).tocoo()
        return sub.row, sub.col, np.diff(self.indptr)[points].astype(float)

    def site_ids(self, points: np.ndarray) -> np.ndarray:
        """The input labels of the nodes ``points``."""
        return self.labels[points].astype(np.uint64)


_F2_LETTERS = "abAB"


def _f2_inverse(letter: int) -> int:
    return letter ^ 2


class CayleyF2(_HopMetric):
    """Cayley graph of the free group on two generators.

    Elements are reduced words over a, b, A (= a^-1), B (= b^-1); the metric
    is word length.  Words are packed into int64 with a leading sentinel
    digit, so packed order equals (length, lexicographic) order.  Ball
    counts grow as 2*3^k - 1: the graph is the 4-regular tree, each reduced
    word extends by the three letters that do not cancel its last one.
    """

    kind = "cayley_f2"
    base = ""

    MAX_RADIUS = 30  # packed words stay within int64 far beyond the point budget

    def _frontier_children(self, words: np.ndarray, last: np.ndarray):
        """Reduced children of a sorted frontier, with their last letters:
        in (parent, letter) order they are sorted, as 4 w1 + 3 < 4 w2."""
        letters = np.arange(4, dtype=np.int8)
        keep = last[:, None] != _f2_inverse(letters)
        return ((words[:, None] * 4 + letters)[keep],
                np.broadcast_to(letters, keep.shape)[keep])

    def _charge_ball(self, radius: int) -> None:
        """Refuse a radius out of range; charge the ball's 2*3^r - 1 points."""
        if radius > self.MAX_RADIUS:
            raise ValueError(f"radius {radius} beyond supported maximum "
                             f"{self.MAX_RADIUS}")
        charge(2 * 3 ** radius - 1, f"free-group ball of radius {radius}")

    def ball_arrays(self, radius: float):
        r = int(self.key_limit(radius))
        self._charge_ball(r)
        levels = [np.array([1], dtype=np.int64)]  # sentinel-only = identity
        last = np.array([-1], dtype=np.int8)
        for _ in range(r):
            words, last = self._frontier_children(levels[-1], last)
            levels.append(words)
        words = np.concatenate(levels)
        keys = np.repeat(np.arange(r + 1, dtype=np.int64),
                         [len(level) for level in levels])
        return words, keys, keys.astype(np.float64)

    def levels(self, radius: float):
        """(keys, counts): word lengths 0..R and 2*3^k - 1, charged first."""
        r = int(self.key_limit(radius))
        self._charge_ball(r)
        k = np.arange(r + 1, dtype=np.int64)
        return k, 2 * 3 ** k - 1

    def neighbours(self, points: np.ndarray):
        """(rows, cols, degree): parent links among the packed words
        ``points`` (a word's parent drops its last letter), both ways, and
        the degree 4 of every word.  Every parent of a ball word is in the
        ball."""
        order = np.argsort(points)
        child = np.flatnonzero(points > 1)
        parent = order[np.searchsorted(points[order], points[child] >> 2)]
        return (np.concatenate((child, parent)),
                np.concatenate((parent, child)), np.full(len(points), 4.0))

    def site_ids(self, points: np.ndarray) -> np.ndarray:
        """The packed words themselves."""
        return points.astype(np.uint64)

    @staticmethod
    def decode(packed: int) -> str:
        letters = []
        while packed > 1:
            letters.append(_F2_LETTERS[packed & 3])
            packed >>= 2
        return "".join(reversed(letters))

    @staticmethod
    def encode(word: str) -> int:
        packed = 1
        for ch in word:
            packed = packed * 4 + _F2_LETTERS.index(ch)
        return packed

    @staticmethod
    def reduce_word(word: str) -> str:
        out: list[str] = []
        for ch in word:
            if out and _F2_LETTERS.index(out[-1]) == _f2_inverse(_F2_LETTERS.index(ch)):
                out.pop()
            else:
                out.append(ch)
        return "".join(out)

    @classmethod
    def inverse_word(cls, word: str) -> str:
        return "".join(_F2_LETTERS[_f2_inverse(_F2_LETTERS.index(ch))]
                       for ch in reversed(word))

    def distance(self, x: str, y: str) -> float:
        return float(len(self.reduce_word(self.inverse_word(x) + y)))


def ingest_graph(path, base: int) -> Graph:
    """Read a whitespace-separated ``u v`` edge list.

    Blank lines are skipped; anything else must be exactly two integer
    tokens.  The space is the connected component of ``base``; the
    component size is recorded in ``meta``.
    """
    edges = []
    seen_base = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise GraphParseError(
                    f"expected two integer tokens, got {len(tokens)}", lineno)
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    f"non-integer node id in {line.strip()!r}", lineno) from None
            edges.append((u, v))
            if base in (u, v):
                seen_base = True
    if not edges:
        raise GraphParseError("empty edge list", 1)
    if not seen_base:
        raise ValueError(f"base node {base} does not appear in the edge list")
    return Graph.from_edges(edges, base, meta={"source": str(path)})
