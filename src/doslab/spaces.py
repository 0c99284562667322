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
the closed ball of a float radius, elementwise over an array of radii.
Every radius-to-ball decision asks it: ``ball_arrays`` and
``ladder_to_radius`` here, the lattice box (the smallest box that holds
every key up to the limit), and the ball prefixes of a truncated
operator, which keeps its level keys and its space.
``ball_arrays(radius)`` gives the ball's points, dedupe keys and
distances; ``ladder_to_radius`` and ``radii_ladder`` its realised radii
and ball counts.  ``neighbours(points)`` gives the neighbour pairs among
ball points and each point's degree in the untruncated space, and
``site_ids(points)`` the key a random field is drawn at.  Operator
assembly asks nothing else of a point, so each point format (lattice
coordinates, graph node indices, packed free-group words) is read only
in this module.  A lattice adds ``offset_pairs`` (pairs at any offsets,
for kernels), and ``site_rows`` here is the one lattice site index.
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


def _floor_keys(x):
    """floor(x + 1e-9) as int64 keys, elementwise: the slack keeps a key
    that ``x`` misses by rounding inside."""
    return np.floor(x + 1e-9).astype(np.int64)[()]


def _ladder_levels(radius: float, levels: int) -> int:
    """The number of ladder ``levels`` within ``radius``, refused when there
    are none: the radius is below the first realised distance."""
    if levels < 1:
        raise ValueError(
            f"radius: {radius:g} is below the first realised distance")
    return levels


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


def _lex_order(keys: np.ndarray, coords: np.ndarray) -> np.ndarray:
    cols = [coords[:, j] for j in range(coords.shape[1] - 1, -1, -1)]
    return np.lexsort(tuple(cols) + (keys,))


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
        self.base = tuple(int(b) for b in (base or (0,) * d))
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
        r = np.minimum(radius, _FAR)
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
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def ball_arrays(self, radius: float):
        """(sites, keys, dists) inside the closed ball around the base, in
        canonical order; keys and dists are measured from the base."""
        offsets = self._box(radius)
        keys, dists = self._norm_keys(offsets)
        mask = keys <= self.key_limit(radius)
        offsets, keys, dists = offsets[mask], keys[mask], dists[mask]
        order = _lex_order(keys, offsets)
        sites = offsets[order] + np.asarray(self.base, dtype=np.int64)
        return sites, keys[order], dists[order]

    def norms(self, offsets) -> np.ndarray:
        """l_p lengths of the rows of an integer offset array."""
        arr = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        if arr.shape[1] != self.d:
            raise ValueError("offset dimension mismatch")
        return self._norm_keys(arr)[1]

    def _closed_form_levels(self, radius: float):
        """Keys and ball counts of the integer radii k = 0..R, for d = 1 or
        p in {1, inf}, where those are the realised distances.  The budget
        is charged as for the enumerated box."""
        k = np.arange(self._box_half(radius) + 1, dtype=np.int64)
        axis = np.zeros((len(k), self.d), dtype=np.int64)
        axis[:, 0] = k
        keys = self._norm_keys(axis)[0]
        inside = keys <= self.key_limit(radius)
        keys, k = keys[inside], k[inside]
        return keys, lattice_ball_count(self.d, self.p, k)

    def ladder_to_radius(self, radius: float) -> RadiiLadder:
        """Realised radii up to ``radius`` with their ball counts."""
        if self.d == 1 or self.p == 1.0 or math.isinf(self.p):
            uniq, counts = self._closed_form_levels(radius)
        else:
            keys = self._norm_keys(self._box(radius))[0]
            uniq, cnt = np.unique(keys[keys <= self.key_limit(radius)],
                                  return_counts=True)
            counts = np.cumsum(cnt)
        _ladder_levels(radius, len(uniq) - 1)
        if uniq[0] != 0:
            raise AssertionError("base point missing from its own ball")
        return RadiiLadder(self._key_radius(uniq[1:]), counts[1:])

    def radii_ladder(self, k_max: int) -> RadiiLadder:
        """First ``k_max`` positive realised radii with their ball counts."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.d == 1 or self.p == 1.0 or math.isinf(self.p):
            # realised distances are exactly the integers 0..R
            return self.ladder_to_radius(float(k_max))
        radius = max(4.0, math.ceil(1.2 * k_max ** (1.0 / self.d)))
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
    site is not among them."""
    keys = site_keys(points)
    order = np.argsort(keys)
    sorted_keys, wanted = keys[order], site_keys(sites)
    pos = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
    return np.where(sorted_keys[pos] == wanted, order[pos], -1)


class _HopMetric:
    """The ball rule of a hop metric, whose dedupe key is the distance."""

    def key_limit(self, radius):
        """Largest hop count inside the closed ball of ``radius``,
        elementwise over an array of radii."""
        return _floor_keys(np.minimum(radius, _FAR))


def induced_csr(adj: sparse.csr_array, keep: np.ndarray) -> sparse.csr_array:
    """Rows and columns ``keep`` (distinct indices, in any order) of a
    square CSR matrix, with sorted rows; row i of the result is keep[i].

    The rows are gathered whole and their columns renumbered through a
    position map, dropping those outside ``keep``.  An increasing ``keep``
    renumbers monotonically, so its rows stay sorted and need no sort.
    """
    pos = np.full(adj.shape[0], -1, dtype=adj.indices.dtype)
    pos[keep] = np.arange(len(keep), dtype=pos.dtype)
    rows = adj[keep]
    data, cols, indptr = rows.data, pos[rows.indices], rows.indptr
    inside = cols >= 0
    if not inside.all():
        kept = np.concatenate(([0], np.cumsum(inside)))
        data, cols, indptr = data[inside], cols[inside], kept[indptr]
    sub = sparse.csr_array((data, cols, indptr), shape=(len(keep),) * 2)
    sub.sort_indices()
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
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.n_nodes = len(self.indptr) - 1
        if not 0 <= base_index < self.n_nodes:
            raise ValueError("base index out of range")
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

    def adjacency_matrix(self) -> sparse.csr_array:
        """The n x n 0/1 adjacency matrix over node indices."""
        return sparse.csr_array(
            (np.ones(len(self.indices)), self.indices, self.indptr),
            shape=(self.n_nodes,) * 2)

    def subgraph(self, keep: np.ndarray) -> "Graph":
        """The induced subgraph on ``keep`` (distinct node indices, in any
        order); node i of the result is keep[i]."""
        keep = np.asarray(keep, dtype=np.int64)
        new_base = np.flatnonzero(keep == self.base_index)
        if len(new_base) == 0:
            raise ValueError("base node not in kept set")
        sub = induced_csr(self.adjacency_matrix(), keep)
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
        order, parent = breadth_first_order(self.adjacency_matrix(),
                                            start_index, directed=True)
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

    def radii_ladder(self, k_max: int) -> RadiiLadder:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        charge(self.n_nodes, "graph ladder enumeration")
        dist = self.base_distances()
        dist = dist[dist >= 0]
        uniq, cnt = np.unique(dist, return_counts=True)
        counts = np.cumsum(cnt)
        if len(uniq) - 1 < k_max:
            raise ValueError(
                f"graph eccentricity from base is {int(uniq[-1])}; "
                f"cannot build k_max={k_max} ladder")
        uniq, counts = uniq[1:k_max + 1], counts[1:k_max + 1]
        return RadiiLadder(uniq.astype(np.float64), counts)

    def ladder_to_radius(self, radius: float) -> RadiiLadder:
        reach = int(self.base_distances().max())
        hops = _ladder_levels(radius, int(self.key_limit(radius)))
        return self.radii_ladder(min(hops, reach))

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
        sub = self.adjacency_matrix()[points][:, points].tocoo()
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
        outs_w, outs_l = [], []
        for letter in range(4):
            mask = last != _f2_inverse(letter)
            outs_w.append(words[mask] * 4 + letter)
            outs_l.append(np.full(int(mask.sum()), letter, dtype=np.int8))
        w = np.concatenate(outs_w)
        l = np.concatenate(outs_l)
        order = np.argsort(w, kind="stable")
        return w[order], l[order]

    def _charge_ball(self, radius: int) -> None:
        """Refuse a radius out of range; charge the ball's 2*3^r - 1 points."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
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

    def radii_ladder(self, k_max: int) -> RadiiLadder:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self._charge_ball(k_max)
        k = np.arange(1, k_max + 1, dtype=np.int64)
        return RadiiLadder(k.astype(np.float64), 2 * 3 ** k - 1)

    def ladder_to_radius(self, radius: float) -> RadiiLadder:
        return self.radii_ladder(
            _ladder_levels(radius, int(self.key_limit(radius))))

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
