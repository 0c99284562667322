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
  it (l_1, l_2 via squared distances, l_inf); other exponents fall back to
  a 1e-9 rounding grid.
* Ladder index 0 is reserved for the base point (count 1, radius 0); the
  stored arrays start at the first positive radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .budget import charge, point_budget
from .errors import BudgetExceeded, GraphParseError, LadderTruncated

_GENERAL_P_GRID = 1e-9


@dataclass
class RadiiLadder:
    """Realised distances from the base point with cumulative ball counts.

    ``radii[k]`` is the (k+1)-th positive distance, ``counts[k]`` the number
    of points within it.  ``keys`` holds the exact dedupe keys used during
    enumeration so callers can match point distances to ladder levels
    without float comparisons.
    """

    radii: np.ndarray
    counts: np.ndarray
    keys: np.ndarray = field(repr=False)

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
        """(radii, counts, keys) including the level-0 base entry."""
        r = np.concatenate(([0.0], self.radii))
        n = np.concatenate(([1], self.counts)).astype(np.int64)
        k = np.concatenate(([0], np.asarray(self.keys)))
        return r, n, k

    def prefix(self, k: int) -> "RadiiLadder":
        if not 1 <= k <= len(self):
            raise ValueError(f"prefix length {k} out of range 1..{len(self)}")
        return RadiiLadder(self.radii[:k], self.counts[:k], self.keys[:k])

    def to_rows(self):
        """Rows (k, r_k, ball_count, shell_count, ratio) with ratio = N_k/N_{k-1}."""
        shells = self.shells
        prev = np.concatenate(([1], self.counts[:-1]))
        out = []
        for i in range(len(self)):
            out.append((i + 1, float(self.radii[i]), int(self.counts[i]),
                        int(shells[i]), self.counts[i] / prev[i]))
        return out


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
    tail_start: int
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
        tail_fraction=tail_fraction, tail_start=tail_start,
        max_tail_deviation=max_tail, min_tail_deviation=min_tail,
        tail_mean_ratio=float(ratios[tail_start:].mean()),
        trend_maxima=trend, verdict=verdict)


def _lex_order(keys: np.ndarray, coords: np.ndarray) -> np.ndarray:
    cols = [coords[:, j] for j in range(coords.shape[1] - 1, -1, -1)]
    return np.lexsort(tuple(cols) + (keys,))


class Lattice:
    """Z^d with the l_p metric (p >= 1, numpy.inf allowed) around a base point.

    The hopping structure used by operator builders is the nearest-neighbour
    lattice graph regardless of p; the exponent only shapes balls and ladders.
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

    @property
    def exact_keys(self) -> bool:
        return self.p in (1.0, 2.0) or math.isinf(self.p)

    def _norm_keys(self, offsets: np.ndarray):
        """Dedupe key (int64) and float distance for each offset row."""
        a = np.abs(offsets)
        if self.p == 1.0:
            k = a.sum(axis=1)
            return k, k.astype(np.float64)
        if math.isinf(self.p):
            k = a.max(axis=1)
            return k, k.astype(np.float64)
        if self.p == 2.0:
            k = (a.astype(np.int64) ** 2).sum(axis=1)
            return k, np.sqrt(k.astype(np.float64))
        v = (a.astype(np.float64) ** self.p).sum(axis=1) ** (1.0 / self.p)
        return np.rint(v / _GENERAL_P_GRID).astype(np.int64), v

    def _key_limit(self, radius: float) -> int:
        """Largest dedupe key still inside the closed ball of ``radius``."""
        r = float(radius)
        if self.p == 1.0 or math.isinf(self.p):
            return int(math.floor(r + 1e-9))
        if self.p == 2.0:
            return int(math.floor(r * r * (1 + 1e-12) + 1e-9))
        return int(round((r + _GENERAL_P_GRID) / _GENERAL_P_GRID))

    def _box(self, radius: float, budget: int) -> np.ndarray:
        half = int(math.floor(radius + 1e-9))
        side = 2 * half + 1
        charge(side ** self.d, budget, f"ball of radius {radius:g} in {self!r}")
        axes = (np.arange(-half, half + 1, dtype=np.int64),) * self.d
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def ball_arrays(self, radius: float, budget: int | None = None):
        """(sites, keys, dists) inside the closed ball around the base, in
        canonical order; keys and dists are measured from the base."""
        b = point_budget(budget)
        offsets = self._box(radius, b)
        keys, dists = self._norm_keys(offsets)
        mask = keys <= self._key_limit(radius)
        offsets, keys, dists = offsets[mask], keys[mask], dists[mask]
        order = _lex_order(keys, offsets)
        sites = offsets[order] + np.asarray(self.base, dtype=np.int64)
        return sites, keys[order], dists[order]

    def ball_points(self, radius: float, budget: int | None = None):
        """Sorted list of ((coords...), distance) pairs, base included."""
        sites, _, dists = self.ball_arrays(radius, budget)
        return [(tuple(int(c) for c in sites[i]), float(dists[i]))
                for i in range(len(sites))]

    def norms(self, offsets) -> np.ndarray:
        """l_p lengths of the rows of an integer offset array."""
        arr = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        if arr.shape[1] != self.d:
            raise ValueError("offset dimension mismatch")
        return self._norm_keys(arr)[1]

    def _ladder_from_radius(self, radius: float, budget: int) -> RadiiLadder:
        offsets = self._box(radius, budget)
        keys, _ = self._norm_keys(offsets)
        keys = keys[keys <= self._key_limit(radius)]
        uniq, cnt = np.unique(keys, return_counts=True)
        if uniq[0] != 0:
            raise AssertionError("base point missing from its own ball")
        counts = np.cumsum(cnt)
        if self.p == 2.0:
            radii = np.sqrt(uniq[1:].astype(np.float64))
        elif self.exact_keys:
            radii = uniq[1:].astype(np.float64)
        else:
            radii = uniq[1:].astype(np.float64) * _GENERAL_P_GRID
        return RadiiLadder(radii, counts[1:], uniq[1:])

    def ladder_to_radius(self, radius: float, budget: int | None = None) -> RadiiLadder:
        return self._ladder_from_radius(radius, point_budget(budget))

    def radii_ladder(self, k_max: int, budget: int | None = None) -> RadiiLadder:
        """First ``k_max`` positive realised radii with their ball counts."""
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        b = point_budget(budget)
        if self.d == 1 or self.p == 1.0 or math.isinf(self.p):
            # realised distances are exactly the integers 0..R
            radius = float(k_max)
            side = 2 * k_max + 1
            if side ** self.d > b:
                best = self._largest_affordable(b)
                if best < 1:
                    charge(side ** self.d, b, f"ladder k_max={k_max} in {self!r}")
                prefix = self._ladder_from_radius(float(best), b)
                raise LadderTruncated(
                    f"ladder k_max={k_max} exceeds budget {b}; longest prefix "
                    f"has {len(prefix)} entries", prefix,
                    requested=side ** self.d, allowed=b)
            return self._ladder_from_radius(radius, b)
        radius = max(4.0, math.ceil(1.2 * k_max ** (1.0 / self.d)))
        last_good = None
        while True:
            side = 2 * int(math.floor(radius)) + 1
            if side ** self.d > b:
                if last_good is not None:
                    raise LadderTruncated(
                        f"ladder k_max={k_max} exceeds budget {b}; longest "
                        f"prefix has {len(last_good)} entries", last_good,
                        requested=side ** self.d, allowed=b)
                charge(side ** self.d, b, f"ladder k_max={k_max} in {self!r}")
            ladder = self._ladder_from_radius(radius, b)
            if len(ladder) >= k_max:
                return ladder.prefix(k_max)
            last_good = ladder
            radius = math.ceil(radius * 1.5)

    def _largest_affordable(self, budget: int) -> int:
        return max(0, (int(round(budget ** (1.0 / self.d))) - 1) // 2)

    def distance(self, x: Sequence[int], y: Sequence[int]) -> float:
        a = np.abs(np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64))
        if self.p == 1.0:
            return float(a.sum())
        if math.isinf(self.p):
            return float(a.max())
        if self.p == 2.0:
            return float(math.sqrt(int((a.astype(np.int64) ** 2).sum())))
        return float((a.astype(np.float64) ** self.p).sum() ** (1.0 / self.p))


class Graph:
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
        """The induced subgraph on ``keep``; node i of the result is keep[i]."""
        keep = np.asarray(keep, dtype=np.int64)
        new_base = np.flatnonzero(keep == self.base_index)
        if len(new_base) == 0:
            raise ValueError("base node not in kept set")
        sub = self.adjacency_matrix()[keep][:, keep]
        sub.sort_indices()
        coords = self.coords[keep] if self.coords is not None else None
        return Graph(sub.indptr, sub.indices, int(new_base[0]),
                     self.labels[keep], coords, dict(self.meta))

    def bfs_from(self, start_index: int) -> np.ndarray:
        dist = np.full(self.n_nodes, -1, dtype=np.int64)
        dist[start_index] = 0
        frontier = np.array([start_index], dtype=np.int64)
        level = 0
        while len(frontier):
            level += 1
            counts = self.indptr[frontier + 1] - self.indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            gather = np.repeat(self.indptr[frontier + 1] - counts.cumsum(), counts) \
                + np.arange(total)
            nbrs = self.indices[gather]
            nbrs = nbrs[dist[nbrs] < 0]
            if len(nbrs) == 0:
                break
            nbrs = np.unique(nbrs)
            dist[nbrs] = level
            frontier = nbrs
        return dist

    def _base_distances(self) -> np.ndarray:
        if self._base_dist is None:
            self._base_dist = self.bfs_from(self.base_index)
        return self._base_dist

    def ball_arrays(self, radius: float, budget: int | None = None):
        b = point_budget(budget)
        charge(self.n_nodes, b, "graph ball enumeration")
        dist = self._base_distances()
        r = int(math.floor(radius + 1e-9))
        keep = np.flatnonzero((dist >= 0) & (dist <= r))
        keys = dist[keep]
        order = np.lexsort((keep, keys))
        keep = keep[order]
        return keep, dist[keep], dist[keep].astype(np.float64)

    def ball_points(self, radius: float, budget: int | None = None):
        idx, _, dists = self.ball_arrays(radius, budget)
        return [(int(self.labels[i]), float(d)) for i, d in zip(idx, dists)]

    def radii_ladder(self, k_max: int, budget: int | None = None) -> RadiiLadder:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        b = point_budget(budget)
        charge(self.n_nodes, b, "graph ladder enumeration")
        dist = self._base_distances()
        dist = dist[dist >= 0]
        uniq, cnt = np.unique(dist, return_counts=True)
        counts = np.cumsum(cnt)
        if len(uniq) - 1 < k_max:
            raise ValueError(
                f"graph eccentricity from base is {int(uniq[-1])}; "
                f"cannot build k_max={k_max} ladder")
        uniq, counts = uniq[1:k_max + 1], counts[1:k_max + 1]
        return RadiiLadder(uniq.astype(np.float64), counts, uniq)

    def ladder_to_radius(self, radius: float, budget: int | None = None) -> RadiiLadder:
        dist = self._base_distances()
        r = int(math.floor(radius + 1e-9))
        reach = int(dist.max())
        return self.radii_ladder(min(r, reach), budget)

    def distance(self, x: int, y: int) -> float:
        index = {int(l): i for i, l in enumerate(self.labels)}
        d = self.bfs_from(index[int(x)])[index[int(y)]]
        if d < 0:
            raise ValueError(f"nodes {x} and {y} are not connected")
        return float(d)


_F2_LETTERS = "abAB"


def _f2_inverse(letter: int) -> int:
    return letter ^ 2


class CayleyF2:
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

    def _levels(self, radius: int, budget: int, keep_points: bool):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius > self.MAX_RADIUS:
            raise ValueError(f"radius {radius} beyond supported maximum "
                             f"{self.MAX_RADIUS}")
        total = 2 * 3 ** radius - 1 if radius >= 1 else 1
        charge(total, budget, f"free-group ball of radius {radius}")
        counts = [1]
        level_words = [np.array([1], dtype=np.int64)]  # sentinel-only = identity
        words = np.array([1], dtype=np.int64)
        last = np.array([-1], dtype=np.int8)
        for _ in range(radius):
            words, last = self._frontier_children(words, last)
            counts.append(len(words))
            if keep_points:
                level_words.append(words)
        return counts, level_words if keep_points else None

    def ball_arrays(self, radius: float, budget: int | None = None):
        r = int(math.floor(radius + 1e-9))
        counts, levels = self._levels(r, point_budget(budget), keep_points=True)
        words = np.concatenate(levels)
        keys = np.repeat(np.arange(r + 1, dtype=np.int64), counts)
        return words, keys, keys.astype(np.float64)

    def ball_points(self, radius: float, budget: int | None = None):
        words, _, dists = self.ball_arrays(radius, budget)
        return [(self.decode(int(w)), float(d)) for w, d in zip(words, dists)]

    def radii_ladder(self, k_max: int, budget: int | None = None) -> RadiiLadder:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        counts, _ = self._levels(k_max, point_budget(budget), keep_points=False)
        cum = np.cumsum(counts)
        radii = np.arange(1, k_max + 1, dtype=np.float64)
        return RadiiLadder(radii, cum[1:], radii.astype(np.int64))

    def ladder_to_radius(self, radius: float, budget: int | None = None) -> RadiiLadder:
        return self.radii_ladder(int(math.floor(radius + 1e-9)), budget)

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


def path_graph(n_nodes: int, base: int = 0) -> Graph:
    """Convenience: the path 0-1-...-(n-1), a half-line truncation."""
    if n_nodes < 2:
        raise ValueError("path needs at least 2 nodes")
    return Graph.from_edges(((i, i + 1) for i in range(n_nodes - 1)), base)
