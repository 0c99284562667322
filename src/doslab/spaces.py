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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .budget import charge
from .errors import GraphParseError

_GENERAL_P_GRID = 1e-9


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
        with np.errstate(over="ignore"):
            v = (a.astype(np.float64) ** self.p).sum(axis=1) ** (1.0 / self.p)
        if not np.isfinite(v).all():
            raise ValueError(f"p = {self.p:g}: l_p lengths leave the float range")
        return np.rint(v / _GENERAL_P_GRID).astype(np.int64), v

    def _key_limit(self, radius: float) -> int:
        """Largest dedupe key still inside the closed ball of ``radius``."""
        r = float(radius)
        if self.p == 1.0 or math.isinf(self.p):
            return int(math.floor(r + 1e-9))
        if self.p == 2.0:
            return int(math.floor(r * r * (1 + 1e-12) + 1e-9))
        return int(round((r + _GENERAL_P_GRID) / _GENERAL_P_GRID))

    def _box_half(self, radius: float) -> int:
        """Half side of the box around the ball, its points charged."""
        if math.isinf(radius):
            raise ValueError("radius must be finite")
        half = int(math.floor(radius + 1e-9))
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
        mask = keys <= self._key_limit(radius)
        offsets, keys, dists = offsets[mask], keys[mask], dists[mask]
        order = _lex_order(keys, offsets)
        sites = offsets[order] + np.asarray(self.base, dtype=np.int64)
        return sites, keys[order], dists[order]

    def ball_points(self, radius: float):
        """Sorted list of ((coords...), distance) pairs, base included."""
        sites, _, dists = self.ball_arrays(radius)
        return [(tuple(int(c) for c in sites[i]), float(dists[i]))
                for i in range(len(sites))]

    def norms(self, offsets) -> np.ndarray:
        """l_p lengths of the rows of an integer offset array."""
        arr = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        if arr.shape[1] != self.d:
            raise ValueError("offset dimension mismatch")
        return self._norm_keys(arr)[1]

    def _closed_form_levels(self, radius: float):
        """Keys and ball counts of the integer radii k = 0..R, for d = 1 or
        p in {1, inf}, where those are the realised distances: (2k+1)^d
        points for d = 1 or p = inf, sum_i 2^i C(d,i) C(k,i) for p = 1.
        The budget is charged as for the enumerated box."""
        k = np.arange(self._box_half(radius) + 1, dtype=np.int64)
        axis = np.zeros((len(k), self.d), dtype=np.int64)
        axis[:, 0] = k
        keys = self._norm_keys(axis)[0]
        inside = keys <= self._key_limit(radius)
        keys, k = keys[inside], k[inside]
        if self.p != 1.0:
            return keys, (2 * k + 1) ** self.d
        counts = np.ones_like(k)
        choose = np.ones_like(k)  # C(k, i), exact in integers
        for i in range(1, self.d + 1):
            choose = choose * (k - i + 1) // i
            counts += 2 ** i * math.comb(self.d, i) * choose
        return keys, counts

    def ladder_to_radius(self, radius: float) -> RadiiLadder:
        """Realised radii up to ``radius`` with their ball counts."""
        if self.d == 1 or self.p == 1.0 or math.isinf(self.p):
            uniq, counts = self._closed_form_levels(radius)
        else:
            offsets = self._box(radius)
            keys, _ = self._norm_keys(offsets)
            keys = keys[keys <= self._key_limit(radius)]
            uniq, cnt = np.unique(keys, return_counts=True)
            counts = np.cumsum(cnt)
        if uniq[0] != 0:
            raise AssertionError("base point missing from its own ball")
        if self.p == 2.0:
            radii = np.sqrt(uniq[1:].astype(np.float64))
        elif self.p == 1.0 or math.isinf(self.p):
            radii = uniq[1:].astype(np.float64)
        else:
            radii = uniq[1:].astype(np.float64) * _GENERAL_P_GRID
        return RadiiLadder(radii, counts[1:])

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
        """Hop distances from node ``start_index``; -1 where unreachable."""
        # csgraph imports scipy.sparse.linalg, which costs every process ~8 MB
        from scipy.sparse.csgraph import shortest_path
        dist = shortest_path(self.adjacency_matrix(), unweighted=True,
                             indices=start_index)
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def base_distances(self) -> np.ndarray:
        """Hop distances from the base node (computed once, then cached)."""
        if self._base_dist is None:
            self._base_dist = self.bfs_from(self.base_index)
        return self._base_dist

    def ball_arrays(self, radius: float):
        charge(self.n_nodes, "graph ball enumeration")
        dist = self.base_distances()
        r = int(math.floor(radius + 1e-9))
        keep = np.flatnonzero((dist >= 0) & (dist <= r))
        keys = dist[keep]
        order = np.lexsort((keep, keys))
        keep = keep[order]
        return keep, dist[keep], dist[keep].astype(np.float64)

    def ball_points(self, radius: float):
        idx, _, dists = self.ball_arrays(radius)
        return [(int(self.labels[i]), float(d)) for i, d in zip(idx, dists)]

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
        dist = self.base_distances()
        r = int(math.floor(radius + 1e-9))
        reach = int(dist.max())
        return self.radii_ladder(min(r, reach))

    def distance(self, x: int, y: int) -> float:
        (i,), (j,) = (np.flatnonzero(self.labels == v) for v in (x, y))
        d = self.bfs_from(int(i))[j]
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

    def _charge_ball(self, radius: int) -> None:
        """Refuse a radius out of range; charge the ball's 2*3^r - 1 points."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius > self.MAX_RADIUS:
            raise ValueError(f"radius {radius} beyond supported maximum "
                             f"{self.MAX_RADIUS}")
        charge(2 * 3 ** radius - 1, f"free-group ball of radius {radius}")

    def ball_arrays(self, radius: float):
        r = int(math.floor(radius + 1e-9))
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

    def ball_points(self, radius: float):
        words, _, dists = self.ball_arrays(radius)
        return [(self.decode(int(w)), float(d)) for w, d in zip(words, dists)]

    def radii_ladder(self, k_max: int) -> RadiiLadder:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self._charge_ball(k_max)
        k = np.arange(1, k_max + 1, dtype=np.int64)
        return RadiiLadder(k.astype(np.float64), 2 * 3 ** k - 1)

    def ladder_to_radius(self, radius: float) -> RadiiLadder:
        return self.radii_ladder(int(math.floor(radius + 1e-9)))

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
