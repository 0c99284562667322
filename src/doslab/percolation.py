"""Bond percolation on a finite box, clusters and chemical-ball growth.

Edges of [0, L)^d carry counter-based uniforms: edge id ``v*d + axis``
(``v`` the C-order flattened tail vertex) is a stream counter of the
sample seed, and the edge is open iff its uniform is below p.  Samples are
therefore pure functions of (d, L, p, seed), reruns are bit-identical, and
raising p only adds open edges (monotone coupling on shared uniforms).

The open bonds form one banded sparse adjacency matrix, which each call
that needs it builds from the open-edge mask (nothing is cached).
Clusters are its connected components, each labelled by its smallest
vertex, and the largest cluster becomes a graph space, the slice of that
matrix on its members, whose hop metric is the chemical distance.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._rng import uniform_stream
from .budget import charge
from .spaces import Graph, induced_csr

_MAGIC = b"DLPC"
_HEADER = struct.Struct("<4sQQQQ")
_P_FIXED_SCALE = float(1 << 32)


@dataclass
class PercolationSample:
    """Open-edge configuration plus per-vertex cluster labels.

    ``labels[v]`` is the smallest vertex of v's cluster, so a vertex r
    names a cluster exactly when ``labels[r] == r``.
    """

    d: int
    L: int
    p: float
    seed: int
    open_mask: np.ndarray
    labels: np.ndarray

    def vertex_coords(self, flat: np.ndarray) -> np.ndarray:
        return np.stack(np.unravel_index(np.asarray(flat, dtype=np.int64),
                                         (self.L,) * self.d), axis=-1)

    def open_fraction(self) -> float:
        valid = _valid_edge_mask(self.d, self.L)
        return float(self.open_mask[valid].mean())


def _valid_edge_mask(d: int, L: int) -> np.ndarray:
    """Edges leaving the box (tail coordinate L-1 along its axis) are void."""
    mask = np.ones((L,) * d + (d,), dtype=bool)
    for axis in range(d):
        # the edge along ``axis`` of every vertex at coordinate L-1 on it
        mask[(slice(None),) * axis + (L - 1, Ellipsis, axis)] = False
    return mask.reshape(-1)


def percolate_bonds(d: int, L: int, p: float, seed: int) -> PercolationSample:
    """Sample open edges and label clusters on [0, L)^d."""
    if d < 1 or L < 2:
        raise ValueError("need d >= 1 and L >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    n = L ** d
    charge(n + n * d, f"percolation sample d={d} L={L}")
    edge_ids = np.arange(n * d, dtype=np.uint64)
    u = uniform_stream(seed, edge_ids)
    open_mask = (u < p) & _valid_edge_mask(d, L)
    labels = _cluster_labels(d, L, open_mask)
    return PercolationSample(d=d, L=L, p=float(p), seed=int(seed),
                             open_mask=open_mask, labels=labels)


def _open_bonds(d: int, L: int, open_mask: np.ndarray) -> sparse.csr_array:
    """Symmetric adjacency of the open bonds, n x n with n = L^d, with
    sorted rows and no duplicate entries.

    Edge id ``v*d + axis`` joins its tail v to the head one C-order step
    along ``axis``; this is the one place that rule is written down.  The
    bonds along an axis fill the two diagonals at -step and +step, so the
    matrix is banded: its CSR is read off the 2d diagonals, each row in
    ascending column order, with no COO sort and no duplicate merge.
    """
    n = L ** d
    steps = L ** np.arange(d - 1, -1, -1, dtype=np.int64)
    tails = open_mask.reshape(n, d).T
    # diagonal k holds the entry of row j - offsets[k] in column j
    bands = np.zeros((2 * d, n), dtype=bool)
    bands[:d] = tails
    for axis, step in enumerate(steps):
        bands[d + axis, step:] = tails[axis, :-step]
    return sparse.dia_array((bands, np.concatenate((-steps, steps))),
                            shape=(n, n)).tocsr()


def _cluster_labels(d: int, L: int, open_mask: np.ndarray) -> np.ndarray:
    """Each vertex labelled by the smallest vertex of its cluster."""
    # csgraph imports scipy.sparse.linalg, which costs every process ~8 MB
    from scipy.sparse.csgraph import connected_components
    # the matrix is symmetric, so its strong components are the clusters
    # and the directed search needs no transpose; float data is what
    # csgraph works in, so it converts nothing
    bonds = _open_bonds(d, L, open_mask)
    bonds.data = np.ones(bonds.nnz)
    n_comp, comp = connected_components(bonds, directed=True,
                                        connection="strong")
    smallest = np.full(n_comp, len(comp), dtype=np.int64)
    np.minimum.at(smallest, comp, np.arange(len(comp)))
    return smallest[comp]


def largest_cluster(sample: PercolationSample) -> Graph:
    """The largest cluster as a graph space under the chemical metric.

    Ties in size go to the cluster with the smaller smallest vertex.  The
    base point is the cluster vertex closest (euclidean, then
    lexicographic) to the box center.
    """
    sizes = np.bincount(sample.labels)
    members = np.flatnonzero(sample.labels == np.argmax(sizes))
    coords = sample.vertex_coords(members)
    center = (sample.L - 1) / 2.0
    offset = coords - center
    d2 = np.einsum("ij,ij->i", offset, offset)
    # members ascend in C order, which is lexicographic coordinate order,
    # so the first closest member is the lexicographically smallest
    base = int(np.argmin(d2))
    # every open bond out of a member ends in the same cluster, so the
    # slice keeps all of the cluster's edges and it is connected
    adj = induced_csr(_open_bonds(sample.d, sample.L, sample.open_mask),
                      members)
    return Graph(adj.indptr, adj.indices, base, members, coords,
                 meta={"d": sample.d, "L": sample.L, "p": sample.p,
                       "seed": sample.seed, "cluster_size": int(len(members)),
                       "n_clusters": int(np.count_nonzero(sizes))})


@dataclass
class GrowthTable:
    """Chemical ball counts around the cluster base and their t^-d scaling."""

    t: np.ndarray
    ball_counts: np.ndarray
    normalized: np.ndarray
    plateau_window: tuple
    plateau_stat: float


def chemical_ball_growth(cluster: Graph, t_max: int) -> GrowthTable:
    """|B_chem(base, t)| for t = 1..t_max with the plateau statistic.

    ``plateau_stat`` is (max - min)/mean of |B|/t^d over the second half
    of the t range.  t_max beyond L/2 is refused: chemical balls would
    touch the box boundary and the growth constant would be contaminated.
    """
    d = cluster.meta.get("d")
    L = cluster.meta.get("L")
    if d is None or L is None:
        raise ValueError("cluster graph lacks box metadata")
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    if t_max > L // 2:
        raise ValueError(f"t_max={t_max} exceeds L/2={L // 2}; "
                         "chemical balls would hit the box boundary")
    dist = cluster.base_distances()
    dist = dist[dist >= 0]
    t = np.arange(1, t_max + 1, dtype=np.int64)
    counts = np.cumsum(np.bincount(dist, minlength=t_max + 1))[1:t_max + 1]
    normalized = counts / t.astype(np.float64) ** d
    lo = int(math.ceil(t_max / 2))
    window = normalized[lo - 1:]
    stat = float((window.max() - window.min()) / window.mean())
    return GrowthTable(t=t, ball_counts=counts, normalized=normalized,
                       plateau_window=(lo, t_max), plateau_stat=stat)


def save_sample(sample: PercolationSample, path) -> None:
    """Binary layout: magic, three u64 (d, L, p fixed-point/2^32), u64 seed,
    then the open-edge bitmask packed MSB-first."""
    header = _HEADER.pack(_MAGIC, sample.d, sample.L,
                          int(round(sample.p * _P_FIXED_SCALE)), sample.seed)
    packed = np.packbits(sample.open_mask)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def load_sample(path) -> PercolationSample:
    """Read a sample written by ``save_sample``; any file whose header is
    out of range or whose length differs from what the header implies is
    refused with ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
        raise ValueError("not a percolation sample file")
    _, d, L, p_fixed, seed = _HEADER.unpack_from(blob)
    if d < 1 or L < 2 or p_fixed > _P_FIXED_SCALE:
        raise ValueError(f"corrupt percolation sample header: d={d}, L={L}, "
                         f"p={p_fixed}/2^32")
    # d * L^d edge bits, grown stepwise so a corrupt header cannot ask
    # for a huge integer power
    room = 8 * (len(blob) - _HEADER.size)
    n_edges = d
    for _ in range(d):
        n_edges *= L
        if n_edges > room:
            break
    if n_edges > room or len(blob) != _HEADER.size + (n_edges + 7) // 8:
        raise ValueError(f"percolation sample file has {len(blob)} bytes, "
                         f"which does not match its header (d={d}, L={L})")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8,
                                       offset=_HEADER.size),
                         count=n_edges).astype(bool)
    labels = _cluster_labels(d, L, bits)
    return PercolationSample(d=d, L=L, p=p_fixed / _P_FIXED_SCALE,
                             seed=seed, open_mask=bits, labels=labels)


def sample_digest(sample: PercolationSample) -> str:
    """SHA-256 of the packed open-edge mask (rerun identity checks)."""
    return hashlib.sha256(np.packbits(sample.open_mask).tobytes()).hexdigest()
