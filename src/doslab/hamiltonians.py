"""Finite-range operators truncated to balls, and radial weight functions.

``build_truncated`` applies a hopping kernel plus a potential to the points
of a closed ball.  The result keeps the exact truncated Hamiltonian ``H`` as
a sparse CSR matrix together with its block decomposition

    H = sum_b Q_b M_b Q_b^T,

where each basis ``Q_b`` is sparse and orthonormal with at most one nonzero
per row.  A generic operator is one block with Q = I.  A 1-d lattice
operator whose potential is even about the ball centre b commutes with the
reflection x -> 2b - x and splits into its even and odd parity blocks, which
halves every eigensolve; any other 1-d lattice operator with hopping is one
block whose basis sorts the ball into coordinate order.  Either way a
nearest-neighbour chain gives tridiagonal blocks.

Each block picks its eigensolver once from its own nonzero pattern (see
``Block``): a block without off-diagonal entries is its own eigenbasis, a
tridiagonal block goes to LAPACK's tridiagonal solvers without the dense
reduction, and any other block to the dense symmetric solver.  Only
``Block`` forms n_b x n_b arrays, and it charges the entry ceiling just
before; the sparse H has no size ceiling.  Each block caches its
eigendecomposition, so every spectral quantity of one operator shares it.

Truncation is plain Dirichlet: matrix elements between ball points are
kept exactly as in the infinite operator (graph Laplacians keep the full
degree on the diagonal), everything else is dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from ._rng import site_keys, uniform_stream
from .budget import charge_entries
from .spaces import CayleyF2, Graph, Lattice, RadiiLadder


@dataclass(frozen=True)
class Hopping:
    """Hopping part of an operator spec.

    ``kind`` is one of ``adjacency`` (nearest-neighbour graph of the
    space), ``laplacian`` (degree minus adjacency), ``kernel`` (finite
    list of lattice offsets with real amplitudes, validated symmetric) or
    ``none``.
    """

    kind: str
    offsets: tuple = ()
    amplitudes: tuple = ()

    def __post_init__(self):
        if self.kind not in ("adjacency", "laplacian", "kernel", "none"):
            raise ValueError(f"unknown hopping kind {self.kind!r}")
        if self.kind == "kernel":
            if len(self.offsets) != len(self.amplitudes):
                raise ValueError("offsets and amplitudes length mismatch")
            table = {tuple(o): float(a)
                     for o, a in zip(self.offsets, self.amplitudes)}
            if len(table) != len(self.offsets):
                raise ValueError("duplicate kernel offsets")
            for o, a in table.items():
                neg = tuple(-c for c in o)
                if neg not in table or table[neg] != a:
                    raise ValueError(
                        f"kernel is not symmetric: offset {o} with amplitude "
                        f"{a} has no matching {neg}")


@dataclass(frozen=True)
class Potential:
    """Diagonal part: ``zero``, ``periodic`` (lattice) or ``iid_uniform``
    (counter-based field over sites).

    Both rules are evaluated at absolute sites, so a lattice with another
    base point sees the same field translated.
    """

    kind: str
    values: tuple = ()
    period: tuple = ()
    low: float = 0.0
    high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "periodic", "iid_uniform"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "periodic" and not self.values:
            raise ValueError("periodic potential needs values")
        if self.kind == "iid_uniform" and self.high < self.low:
            raise ValueError("iid_uniform needs high >= low")


@dataclass(frozen=True)
class HamiltonianSpec:
    hopping: Hopping
    potential: Potential


def adjacency(potential: Potential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec(Hopping("adjacency"), potential or Potential("zero"))


def laplacian(potential: Potential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec(Hopping("laplacian"), potential or Potential("zero"))


def kernel(offsets, amplitudes, potential: Potential | None = None) -> HamiltonianSpec:
    return HamiltonianSpec(
        Hopping("kernel", tuple(tuple(o) for o in offsets), tuple(amplitudes)),
        potential or Potential("zero"))


def diagonal_spec(potential: Potential) -> HamiltonianSpec:
    return HamiltonianSpec(Hopping("none"), potential)


def periodic_potential(values) -> Potential:
    arr = np.asarray(values, dtype=np.float64)
    return Potential("periodic", values=tuple(arr.ravel().tolist()),
                     period=arr.shape)


def iid_potential(low: float, high: float, seed: int) -> Potential:
    return Potential("iid_uniform", low=float(low), high=float(high),
                     seed=int(seed))


@dataclass(eq=False)
class Block:
    """One diagonal block of H = sum_b Q_b M_b Q_b^T.

    ``basis`` (Q_b) is a sparse n x k matrix whose column j is the signed
    indicator of an orbit of c_j points scaled to unit length, so it has
    orthonormal columns, at most one nonzero per row and |Q_ij|^2 = 1/c_j;
    ``matrix`` (M_b) is the sparse k x k block and ``diagonal`` its diagonal.
    ``solver`` is decided once from M_b's nonzero pattern:

    * ``diagonal``     no off-diagonal entries; the spectrum is read off
                       without an eigensolve,
    * ``tridiagonal``  bandwidth 1; LAPACK ``dstevd``, or ``dsterf`` for
                       values alone (no reduction),
    * ``dense``        anything else; ``numpy.linalg.eigh`` (``syevd``).
    """

    basis: sparse.csr_array
    matrix: sparse.csr_array
    diagonal: np.ndarray = field(init=False)
    solver: str = field(init=False)
    _eigh: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = self.matrix.tocoo()
        band = np.abs(m.row - m.col)[m.data != 0]
        self.diagonal = self.matrix.diagonal()
        self.solver = ("diagonal" if not band.any()
                       else "tridiagonal" if band.max() == 1 else "dense")

    def eigh(self) -> tuple:
        """Eigenvalues and eigenvectors of a non-diagonal M_b, computed once."""
        if self._eigh is None:
            charge_entries(self.matrix.shape[0] ** 2, "eigenvectors of a block")
            if self.solver == "tridiagonal":
                from scipy.linalg.lapack import dstevd
                evals, evecs, info = dstevd(self.diagonal,
                                            self.matrix.diagonal(1))
                if info != 0:
                    raise np.linalg.LinAlgError(
                        f"dstevd failed to converge (info={info})")
                self._eigh = (evals, evecs)
            else:
                self._eigh = np.linalg.eigh(self.matrix.toarray())
        return self._eigh

    def eigvalsh(self) -> np.ndarray:
        """Eigenvalues of M_b without eigenvectors: the diagonal of a diagonal
        block, ``dsterf`` on a tridiagonal block, ``eigvalsh`` on a dense one.
        Never read from the ``eigh`` cache, so call order changes nothing."""
        if self.solver == "diagonal":
            return self.diagonal
        if self.solver == "tridiagonal":
            from scipy.linalg import eigvalsh_tridiagonal
            d, e = self.diagonal, self.matrix.diagonal(1)
            return eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
        charge_entries(self.matrix.shape[0] ** 2, "dense matrix of a block")
        return np.linalg.eigvalsh(self.matrix.toarray())


@dataclass
class TruncatedOperator:
    """A symmetric operator restricted to a ball, with point metadata.

    ``H`` is the exact truncated matrix (CSR, ball order) and ``blocks``
    its block decomposition.  ``levels[i]`` maps point i to its ladder
    level (0 = base point), and ``level_radii``/``level_counts`` include
    the level-0 entry, so weight profiles and ball prefixes can be
    evaluated without float comparisons.
    """

    radius: float
    points: np.ndarray
    dists: np.ndarray
    levels: np.ndarray
    level_radii: np.ndarray
    level_counts: np.ndarray
    potential: np.ndarray
    H: sparse.csr_array
    blocks: tuple

    @property
    def n(self) -> int:
        return len(self.dists)

    @property
    def solvers(self) -> tuple:
        """(solver, size) of each block, in block order."""
        return tuple((b.solver, b.matrix.shape[0]) for b in self.blocks)


def _potential_values(space, spec: HamiltonianSpec, points: np.ndarray) -> np.ndarray:
    pot = spec.potential
    if pot.kind == "zero":
        return np.zeros(len(points))
    if pot.kind == "periodic":
        if not isinstance(space, Lattice):
            raise ValueError("periodic potential requires a lattice space")
        if len(pot.period) != space.d:
            raise ValueError(f"periodic potential has period {pot.period}, "
                             f"the lattice has d = {space.d}")
        values = np.asarray(pot.values).reshape(pot.period)
        idx = tuple(np.mod(points[:, a], pot.period[a]) for a in range(space.d))
        return values[idx].astype(np.float64)
    # iid_uniform, the one kind left
    if isinstance(space, Lattice):
        counters = site_keys(points)
    elif isinstance(space, Graph):
        counters = space.labels[points].astype(np.uint64)
    else:
        counters = points.astype(np.uint64)
    u = uniform_stream(pot.seed, counters)
    return pot.low + (pot.high - pot.low) * u


def _lattice_hopping(space: Lattice, spec: HamiltonianSpec, points: np.ndarray):
    """(rows, cols, values) of the hopping part between ball points."""
    n = len(points)
    hop = spec.hopping
    units = [tuple(s if i == a else 0 for i in range(space.d))
             for a in range(space.d) for s in (1, -1)]
    if hop.kind == "adjacency":
        offsets, amps = units, [1.0] * len(units)
    elif hop.kind == "laplacian":
        offsets = [(0,) * space.d] + units
        amps = [2.0 * space.d] + [-1.0] * len(units)
    else:
        offsets, amps = [tuple(o) for o in hop.offsets], list(hop.amplitudes)
        for off in offsets:
            if len(off) != space.d:
                raise ValueError(f"kernel offset {off} has {len(off)} "
                                 f"components, the lattice has d = {space.d}")
    keys = site_keys(points)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    rows, cols, vals = [], [], []
    for off, amp in zip(offsets, amps):
        tkeys = site_keys(points + np.asarray(off, dtype=np.int64))
        pos = np.minimum(np.searchsorted(sorted_keys, tkeys), n - 1)
        hit = np.flatnonzero(sorted_keys[pos] == tkeys)
        rows.append(hit)
        cols.append(order[pos[hit]])
        vals.append(np.full(len(hit), float(amp)))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _graph_hopping(space: Graph, spec: HamiltonianSpec, node_idx: np.ndarray):
    sub = space.adjacency_matrix()[node_idx][:, node_idx].tocoo()
    rows, cols, vals = sub.row, sub.col, sub.data
    if spec.hopping.kind == "laplacian":
        deg = (space.indptr[node_idx + 1] - space.indptr[node_idx]).astype(np.float64)
        diag = np.arange(len(node_idx))
        rows, cols = np.concatenate((rows, diag)), np.concatenate((cols, diag))
        vals = np.concatenate((-vals, deg))
    return rows, cols, vals


def _f2_hopping(spec: HamiltonianSpec, words: np.ndarray):
    order = np.argsort(words)
    child = np.flatnonzero(words > 1)
    parent = order[np.searchsorted(words[order], words[child] >> 2)]
    rows, cols = np.concatenate((child, parent)), np.concatenate((parent, child))
    vals = np.ones(len(rows))
    if spec.hopping.kind == "laplacian":
        diag = np.arange(len(words))
        rows, cols = np.concatenate((rows, diag)), np.concatenate((cols, diag))
        vals = np.concatenate((-vals, np.full(len(words), 4.0)))
    return rows, cols, vals


def _parity_blocks(H: sparse.csr_array, points: np.ndarray) -> tuple:
    """Even and odd blocks of a reflection-invariant operator on [b-R, b+R].

    The even basis is e_b and (e_b+x + e_b-x)/sqrt2, the odd basis
    (e_b+x - e_b-x)/sqrt2, for x = 1..R.
    """
    order = np.argsort(points[:, 0])
    r = len(order) // 2
    plus, minus = order[r + 1:], order[:r][::-1]
    k = np.arange(r)
    even = _orbit_block(H, np.concatenate(([order[r]], plus, minus)),
                        np.concatenate(([0], k + 1, k + 1)),
                        np.ones(2 * r + 1), r + 1)
    odd = _orbit_block(H, np.concatenate((plus, minus)), np.concatenate((k, k)),
                       np.concatenate((np.ones(r), -np.ones(r))), r)
    return even, odd


def _orbit_block(H: sparse.csr_array, rows: np.ndarray, cols: np.ndarray,
                 signs: np.ndarray, k: int) -> Block:
    """Block of H on the k columns j = signed indicator of the orbit
    {rows[cols == j]}, normalised to unit length."""
    n = H.shape[0]
    size = np.bincount(cols, minlength=k).astype(np.float64)
    pattern = sparse.csr_array((signs, (rows, cols)), shape=(n, k))
    m = (pattern.T @ H @ pattern).tocoo()
    # sqrt(c)/c instead of 1/sqrt(c): pair-pair entries scale by exactly
    # 1/2, so integer operators fold without rounding
    cc = size[m.row] * size[m.col]
    m = sparse.csr_array((m.data * (np.sqrt(cc) / cc), (m.row, m.col)),
                         shape=(k, k))
    basis = sparse.csr_array((signs / np.sqrt(size[cols]), (rows, cols)),
                             shape=(n, k))
    return Block(basis, sparse.csr_array((m + m.T) / 2.0))


def build_truncated(space, spec: HamiltonianSpec,
                    radius: float) -> TruncatedOperator:
    """Dirichlet truncation of the operator to the closed ball of ``radius``.

    A 1-d lattice operator with hopping and a potential even about the
    ball centre is split into its two parity blocks, any other 1-d lattice
    operator with hopping is one block in coordinate order, and everything
    else is one block in ball order.
    """
    points, keys, dists = space.ball_arrays(radius)
    uniq = np.unique(keys)
    levels = np.searchsorted(uniq, keys).astype(np.int64)
    # canonical order sorts by distance first, so levels is non-decreasing
    # and the cumulative count per level is a plain searchsorted
    level_counts = np.searchsorted(levels, np.arange(len(uniq)), side="right")
    level_radii = np.zeros(len(uniq))
    level_radii[levels] = dists
    v = _potential_values(space, spec, points)
    n = len(points)
    parts = [(np.arange(n), np.arange(n), v)]
    if spec.hopping.kind != "none":
        if isinstance(space, Lattice):
            parts.append(_lattice_hopping(space, spec, points))
        elif spec.hopping.kind == "kernel":
            raise ValueError("kernel hopping needs a lattice space, not "
                             f"{space.kind!r}")
        elif isinstance(space, Graph):
            parts.append(_graph_hopping(space, spec, points))
        elif isinstance(space, CayleyF2):
            parts.append(_f2_hopping(spec, points))
        else:
            raise ValueError(f"unsupported space kind {space.kind!r}")
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    H = sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    H.eliminate_zeros()
    if (H != H.T).nnz:
        raise AssertionError("truncated matrix lost exact symmetry")
    if (spec.hopping.kind != "none" and isinstance(space, Lattice)
            and space.d == 1):
        order = np.argsort(points[:, 0])
        if np.array_equal(v[order], v[order[::-1]]):
            blocks = _parity_blocks(H, points)
        else:
            blocks = (_orbit_block(H, order, np.arange(n), np.ones(n), n),)
    else:
        identity = sparse.csr_array(
            (np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n))
        blocks = (Block(identity, H),)
    return TruncatedOperator(
        radius=float(radius), points=points, dists=dists, levels=levels,
        level_radii=level_radii, level_counts=level_counts.astype(np.int64),
        potential=v, H=H, blocks=blocks)


@dataclass
class WeightFunction:
    """Strictly decreasing radial weight evaluated through ladder levels.

    ``level_values[l]`` is the weight on the shell of ladder level ``l``
    (level 0 is the base point) and ``level_counts[l]`` the ball count
    through it.  ``radius_fn`` is set when the weight has a closed form in
    the distance and can be evaluated off-ladder.
    """

    kind: str
    level_values: np.ndarray
    level_counts: np.ndarray
    radius_fn: Callable[[np.ndarray], np.ndarray] | None = None
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.level_values, dtype=np.float64)
        if np.any(w <= 0):
            raise ValueError("weight values must be strictly positive")
        if np.any(np.diff(w) >= 0):
            raise ValueError("weight values must be strictly decreasing in the level")
        self.level_values = w

    def values_for_levels(self, levels: np.ndarray) -> np.ndarray:
        levels = np.asarray(levels, dtype=np.int64)
        if levels.max(initial=0) >= len(self.level_values):
            raise ValueError(
                "operator reaches ladder levels the weight was not built for; "
                "rebuild the weight from a longer ladder")
        return self.level_values[levels]

    def value_at_radius(self, r):
        if self.radius_fn is None:
            raise ValueError(f"{self.kind} weight has no closed form in the radius")
        return self.radius_fn(np.asarray(r, dtype=np.float64))


def default_weight(ladder: RadiiLadder) -> WeightFunction:
    """w = 1 / (1 + |B(x0, d(x))|): certified summable on the weak-l1 scale.

    The base point gets 1/(1+N_0) = 1/2.  Superlevel sets of this weight
    are exactly the balls of the ladder.
    """
    _, counts = ladder.level_arrays()
    values = 1.0 / (1.0 + counts.astype(np.float64))
    return WeightFunction("default", values, counts,
                          descriptor={"rule": "1/(1+ball_count)"})


def lattice_weight(space, ladder: RadiiLadder) -> WeightFunction:
    """w(x) = (1 + |x|_p)^(-d) on a d-dimensional l_p lattice."""
    if not isinstance(space, Lattice):
        raise ValueError("lattice weight requires a lattice space")
    d = space.d
    radii, counts = ladder.level_arrays()
    fn = lambda r: (1.0 + r) ** (-float(d))
    return WeightFunction("lattice_power", fn(radii), counts, radius_fn=fn,
                          descriptor={"d": d, "p": space.p})


@dataclass
class WeakL1Report:
    """Empirical weak-l1 certificate: C = max_l w_l * #{w >= w_l}.

    Because the weight is radial and strictly decreasing, the superlevel
    count at threshold w_l is exactly the ball count N_l.  ``divergent_trend``
    flags profiles whose products keep growing through the ladder (e.g.
    logarithmic decay), meaning no finite C is in sight.
    """

    products: np.ndarray
    c_estimate: float
    divergent_trend: bool


def weak_l1_bound(w: WeightFunction) -> WeakL1Report:
    products = w.level_values * w.level_counts.astype(np.float64)
    c = float(products.max())
    half = len(products) // 2
    divergent = bool(len(products) >= 8
                     and products[-1] >= 1.5 * products[half]
                     and np.all(np.diff(products[half:]) > 0))
    return WeakL1Report(products=products, c_estimate=c, divergent_trend=divergent)
