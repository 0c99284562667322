"""Finite-range operators truncated to balls, and radial weight functions.

``build_truncated`` applies a hopping kernel plus a potential to the points
of a closed ball, on one path for every space.  The result keeps the exact
truncated Hamiltonian ``H`` as a sparse CSR matrix together with its block
decomposition

    H = sum_b Q_b M_b Q_b^T,

where column j of ``Q_b`` is the signed indicator of orbit j scaled to unit
length, so Q_b is orthonormal with at most one nonzero per row.  A block
stores no Q_b, only the orbit of each point and the orbit sizes that
``gather`` and ``scatter`` read.  ``_hopping`` assembles every space from
the pairs the space itself gives (``neighbours``, or a lattice's
``offset_pairs`` for a kernel) and applies the Laplacian rule once;
``check_fit`` refuses a spec its space cannot carry.  What depends on
(space, hopping, radius) alone, the ball with its levels, the hopping
triplets and the 1-d orbit order, is one read-only ``Frame``; each
operator keeps the one it was built on, and a build that differs only in
its potential can take it (``ergodic_average`` does within one call).
``_orbit_block`` builds every block from one orbit label and sign per
point; only ``Block`` reads the orbits back.  A generic operator has one
orbit per point, so Q = I.  A 1-d lattice operator whose potential
is even about the base point b commutes with x -> 2b - x and splits into
even and odd blocks on the orbits of |x - b|, which halves every
eigensolve; any other 1-d lattice operator with hopping is one block in
coordinate order.  A nearest-neighbour chain gives tridiagonal blocks.
Where every orbit is one point, Q_b is a permutation and the block is H
gathered into orbit order; only the two blocks of a fold are products.

Each block picks its solver once from its own nonzero pattern (see
``Block``): a block without off-diagonal entries is its own eigenbasis, a
tridiagonal block is its own tridiagonal form, and a dense block gets one
from a single ``dsytrd``; both then run the same tridiagonal kernels.  Only
``Block`` forms n_b x n_b arrays, and it charges the entry ceiling just
before; the sparse H has no size ceiling.  Each block caches its form and
eigendecomposition, so every spectral quantity of one operator shares them.
Each block also picks the route of every quantity from its solver (only
``Block`` reads it), and ``doslab.spectral`` only joins blocks.  On a
tridiagonal block diag g(M_b) may take the Chebyshev route, which reads the
series off a band of T_j(M_b) for j <= K/2 by the doubling identities; it
runs elementwise numpy passes only and calls no BLAS, so it shares no pool.

Every dense kernel runs on scipy's BLAS and LAPACK (``_lapack``,
``_blas``), never on ``numpy.linalg`` or a numpy matrix product: numpy and
scipy each bundle their own OpenBLAS with its own thread pool, and two
pools contend for the cores.  When the Gram product, the k x k solve and
the diag GEMV ran on numpy's pool, ``dstevd`` at n_b = 1,117-1,218 took
95-190 ms inside a trace-identity check on 2 vCPUs, against 78-88 ms
alone and 103 ms on 1 thread.

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

from ._rng import uniform_stream
from .budget import charge_entries
from .spaces import Lattice, RadiiLadder


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


def _lapack(name: str, *args, **kwargs) -> list:
    """Outputs of scipy's LAPACK ``name``; a nonzero ``info`` raises."""
    from scipy.linalg import lapack
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed (info={info})")
    return out


def _blas(name: str, *args, **kwargs) -> np.ndarray:
    """Output of scipy's BLAS ``name``, on the pool ``_lapack`` runs on."""
    from scipy.linalg import blas
    return getattr(blas, name)(*args, **kwargs)


@dataclass(eq=False)
class Block:
    """One diagonal block of H = sum_b Q_b M_b Q_b^T.

    Column j of Q_b is the signed indicator of orbit j, its c_j = ``size[j]``
    points scaled to unit length, so |Q_ij|^2 = 1/c_j.  Ball point
    ``rows[i]`` lies in orbit ``cols[i]``; that is all a diagonal needs.
    ``matrix`` (M_b) is the sparse k x k block and ``diagonal`` its diagonal.
    ``solver`` is decided once from M_b's nonzero pattern:

    * ``diagonal``     no off-diagonal entries; the spectrum is read off
                       without an eigensolve,
    * ``tridiagonal``  bandwidth 1; M_b is its own tridiagonal form, which
                       ``dsterf`` (values) and ``dstevd`` (pairs) solve,
    * ``dense``        anything else; one ``dsytrd`` gives the tridiagonal
                       form, then the same two kernels run on it.
    """

    matrix: sparse.csr_array
    rows: np.ndarray
    cols: np.ndarray
    size: np.ndarray
    diagonal: np.ndarray = field(init=False)
    solver: str = field(init=False)
    _form: tuple | None = field(default=None, init=False, repr=False)
    _reflectors: tuple | None = field(default=None, init=False, repr=False)
    _eigh: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = self.matrix.tocoo()
        band = np.abs(m.row - m.col)[m.data != 0]
        self.diagonal = self.matrix.diagonal()
        self.solver = ("diagonal" if not band.any()
                       else "tridiagonal" if band.max() == 1 else "dense")
        if self.solver != "dense":
            self._form = (self.diagonal, self.matrix.diagonal(1))

    def gather(self, values: np.ndarray) -> np.ndarray:
        """``values`` of the ball points as one value per orbit; refused
        unless they are constant on every orbit."""
        out = np.empty(len(self.size))
        out[self.cols] = values[self.rows]
        if not np.array_equal(out[self.cols], values[self.rows]):
            raise ValueError("weight is not constant on the operator's "
                             "symmetry orbits (w(-x) != w(x) on a "
                             "parity-folded operator)")
        return out

    def scatter(self, out: np.ndarray, diag: np.ndarray) -> None:
        """Add diag[j] / c_j to ``out`` at each of the c_j points of orbit j:
        the ball diagonal of Q_b diag(diag) Q_b^T."""
        out[self.rows] += diag[self.cols] / self.size[self.cols]

    def tridiagonal(self) -> tuple:
        """(d, e) of a tridiagonal T = Q^T M_b Q.  A dense block runs
        ``dsytrd`` (lower) once and keeps the reflectors of Q = diag(1, Q')
        for ``eigh``.  f2py would copy the strided c[1:, :n-1] that ``dormtr``
        hands to ``dormqr``, so M_b is reduced one column into a zero-filled
        buffer whose first n^2 entries read [0 | c[:, :n-1]]: the reflectors
        shifted by one, with reflector 0 (tau 0) the identity."""
        if self._form is None:
            n = self.matrix.shape[0]
            charge_entries(n * n, "dense matrix of a block")
            buf = np.zeros(n * n + n)
            a = self.matrix.toarray(out=buf[n:].reshape((n, n), order="F"))
            lwork = int(_lapack("dsytrd_lwork", n, lower=1)[0])
            _, d, e, tau = _lapack("dsytrd", a, lower=1, lwork=lwork,
                                   overwrite_a=1)
            self._form = (d, e)
            self._reflectors = (buf[:n * n].reshape((n, n), order="F"),
                                np.concatenate(([0.0], tau)))
        return self._form

    def eigh(self) -> tuple:
        """Ascending eigenvalues and eigenvectors of M_b, computed once:
        ``dstevd`` on the form, mapped back by a dense block's reflectors
        (then dropped).  Both routes read a diagonal block off its diagonal
        and never call this."""
        if self._eigh is None:
            n = self.matrix.shape[0]
            charge_entries(n * n, "eigenvectors of a block")
            evals, evecs = _lapack("dstevd", *self.tridiagonal())
            if self._reflectors is not None:
                apply_q = ("dormqr", "L", "N", *self._reflectors, evecs)
                lwork = _lapack(*apply_q, -1, overwrite_c=1)[1][0]
                evecs = _lapack(*apply_q, int(lwork), overwrite_c=1)[0]
                self._reflectors = None
            self._eigh = (evals, evecs)
        return self._eigh

    def eigvalsh(self) -> np.ndarray:
        """Eigenvalues of M_b alone: a diagonal block's diagonal, else
        ``dsterf`` on the form.  Values read only (d, e), pairs (d, e) and the
        reflectors, neither the other's results: call order changes no byte."""
        if self.solver == "diagonal":
            return self.diagonal
        return _lapack("dsterf", *self.tridiagonal())[0]

    def function_diagonal(self, fn: Callable) -> tuple:
        """(diag g(M_b), route) for g = ``fn``.

        A diagonal block gives fn(diag M_b), route ``("diagonal", n)``.  A
        tridiagonal block that passes the rule of ``_chebyshev_plan`` takes
        the Chebyshev route, ``("chebyshev", K, tail)``.  Every other
        block gives (V*V) fn(lam) from the cached M_b = V diag(lam) V^T
        (one ``dgemv``), route ``("eigh", n)``, the route the tests hold
        the other to.  The rule reads only M_b and fn, never whether
        ``eigh`` is cached, so one input gives the same bytes in any call
        order.
        """
        n = self.matrix.shape[0]
        if self.solver == "diagonal":
            return np.asarray(fn(self.diagonal), dtype=np.float64), ("diagonal", n)
        plan = _chebyshev_plan(self, fn) if self.solver == "tridiagonal" else None
        if plan is not None:
            c, lo, hi, tail = plan
            return (_chebyshev_diagonal(self, c, lo, hi),
                    ("chebyshev", len(c), tail))
        evals, evecs = self.eigh()
        g = np.asarray(fn(evals), dtype=np.float64)
        return _blas("dgemv", 1.0, evecs * evecs, g), ("eigh", n)

    def product_eigenvalues(self, w_b: np.ndarray, fn: Callable) -> np.ndarray:
        """Eigenvalues of W^(1/2) fn(M_b) W^(1/2) for the strictly positive
        orbit weights ``w_b``, unordered.

        On a diagonal block that is fn(d) * w.  On any other block, with the
        cached M_b = V diag(lam) V^T, it is X G X^T with X = W^(1/2) V_k and
        G = diag(fn(lam_k)), where the k kept columns are those with
        fn(lam) != 0: an exact cut, since the others contribute nothing.
        X G X^T and G X^T X have the same nonzero eigenvalues, so only the
        k x k Gram matrix C = X^T X (SPD, as w > 0) is formed, an n k^2
        product in place of an n^3 one, as one ``dsyrk`` on its lower
        triangle.  The nonzero spectrum is the values-only ``dsyevr`` of
        the lower triangle of G^(1/2) C G^(1/2) when G > 0, and of L^T G L
        with C = L L^T (``dpotrf``, then ``dgemm``) when fn changes sign;
        the other n - k eigenvalues are exact zeros, all n when k = 0.
        Like the eigensolve, these kernels run on scipy's BLAS pool: on
        numpy's they contended with it, and ``dstevd`` at n_b =
        1,117-1,218 took 95-190 ms inside a trace-identity check on 2
        vCPUs, against 78-88 ms alone and 103 ms on 1 thread.
        """
        if self.solver == "diagonal":
            return np.asarray(fn(self.diagonal), dtype=np.float64) * w_b
        evals, evecs = self.eigh()
        g = np.asarray(fn(evals), dtype=np.float64)
        keep = np.flatnonzero(g)
        zeros = np.zeros(len(evals) - len(keep))
        if len(keep) == 0:  # BLAS refuses an n x 0 Gram product
            return zeros
        g = g[keep]
        x = evecs[:, keep]  # a Fortran-order copy; the cache stays intact
        x *= np.sqrt(w_b)[:, None]
        c = _blas("dsyrk", 1.0, x, trans=1, lower=1)
        if np.all(g > 0):
            s = np.sqrt(g)
            c *= s[:, None]
            c *= s
        else:
            chol = _lapack("dpotrf", c, lower=1, overwrite_a=1)[0]
            c = _blas("dgemm", 1.0, chol, g[:, None] * chol, trans_a=1)
        values = _lapack("dsyevr", c, compute_v=0, lower=1, overwrite_a=1)[0]
        return np.concatenate((values, zeros))


# the Chebyshev route's tail must stay within this fraction of max|g|
CHEBYSHEV_TOL = 1e-14


def _chebyshev_plan(block: Block, fn: Callable) -> tuple | None:
    """(c_0..c_{K-1}, lo, hi, tail) for the Chebyshev route on a
    tridiagonal block, or None when the route rule sends it to ``eigh``.

    The route is the kernel polynomial method (Weisse et al., Rev. Mod.
    Phys. 78, 275 (2006)), read off a band by ``_chebyshev_diagonal``.
    [lo, hi] is the Gershgorin interval of M_b, so it holds the
    spectrum.  The c_k interpolate fn at
    N = 4 floor(sqrt(n)) Chebyshev points of [lo, hi]; they come from a
    DCT-II through ``numpy.fft``, whose rounding stays near 1e-17 a
    coefficient where an N x N cosine product leaves a floor above the
    tolerance.  With scale the largest |g| sampled, K is
    the smallest count of terms whose tail sum_{k>=K} |c_k| is at most
    CHEBYSHEV_TOL scale; as |T_k| <= 1 on the interval, the tail bounds
    ||p_N(M_b) - p_K(M_b)||_2 for the N-point interpolant p_N, and so
    every diagonal entry.  The points alone cannot tell g from p_N: a g
    narrower than their spacing can vanish on all of them and alias to
    p_K = 0.  So g is also sampled at the N + 1 points cos(pi j / N)
    between them, the interval's ends included, and p_K must match it
    there to CHEBYSHEV_TOL scale as well; a g that is zero at every
    sample gives no relative bound at all.  The route is taken only when
    both checks pass with K^2 <= n, so that its band of about n K^2 / 8
    entries stays well below the n^2 entries of the eigenvectors.
    """
    n = block.matrix.shape[0]
    d, e = block.diagonal, np.abs(block._form[1])
    radius = np.concatenate((e, [0.0])) + np.concatenate(([0.0], e))
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    points = 4 * math.isqrt(n)
    k = np.arange(points)
    x = np.cos(np.pi * (k + 0.5) / points)
    f = np.asarray(fn(centre + half * x), dtype=np.float64)
    between = np.cos(np.pi * np.arange(points + 1) / points)
    g_between = np.asarray(fn(centre + half * between), dtype=np.float64)
    scale = max(np.abs(f).max(), np.abs(g_between).max())
    if scale == 0.0:
        return None
    spectrum = np.fft.fft(np.concatenate((f[::2], f[1::2][::-1])))
    c = (np.exp(-0.5j * np.pi * k / points) * spectrum).real * (2.0 / points)
    c[0] /= 2.0
    # tails[K] = sum_{k>=K} |c_k| for K = 0..N
    tails = np.append(np.cumsum(np.abs(c)[::-1])[::-1], 0.0)
    terms = max(1, int(np.argmax(tails <= CHEBYSHEV_TOL * scale)))
    if terms * terms > n:
        return None
    c = c[:terms]
    miss = np.abs(np.polynomial.chebyshev.chebval(between, c) - g_between)
    if miss.max() > CHEBYSHEV_TOL * scale:
        return None
    return c, lo, hi, float(tails[terms])


def _chebyshev_diagonal(block: Block, c: np.ndarray, lo: float,
                        hi: float) -> np.ndarray:
    """diag p(M_b) for p = sum_k c_k T_k on [lo, hi], by band doubling.

    T = (M_b - centre I) / half is the tridiagonal M_b rescaled to [-1, 1],
    and T_j = T_j(T) is symmetric with bandwidth j.  The doubling identities
    T_2j = 2 T_j^2 - I and T_2j+1 = 2 T_j T_j+1 - T (Weisse et al. 2006,
    sec. II) give diag T_2j = 2 rowsum(T_j o T_j) - 1 and diag T_2j+1 =
    2 rowsum(T_j o T_j+1) - diag T, so p's diagonal is 2 rowsum(A) -
    sum c_even - (sum c_odd) diag T with A = sum_j T_j o (c_2j T_j +
    c_2j+1 T_j+1), and only T_j for j <= K/2 are needed.  They come from
    T_j+1 = 2T T_j - T_j-1 on the band alone: row 1 + d of a (rows, n + 1)
    array holds entry (i, i + d) in column i, row 0 holds (i, i - 1), and
    column n stays zero.  Flattened, (i - 1, i + d) and (i + 1, i + d) then
    sit n places after and before (i, i + d), so the product with T is a
    three-point stencil; the same flat layout read with row length n puts
    the lower entries (i + d, i) = (i, i + d) of row i + d in column i + d.
    That is about n K^2 / 8 entries in all, without eigenvectors.  Each
    step's products go into two buffers allocated once (``out=``), in the
    order a plain expression would take them, so no step allocates a
    temporary array.
    """
    n, terms = block.matrix.shape[0], len(c)
    width = n + 1
    centre, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    # 2T's entries (i, i), (i, i - 1) and (i, i + 1) in column i
    mid, left, right = np.zeros(width), np.zeros(width), np.zeros(width)
    mid[:n] = 2.0 * (block.diagonal - centre) / half
    left[1:n] = 2.0 * block._form[1] / half
    right[:n - 1] = left[1:n]
    # row 0, diagonals 0..K/2 and one zero row that the stencil reads
    rows = terms // 2 + 3
    prev, cur = np.zeros((rows, width)), np.zeros((rows, width))
    prev[1, :n] = 1.0
    cur[:3] = np.stack((left, mid, right)) / 2.0
    acc = np.zeros((rows - 2, width))
    pair, product = np.empty((2, rows - 2, width))  # per-step products
    for j in range((terms + 1) // 2):
        # prev holds T_j and cur T_j+1 (read only while 2j + 1 < K)
        band, p, t = slice(1, j + 2), pair[:j + 1], product[:j + 1]
        np.multiply(c[2 * j], prev[band], out=p)
        if 2 * j + 1 < terms:
            p += np.multiply(c[2 * j + 1], cur[band], out=t)
        acc[:j + 1] += np.multiply(prev[band], p, out=t)
        if 2 * j + 3 < terms:
            # T_j+2 = 2T T_j+1 - T_j on diagonals 0..j+2, over T_j
            flat, top, t = cur.ravel(), (j + 4) * width, product[:j + 3]
            nxt = prev[1:j + 4]
            nxt *= -1.0
            nxt += np.multiply(mid, cur[1:j + 4], out=t)
            nxt += np.multiply(left, flat[width + n:top + n].reshape(t.shape), out=t)
            nxt += np.multiply(right, flat[1:top - n].reshape(t.shape), out=t)
            prev[0, 1:] = prev[2, :n]  # (i, i - 1) is (i - 1, i)
        prev, cur = cur, prev
    lower = acc.ravel()[n:n * len(acc)].reshape(len(acc) - 1, n)
    rowsum = acc[:, :n].sum(axis=0) + lower.sum(axis=0)
    return 2.0 * rowsum - c[::2].sum() - c[1::2].sum() * (mid[:n] / 2.0)


@dataclass
class TruncatedOperator:
    """A symmetric operator restricted to a ball, with point metadata.

    ``H`` is the exact truncated matrix (CSR, ball order) and ``blocks``
    its block decomposition.  ``levels[i]`` maps point i to its ladder
    level (0 = base point); ``level_keys`` holds each level's dedupe key
    and ``level_counts`` the ball count through it, both from the level-0
    entry on.  ``space`` is the space the ball was cut from: its
    ``key_limit`` turns a radius into a level, so weight profiles and
    ball prefixes are evaluated without float comparisons.  ``frame`` is
    the read-only part fixed by space, hopping and radius, which holds
    ``points``, ``dists``, ``levels``, ``level_keys`` and ``level_counts``;
    ``build_truncated`` takes it back for another potential on the ball.
    """

    radius: float
    space: object
    points: np.ndarray
    dists: np.ndarray
    levels: np.ndarray
    level_keys: np.ndarray
    level_counts: np.ndarray
    potential: np.ndarray
    H: sparse.csr_array
    blocks: tuple
    frame: Frame = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.dists)

    @property
    def solvers(self) -> tuple:
        """(solver, size) of each block, in block order."""
        return tuple((b.solver, b.matrix.shape[0]) for b in self.blocks)


def check_fit(space, spec: HamiltonianSpec) -> None:
    """Refuse a spec that needs more than ``space`` has: a periodic
    potential and a kernel need a lattice of their own dimension."""
    pot, hop = spec.potential, spec.hopping
    if pot.kind == "periodic":
        if not isinstance(space, Lattice):
            raise ValueError("periodic potential requires a lattice space")
        if len(pot.period) != space.d:
            raise ValueError(f"periodic potential has period {pot.period}, "
                             f"the lattice has d = {space.d}")
    if hop.kind == "kernel":
        if not isinstance(space, Lattice):
            raise ValueError("kernel hopping needs a lattice space, not "
                             f"{space.kind!r}")
        for off in hop.offsets:
            if len(off) != space.d:
                raise ValueError(f"kernel offset {off} has {len(off)} "
                                 f"components, the lattice has d = {space.d}")


def _potential_values(space, spec: HamiltonianSpec, points: np.ndarray) -> np.ndarray:
    pot = spec.potential
    if pot.kind == "zero":
        return np.zeros(len(points))
    if pot.kind == "periodic":
        values = np.asarray(pot.values).reshape(pot.period)
        idx = tuple(np.mod(points[:, a], pot.period[a]) for a in range(space.d))
        return values[idx].astype(np.float64)
    u = uniform_stream(pot.seed, space.site_ids(points))
    return pot.low + (pot.high - pot.low) * u


def _hopping(space, hop: Hopping, points: np.ndarray):
    """(rows, cols, values) of the hopping part between ball points.

    A kernel takes the lattice's pairs at its offsets, each with its
    amplitude.  Adjacency is the space's neighbour pairs among the ball
    points, each of value 1.  The Laplacian negates them and puts each
    point's degree in the untruncated space on the diagonal, boundary
    points included.
    """
    if hop.kind == "kernel":
        rows, cols, which = space.offset_pairs(points, hop.offsets)
        return rows, cols, np.asarray(hop.amplitudes, dtype=np.float64)[which]
    rows, cols, degree = space.neighbours(points)
    if hop.kind == "adjacency":
        return rows, cols, np.ones(len(rows))
    diag = np.arange(len(points))
    return (np.concatenate((rows, diag)), np.concatenate((cols, diag)),
            np.concatenate((np.full(len(rows), -1.0), degree)))


def _orbit_block(H: sparse.csr_array, orbits: np.ndarray,
                 signs: np.ndarray) -> Block:
    """The block M_b = Q_b^T H Q_b, where point i lies in the orbit labelled
    ``orbits[i]`` with sign ``signs[i]`` (sign 0: in no orbit of the block)
    and column j of Q_b is the signed indicator of the j-th smallest label,
    scaled to unit length.  Every block of every operator is built here.

    When every point is an orbit of its own with sign +1, Q_b is a
    permutation and M_b is H with its rows and columns gathered into orbit
    order, indices sorted: the bytes the product below gives, as each of
    its entries is then one entry of the exactly symmetric H times 1, save
    that an entry past half the float64 range stays finite where
    (m + m^T) / 2 overflows.  Only the two blocks of a reflection fold
    take the product."""
    n, rows = H.shape[0], np.flatnonzero(signs)
    _, first, cols, size = np.unique(orbits[rows], return_index=True,
                                     return_inverse=True, return_counts=True)
    k, size = len(size), size.astype(np.float64)
    if k == n and np.all(signs == 1):  # first[j] is the point of orbit j
        return Block(H[first][:, first].sorted_indices(), rows, cols, size)
    signs = np.asarray(signs[rows], dtype=np.float64)
    pattern = sparse.csr_array((signs, (rows, cols)), shape=(n, k))
    m = (pattern.T @ H @ pattern).tocoo()
    # sqrt(c)/c instead of 1/sqrt(c): pair-pair entries scale by exactly
    # 1/2, so integer operators fold without rounding
    cc = size[m.row] * size[m.col]
    m = sparse.csr_array((m.data * (np.sqrt(cc) / cc), (m.row, m.col)),
                         shape=(k, k))
    return Block(sparse.csr_array((m + m.T) / 2.0), rows, cols, size)


@dataclass(frozen=True, eq=False)
class Frame:
    """The part of a truncation fixed by (space, hopping, radius) alone.

    ``points``, ``dists``, ``levels``, ``level_keys`` and ``level_counts``
    are the ball and its level table; ``rows``, ``cols`` the triplet
    positions of H, the n diagonal slots of the potential first, and
    ``values`` the hopping values after them.  On a 1-d lattice with
    hopping, ``orbits`` is x - b for base point b and ``order`` its
    argsort; elsewhere both are None.  Every array is read-only, as each
    operator built on the frame shares it.
    """

    space: object
    hopping: Hopping
    radius: float
    points: np.ndarray
    dists: np.ndarray
    levels: np.ndarray
    level_keys: np.ndarray
    level_counts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    orbits: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _frame(space, hop: Hopping, radius: float) -> Frame:
    """The ball, its levels, the hopping triplets and the 1-d orbit order
    of the truncation of ``hop`` on ``space`` to ``radius``."""
    points, keys, dists = space.ball_arrays(radius)
    level_keys, level_counts = space.levels(radius)
    rows = cols = np.arange(len(points))
    values, orbits, order = np.empty(0), None, None
    if hop.kind != "none":
        hop_rows, hop_cols, values = _hopping(space, hop, points)
        rows = np.concatenate((rows, hop_rows))
        cols = np.concatenate((cols, hop_cols))
        if isinstance(space, Lattice) and space.d == 1:
            orbits = points[:, 0] - space.base[0]
            order = np.argsort(orbits)
    return Frame(space, hop, float(radius), points, dists,
                 np.searchsorted(level_keys, keys), level_keys, level_counts,
                 rows, cols, values, orbits, order)


def build_truncated(space, spec: HamiltonianSpec, radius: float,
                    frame: Frame | None = None) -> TruncatedOperator:
    """Dirichlet truncation of the operator to the closed ball of ``radius``.

    One path serves every space: ``_frame`` gives the ball, its levels and
    the hopping triplets, the potential the diagonal of H, and
    ``_orbit_block`` its blocks.  ``frame``, the ``frame`` of an earlier
    build, skips ``_frame`` when only the potential differs, as between
    disorder realizations; it is refused unless its space (the same
    object), hopping and radius are these.  Everything else runs for every
    build.  With b the base point and x a site, a 1-d lattice operator
    with hopping and a potential even about b takes the orbits of |x - b|:
    the even block holds all of them, the odd block those with x != b,
    signed by sign(x - b).  Any other 1-d lattice operator with hopping
    takes the orbits of x - b (coordinate order), and everything else one
    orbit per point, in ball order.  The level table is the space's own
    (``levels``), and each point's level is its key's place in it.  An H
    with a row sum of |H| past float64 (so past any Gershgorin bound) is
    refused, and so is a spec that does not fit the space (``check_fit``),
    before the ball is enumerated.
    """
    check_fit(space, spec)
    if frame is None:
        frame = _frame(space, spec.hopping, radius)
    elif (frame.space is not space or frame.hopping != spec.hopping
          or frame.radius != float(radius)):
        raise ValueError("frame of another space, hopping or radius")
    v = _potential_values(space, spec, frame.points)
    n = len(v)
    H = sparse.coo_array((np.concatenate((v, frame.values)),
                          (frame.rows, frame.cols)), shape=(n, n)).tocsr()
    H.eliminate_zeros()
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(abs(H).sum(axis=1)).all()
    if not finite:
        raise ValueError("operator entries overflow float64: a row sum of "
                         "|H| is not finite, so no spectral bound holds")
    if (H != H.T).nnz:
        raise AssertionError("truncated matrix lost exact symmetry")
    orbits, signs = np.arange(n), [np.ones(n)]
    if frame.order is not None:
        orbits = frame.orbits
        if np.array_equal(v[frame.order], v[frame.order[::-1]]):
            signs.append(np.sign(orbits))
            orbits = np.abs(orbits)
    blocks = tuple(_orbit_block(H, orbits, s) for s in signs)
    return TruncatedOperator(float(radius), space, frame.points, frame.dists,
                             frame.levels, frame.level_keys,
                             frame.level_counts, v, H, blocks, frame)


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

    def values_on(self, op: TruncatedOperator) -> np.ndarray:
        """The weight at each point of ``op``, built on the same ladder."""
        n = len(op.level_counts)
        if n > len(self.level_values):
            raise ValueError(
                "operator reaches ladder levels the weight was not built for; "
                "rebuild the weight from a longer ladder")
        if not np.array_equal(self.level_counts[:n], op.level_counts):
            raise ValueError("the weight was built on another ladder: its "
                             "level counts differ from the operator's")
        return self.level_values[op.levels]


def default_weight(ladder: RadiiLadder) -> WeightFunction:
    """w = 1 / (1 + |B(x0, d(x))|): certified summable on the weak-l1 scale.

    The base point gets 1/(1+N_0) = 1/2.  Superlevel sets of this weight
    are exactly the balls of the ladder.
    """
    _, counts = ladder.level_arrays()
    values = 1.0 / (1.0 + counts.astype(np.float64))
    return WeightFunction("default", values, counts)


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

    c_estimate: float
    divergent_trend: bool


def weak_l1_bound(w: WeightFunction) -> WeakL1Report:
    products = w.level_values * w.level_counts.astype(np.float64)
    c = float(products.max())
    half = len(products) // 2
    divergent = bool(len(products) >= 8
                     and products[-1] >= 1.5 * products[half]
                     and np.all(np.diff(products[half:]) > 0))
    return WeakL1Report(c_estimate=c, divergent_trend=divergent)
