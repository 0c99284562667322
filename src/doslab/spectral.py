"""Eigenvalue sequences, log-scale partial sums and summation diagnostics.

The central objects are an eigenvalue sequence ordered by decreasing
modulus, its partial sums S(n) evaluated against log(2+n), and
least-squares slope fits over a dyadic index window.  The slope of
S(n) vs log(2+n) is the trace-at-logarithmic-scale estimate everything
else reports; the residual trend of the same fit is the measurability
signal.  A series is stored as runs of equal terms (``CesaroSeries``):
an eigenvalue sequence has one run per term, and the spectrum of a
radial weight has one run per ladder level, so a weight's series costs
memory in its levels, not in its ball points.

Operator spectra are computed block by block, with the solver each
``Block`` chose from its nonzero pattern, and each spectral quantity has
one routine.  The eigensolves themselves, and the entry ceiling on their
n_b x n_b arrays, belong to ``Block``: ``symmetric_eigenvalues`` joins
each block's ``eigvalsh`` (values only: ``dsterf`` on a tridiagonal
block), while ``product_eigenvalues`` and ``function_diagonal`` share
each block's cached ``eigh`` (``dstevd`` on a tridiagonal block,
``syevd`` on a dense one).  For dimensions up to a few thousand the relative
residual of the returned pairs is far below 1e-10, which the test suite
pins down.  ``product_eigenvalues`` is rank-factored: it keeps the k
eigenvectors with g(lambda) != 0, an exact cut with no threshold, solves
one k x k problem built from their weighted Gram matrix, and returns the
other n - k eigenvalues as exact zeros, so a compactly supported g costs
an n k^2 product instead of an n^3 one.

``function_diagonal`` has one more route, for tridiagonal blocks: the
kernel polynomial method with probing vectors (Weisse et al., Rev. Mod.
Phys. 78, 275 (2006); Tang & Saad, Numer. Linear Algebra Appl. 19
(2012)).  g is expanded in K Chebyshev terms on the block's Gershgorin
interval, and the coefficient tail beyond K of its interpolant bounds
the error of every diagonal entry.  T_k of a tridiagonal block has
bandwidth k, so K probes of sites equal mod K recover the diagonal
exactly, in n K^2 work and without eigenvectors.  A block takes this
route only when the tail is at most 1e-14 max|g| with K^2 <= n, below
the n^2 cost of its eigenvectors, and p_K also matches g at the points
between the interpolation points; a g that vanishes at every sample has
no relative bound and is refused too, so a bump narrower than the point
spacing cannot alias to zero.  Every other block keeps the eigen route.
The choice depends on (M_b, g) alone, and the result carries it per
block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hamiltonians import Block, TruncatedOperator, WeightFunction

# ---------------------------------------------------------------------------
# spectral test functions


@dataclass(frozen=True)
class SpectralFunction:
    """Scalar function applied to spectra: gaussian / bump / polynomial."""

    kind: str
    params: tuple

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "gaussian":
            center, sigma = self.params
            return np.exp(-0.5 * ((x - center) / sigma) ** 2)
        if self.kind == "bump":
            center, halfwidth = self.params
            u = (x - center) / halfwidth
            inside = np.abs(u) < 1.0
            out = np.zeros_like(x)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                vals = np.exp(1.0 - 1.0 / np.where(inside, 1.0 - u * u, 1.0))
            out[inside] = vals[inside]
            return out
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.params))
        raise AssertionError(self.kind)  # pragma: no cover


def gaussian(center: float, sigma: float) -> SpectralFunction:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return SpectralFunction("gaussian", (float(center), float(sigma)))


def bump(center: float, halfwidth: float) -> SpectralFunction:
    """Smooth compactly supported bump, 1 at the center, 0 outside."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    return SpectralFunction("bump", (float(center), float(halfwidth)))


def polynomial(coeffs: Sequence[float]) -> SpectralFunction:
    """Polynomial with coefficients in increasing degree order."""
    if len(coeffs) == 0:
        raise ValueError("need at least one coefficient")
    return SpectralFunction("polynomial", tuple(float(c) for c in coeffs))


def constant_one() -> SpectralFunction:
    return polynomial([1.0])


# ---------------------------------------------------------------------------
# eigenvalue sequences


@dataclass
class EigenSequence:
    """Eigenvalues ordered by decreasing modulus; ties in |value| put the
    larger signed value first."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def eigen_sequence(values) -> EigenSequence:
    v = np.asarray(values, dtype=np.float64)
    return EigenSequence(values=v[np.lexsort((-v, -np.abs(v)))])


def symmetric_eigenvalues(op: TruncatedOperator) -> EigenSequence:
    """Eigenvalues of the operator, ordered by decreasing modulus."""
    return eigen_sequence(np.concatenate([b.eigvalsh() for b in op.blocks]))


# the Chebyshev route's tail must stay within this fraction of max|g|
CHEBYSHEV_TOL = 1e-14


def _chebyshev_plan(block: Block, fn: Callable) -> tuple | None:
    """(c_0..c_{K-1}, lo, hi, tail) for the Chebyshev route on a
    tridiagonal block, or None when the route rule sends it to ``eigh``.

    [lo, hi] is the Gershgorin interval of M_b, so it holds the spectrum.
    The c_k interpolate fn at N = 4 floor(sqrt(n)) Chebyshev points of
    [lo, hi]; they come from a DCT-II through ``numpy.fft``, whose rounding
    stays near 1e-17 a coefficient where an N x N cosine product leaves a
    floor above the tolerance.  With scale the largest |g| sampled, K is
    the smallest count of terms whose tail sum_{k>=K} |c_k| is at most
    CHEBYSHEV_TOL scale; as |T_k| <= 1 on the interval, the tail bounds
    ||p_N(M_b) - p_K(M_b)||_2 for the N-point interpolant p_N, and so
    every diagonal entry.  The points alone cannot tell g from p_N: a g
    narrower than their spacing can vanish on all of them and alias to
    p_K = 0.  So g is also sampled at the N + 1 points cos(pi j / N)
    between them, the interval's ends included, and p_K must match it
    there to CHEBYSHEV_TOL scale as well; a g that is zero at every
    sample gives no relative bound at all.  The route is taken only when
    both checks pass with K^2 <= n, where its n K^2 work stays below the
    n^2 entries of the eigenvectors.
    """
    n = block.matrix.shape[0]
    d, e = block.diagonal, np.abs(block.matrix.diagonal(1))
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
    """diag p(M_b) for p = sum_k c_k T_k on [lo, hi], by probing.

    T_k of the rescaled block has bandwidth k < K, so the K probes
    z_j = sum_{i = j mod K} e_i never overlap in a band: entry (i, i mod K)
    of T_k Z is T_k[i, i].  The three-term recurrence runs on the n x K
    block Z with the band product done by slicing.
    """
    n, terms = block.matrix.shape[0], len(c)
    half = (hi - lo) / 2.0
    d = ((block.diagonal - (hi + lo) / 2.0) / half)[:, None]
    e = (block.matrix.diagonal(1) / half)[:, None]

    def band(t):
        out = d * t
        out[:-1] += e * t[1:]
        out[1:] += e * t[:-1]
        return out

    sites = np.arange(n)
    own = sites * terms + sites % terms  # flat index of (i, i mod K)
    prev = np.zeros((n, terms))
    prev.flat[own] = 1.0
    diag = np.full(n, c[0])
    if terms == 1:
        return diag
    cur = band(prev)
    diag += c[1] * cur.ravel()[own]
    for ck in c[2:]:
        prev = 2.0 * band(cur) - prev
        prev, cur = cur, prev
        diag += ck * cur.ravel()[own]
    return diag


@dataclass
class FunctionDiagonal:
    """diag g(H) in the ball basis and the route it took on each block, in
    block order: ``("diagonal", size)``, ``("chebyshev", K, tail)`` or
    ``("eigh", size)``."""

    values: np.ndarray
    routes: tuple


def function_diagonal(op: TruncatedOperator, fn: Callable) -> FunctionDiagonal:
    """Diagonal of g(H) in the ball basis, without materialising g(H).

    Per block, a diagonal block gives fn(diag M_b) directly.  A tridiagonal
    block that passes the route rule of ``_chebyshev_plan`` takes the
    probed Chebyshev route; every other block gives diag g(M_b) =
    (V*V) fn(w) from its cached eigendecomposition M_b = V diag(w) V^T,
    the route the tests hold the other to.  The rule reads only M_b and
    fn, never whether ``eigh`` is cached, so one input gives the same
    bytes in any call order.  The blocks scatter back as
    (Q_b*Q_b) diag g(M_b), where Q_b*Q_b is 1/c_j on the c_j points of
    orbit j.
    """
    out = np.zeros(op.n)
    routes = []
    for block in op.blocks:
        dim = block.matrix.shape[0]
        plan = (_chebyshev_plan(block, fn) if block.solver == "tridiagonal"
                else None)
        if block.solver == "diagonal":
            diag = np.asarray(fn(block.diagonal), dtype=np.float64)
            routes.append(("diagonal", dim))
        elif plan is not None:
            c, lo, hi, tail = plan
            diag = _chebyshev_diagonal(block, c, lo, hi)
            routes.append(("chebyshev", len(c), tail))
        else:
            evals, evecs = block.eigh()
            diag = (evecs * evecs) @ fn(evals)
            routes.append(("eigh", dim))
        q = block.basis.tocoo()
        size = np.bincount(q.col, minlength=q.shape[1])
        out[q.row] += diag[q.col] / size[q.col]
    return FunctionDiagonal(values=out, routes=tuple(routes))


def _block_weights(op: TruncatedOperator, w) -> list:
    """The weight of ``op``'s points as one vector per block basis.

    M_w maps each block to itself only when w is constant on the support
    of every basis column (on a parity-folded operator: w(-x) == w(x));
    any other w is refused rather than silently averaged.
    """
    if isinstance(w, WeightFunction):
        w_pts = w.values_for_levels(op.levels)
    else:
        w_pts = np.asarray(w, dtype=np.float64)
        if w_pts.shape != (op.n,):
            raise ValueError("weight vector length does not match operator")
    out = []
    for block in op.blocks:
        q = block.basis.tocoo()
        wb = np.empty(q.shape[1])
        wb[q.col] = w_pts[q.row]
        if not np.array_equal(wb[q.col], w_pts[q.row]):
            raise ValueError("weight is not constant on the operator's "
                             "symmetry orbits (w(-x) != w(x) on a "
                             "parity-folded operator)")
        out.append(wb)
    return out


def product_eigenvalues(op: TruncatedOperator, w, fn: Callable) -> EigenSequence:
    """Eigenvalues of fn(H) M_w for strictly positive w.

    The product shares its spectrum with W^(1/2) fn(M_b) W^(1/2) on each
    block.  On a diagonal block that is fn(d) * w.  On any other block,
    with the cached eigendecomposition M_b = V diag(lam) V^T, it is
    X G X^T with X = W^(1/2) V_k and G = diag(fn(lam_k)), where the k
    kept columns are those with fn(lam) != 0: an exact cut, since the
    others contribute nothing.  X G X^T and G X^T X have the same nonzero
    eigenvalues, so only the k x k Gram matrix C = X^T X (SPD, as w > 0)
    is formed, an n k^2 product in place of an n^3 one.  The nonzero
    spectrum is ``eigvalsh`` of G^(1/2) C G^(1/2) when G > 0, and of
    L^T G L with C = L L^T (Cholesky) when fn changes sign; the other
    n - k eigenvalues are exact zeros.
    """
    weights = _block_weights(op, w)
    if any(np.any(wb <= 0) for wb in weights):
        raise ValueError("weights must be strictly positive")
    parts = []
    for block, wb in zip(op.blocks, weights):
        if block.solver == "diagonal":
            parts.append(np.asarray(fn(block.diagonal), dtype=np.float64) * wb)
            continue
        evals, evecs = block.eigh()
        g = np.asarray(fn(evals), dtype=np.float64)
        keep = np.flatnonzero(g)
        g = g[keep]
        x = evecs[:, keep]  # a copy: the cached vectors stay intact
        x *= np.sqrt(wb)[:, None]
        c = x.T @ x
        if np.all(g > 0):
            s = np.sqrt(g)
            m = s[:, None] * c * s
        else:
            chol = np.linalg.cholesky(c)
            m = (chol.T * g) @ chol
        parts.append(np.linalg.eigvalsh((m + m.T) / 2.0))
        parts.append(np.zeros(len(evals) - len(keep)))
    return eigen_sequence(np.concatenate(parts))


# ---------------------------------------------------------------------------
# partial sums at logarithmic scale


@dataclass
class CesaroSeries:
    """Partial sums S(n) of an ordered sequence, stored as runs of equal
    terms, with log-scale access.

    ``ends[j]`` is the number of terms through run j and ``sums[j]`` is
    S(ends[j]).  S is linear inside a run, so ``at(n)`` interpolates
    between run ends, and returns ``sums`` exactly at them.
    ``lam(n) = S(n)/log(2+n)`` is the quantity whose limit (when it
    exists) plays the role of the trace at logarithmic scale.
    """

    ends: np.ndarray
    sums: np.ndarray

    def __len__(self) -> int:
        return int(self.ends[-1]) if len(self.ends) else 0

    def at(self, n):
        """S(n) for term counts 1 <= n <= len(self)."""
        n = np.asarray(n)
        if np.any(n < 1) or np.any(n > len(self)):
            raise IndexError("term count out of range")
        return np.interp(n, np.concatenate(([0], self.ends)),
                         np.concatenate(([0.0], self.sums)))

    def lam(self, n):
        n = np.asarray(n)
        return self.at(n) / np.log(2.0 + n)

    @property
    def dyadic_counts(self) -> np.ndarray:
        return dyadic_counts(len(self))

    def lam_table(self):
        n = self.dyadic_counts
        return n, self.lam(n)


def dyadic_counts(n_max: int) -> np.ndarray:
    """Powers of two up to n_max, plus n_max itself."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    j = 0
    while (1 << j) < n_max:
        out.append(1 << j)
        j += 1
    out.append(n_max)
    return np.array(out, dtype=np.int64)


def log_cesaro(seq) -> CesaroSeries:
    """Partial-sum series of an eigenvalue sequence (or pre-ordered array)."""
    values = seq.values if isinstance(seq, EigenSequence) else np.asarray(seq)
    return CesaroSeries(ends=np.arange(1, len(values) + 1),
                        sums=np.cumsum(values, dtype=np.float64))


def run_length_series(values: np.ndarray, multiplicities: np.ndarray) -> CesaroSeries:
    """Series of a sequence given as (value, multiplicity) runs."""
    m = np.asarray(multiplicities, dtype=np.int64)
    return CesaroSeries(ends=np.cumsum(m),
                        sums=np.cumsum(np.asarray(values, dtype=np.float64) * m))


MIN_FIT_POINTS = 8


@dataclass
class SlopeFit:
    """Least-squares fit of S(n) against log(2+n) over a dyadic window.

    ``residual_growth_slope`` fits |residual| against log(2+n): near zero
    for a bounded residual trend, clearly positive when the residuals grow
    with the window.
    """

    slope: float
    intercept: float
    window: tuple
    indices: np.ndarray
    max_residual: float
    residual_growth_slope: float
    scale: float


def dyadic_window_counts(n_lo: int, n_hi: int) -> np.ndarray:
    """Term counts n_hi, n_hi/2, ... down to n_lo (1-based, ascending)."""
    if not 1 <= n_lo < n_hi:
        raise ValueError("need 1 <= n_lo < n_hi")
    out = [n_hi]
    n = n_hi
    while n // 2 >= n_lo:
        n //= 2
        out.append(n)
    return np.array(sorted(out), dtype=np.int64)


def slope_dixmier_estimate(series: CesaroSeries,
                           window: tuple | None = None) -> SlopeFit:
    """Trace-at-log-scale estimate: slope of S(n) vs log(2+n).

    The default window spans the last eight octaves of the term range;
    any window needs ``MIN_FIT_POINTS`` dyadic points.
    """
    n_hi = len(series)
    if window is None:
        n_lo = max(8, n_hi >> 8)
    else:
        n_lo, n_hi = window
    if n_hi > len(series):
        raise ValueError(f"window {n_lo}..{n_hi} reaches beyond the "
                         f"{len(series)} terms of the series")
    counts = dyadic_window_counts(int(n_lo), int(n_hi))
    if len(counts) < MIN_FIT_POINTS:
        raise ValueError(
            f"window {n_lo}..{n_hi} has only {len(counts)} dyadic points, "
            f"need {MIN_FIT_POINTS}")
    x = np.log(2.0 + counts)
    y = series.at(counts)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    growth = float(np.polyfit(x, np.abs(resid), 1)[0])
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    window=(int(n_lo), int(n_hi)), indices=counts,
                    max_residual=float(np.abs(resid).max()),
                    residual_growth_slope=growth,
                    scale=float(np.abs(y).max()))


# ---------------------------------------------------------------------------
# weighted means and subsequence diagnostics


@dataclass
class WeightedMeanReport:
    """Ratios sum(a*x)/sum(a) on a dyadic grid plus hypothesis checks."""

    indices: np.ndarray
    ratios: np.ndarray
    positive: bool
    nonincreasing: bool
    sup_k_ak: float
    denominator_divergent: bool


def weighted_cesaro(a, x) -> WeightedMeanReport:
    """Weighted running means of x with nonnegative weights a.

    When a is positive non-increasing with sup k*a_k finite and divergent
    partial sums, the ratios follow the Cesaro limit of x; the report
    carries the hypothesis checks so callers can see which failures
    explain a non-convergent ratio table.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.shape != x.shape:
        raise ValueError("a and x must have the same length")
    num = np.cumsum(a * x)
    den = np.cumsum(a)
    if den[-1] <= 0:
        raise ValueError("weights must have positive mass")
    n = dyadic_counts(len(a))
    k = np.arange(1, len(a) + 1, dtype=np.float64)
    return WeightedMeanReport(
        indices=n, ratios=num[n - 1] / den[n - 1],
        positive=bool(np.all(a > 0)),
        nonincreasing=bool(np.all(np.diff(a) <= 0)),
        sup_k_ak=float(np.max(k * a)),
        denominator_divergent=bool(den[-1] >= 1.5 * den[len(a) // 2]))


@dataclass
class BoundedDeviationReport:
    """Deviations |sum a*x - L*sum a| and their growth across the grid."""

    indices: np.ndarray
    deviations: np.ndarray
    growth_slope: float
    weighted_mean_abs_dev: float


def weighted_cesaro_bounded(a, x, limit: float) -> BoundedDeviationReport:
    """Deviation table of weighted sums around limit * sum(a).

    ``weighted_mean_abs_dev`` is sum a_k |sigma_k - L| over the running
    means sigma of x: when it is finite (the summability hypothesis) the
    deviation table stays bounded; the growth slope makes a violation
    visible instead of asserting anything.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.shape != x.shape:
        raise ValueError("a and x must have the same length")
    delta = np.cumsum(a * x) - limit * np.cumsum(a)
    n = dyadic_counts(len(a))
    dev = np.abs(delta[n - 1])
    growth = float(np.polyfit(np.log(2.0 + n), dev, 1)[0])
    sigma = np.cumsum(x) / np.arange(1, len(x) + 1)
    return BoundedDeviationReport(
        indices=n, deviations=dev, growth_slope=growth,
        weighted_mean_abs_dev=float(np.sum(a * np.abs(sigma - limit))))


@dataclass
class SubsequenceReport:
    """Gap between running means and their last-checkpoint values.

    ``max_tail_discrepancy`` is sup over the second half of the index
    range of |mean(n) - mean(k(n))| where k(n) is the last checkpoint
    <= n.  It vanishes when the checkpoints are dense at log scale
    (ratio -> 1) and the means converge along them.
    """

    max_tail_discrepancy: float
    checkpoint_ratio_tail: float


def subsequence_equivalence_check(values, checkpoints) -> SubsequenceReport:
    v = np.asarray(values, dtype=np.float64)
    ks = np.asarray(sorted(set(int(k) for k in checkpoints)), dtype=np.int64)
    if ks[0] < 1 or ks[-1] > len(v):
        raise ValueError("checkpoints must be 1-based positions into values")
    n = np.arange(1, len(v) + 1)
    means = np.cumsum(v) / n
    last_k = ks[np.searchsorted(ks, n, side="right") - 1]
    disc = np.abs(means - means[last_k - 1])
    tail = (n >= ks[0]) & (n >= len(v) // 2)
    ratios = ks[1:] / ks[:-1].astype(np.float64)
    tail_ratio = float(ratios[ks[1:] >= len(v) // 2].max()) if np.any(
        ks[1:] >= len(v) // 2) else float(ratios[-1])
    return SubsequenceReport(
        max_tail_discrepancy=float(disc[tail].max()),
        checkpoint_ratio_tail=tail_ratio)
