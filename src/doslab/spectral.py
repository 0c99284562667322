"""Eigenvalue sequences, log-scale partial sums and summation diagnostics.

The central objects are an eigenvalue sequence ordered by decreasing
modulus, its partial sums S(n) evaluated against log(2+n), and
least-squares slope fits over a dyadic index window.  The slope of
S(n) vs log(2+n) is the trace-at-logarithmic-scale estimate everything
else reports; the residual trend of the same fit is the measurability
signal.

Operator spectra are computed block by block, with the solver each
``Block`` chose from its nonzero pattern.  Dense blocks go to LAPACK
through numpy (``syevd``: tridiagonal reduction, then the divide and
conquer kernel ``stedc``).  Tridiagonal blocks skip the reduction: their
eigenpairs come from ``dstevd`` (the same ``stedc`` kernel) and their
values alone from ``dsterf`` through ``scipy.linalg.eigvalsh_tridiagonal``,
the kernel ``syevd`` itself uses for values only.  For dimensions up to a
few thousand the relative residual of the returned pairs is far below
1e-10, which the test suite pins down.
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
    """Scalar function applied to spectra: gaussian / bump / polynomial / table."""

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
        if self.kind == "table":
            xs, ys = self.params
            return np.interp(x, np.asarray(xs), np.asarray(ys))
        raise AssertionError(self.kind)  # pragma: no cover

    @property
    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(center={self.params[0]:g}, sigma={self.params[1]:g})"
        if self.kind == "bump":
            return f"bump(center={self.params[0]:g}, halfwidth={self.params[1]:g})"
        if self.kind == "polynomial":
            return f"polynomial(degree={len(self.params) - 1})"
        return "table"


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


def table_function(xs: Sequence[float], ys: Sequence[float]) -> SpectralFunction:
    xs = tuple(float(v) for v in xs)
    ys = tuple(float(v) for v in ys)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("table needs matching xs/ys with at least two nodes")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("table xs must be strictly increasing")
    return SpectralFunction("table", (xs, ys))


def constant_one() -> SpectralFunction:
    return polynomial([1.0])


def identity_function() -> SpectralFunction:
    return polynomial([0.0, 1.0])


# ---------------------------------------------------------------------------
# eigenvalue sequences


@dataclass
class EigenSequence:
    """Eigenvalues ordered by decreasing modulus.

    Ties in |value| put the larger signed value first, then the smaller
    original index; ``order`` maps back to input positions.
    """

    values: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def eigen_sequence(values) -> EigenSequence:
    v = np.asarray(values, dtype=np.float64)
    idx = np.arange(len(v))
    ordering = np.lexsort((idx, -v, -np.abs(v)))
    return EigenSequence(values=v[ordering], order=ordering)


def _check_symmetric(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")


def symmetric_eigenvalues(op) -> EigenSequence:
    """Eigenvalues of a symmetric operator, ordered by decreasing modulus."""
    if isinstance(op, TruncatedOperator):
        return eigen_sequence(np.concatenate([_block_eigvalsh(b)
                                              for b in op.blocks]))
    a = np.asarray(op, dtype=np.float64)
    _check_symmetric(a)
    return eigen_sequence(np.linalg.eigvalsh(a))


def _block_eigvalsh(block: Block, weights=None, fn=None) -> np.ndarray:
    """Eigenvalues of W^(1/2) T W^(1/2) with W = diag(weights) and T = M_b,
    or T = fn(M_b) from the block's cached eigendecomposition.  Without
    weights (W = 1) there is no ``fn``: these are M_b's own eigenvalues.
    W^(1/2) M_b W^(1/2) keeps M_b's band, so a tridiagonal block stays
    tridiagonal; W^(1/2) fn(M_b) W^(1/2) is dense."""
    if block.solver == "diagonal":
        d = block.diagonal if fn is None else fn(block.diagonal)
        d = np.asarray(d, dtype=np.float64)
        return d if weights is None else d * weights
    if fn is None and block.solver == "tridiagonal":
        from scipy.linalg import eigvalsh_tridiagonal
        d, e = block.diagonal, block.matrix.diagonal(1)
        if weights is not None:
            s = np.sqrt(weights)
            d, e = d * (s * s), e * (s[:-1] * s[1:])
        return eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    if fn is None:
        m = block.matrix.toarray()
        if weights is not None:
            s = np.sqrt(weights)
            m *= np.outer(s, s)  # exactly symmetric by commutativity
        return np.linalg.eigvalsh(m)
    evals, evecs = block.eigh()
    b = np.sqrt(weights)[:, None] * evecs
    m = (b * fn(evals)) @ b.T
    return np.linalg.eigvalsh((m + m.T) / 2.0)


def function_diagonal(op: TruncatedOperator, fn: Callable) -> np.ndarray:
    """Diagonal of g(H) in the ball basis, without materialising g(H).

    Per block, diag g(M_b) = (V*V) fn(w) from one cached eigendecomposition
    M_b = V diag(w) V^T; the blocks scatter back as (Q_b*Q_b) diag g(M_b),
    where Q_b*Q_b is 1/c_j on the c_j points of orbit j.
    """
    out = np.zeros(op.n)
    for block in op.blocks:
        if block.solver == "diagonal":
            diag = np.asarray(fn(block.diagonal), dtype=np.float64)
        else:
            evals, evecs = block.eigh()
            diag = (evecs * evecs) @ fn(evals)
        q = block.basis.tocoo()
        size = np.bincount(q.col, minlength=q.shape[1])
        out[q.row] += diag[q.col] / size[q.col]
    return out


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


def product_eigenvalues(op: TruncatedOperator, w, fn=None) -> EigenSequence:
    """Eigenvalues of T * M_w for symmetric T and strictly positive w.

    T is the operator itself, or fn(H) when ``fn`` is given (sharing the
    cached eigendecomposition of H instead of materialising fn(H)).
    Computed through the symmetric similarity M_w^(1/2) T M_w^(1/2),
    which shares the product's spectrum; the result is real and comes from
    a symmetric eigensolve per block.
    """
    weights = _block_weights(op, w)
    if any(np.any(wb <= 0) for wb in weights):
        raise ValueError("weights must be strictly positive")
    return eigen_sequence(np.concatenate(
        [_block_eigvalsh(b, wb, fn) for b, wb in zip(op.blocks, weights)]))


# ---------------------------------------------------------------------------
# partial sums at logarithmic scale


@dataclass
class CesaroSeries:
    """Partial sums S(n) of an ordered sequence with log-scale access.

    ``n`` counts terms, so ``partial[n-1] = S(n)`` and
    ``lam(n) = S(n)/log(2+n)`` is the quantity whose limit (when it
    exists) plays the role of the trace at logarithmic scale.
    """

    partial: np.ndarray

    def __len__(self) -> int:
        return len(self.partial)

    def lam(self, n=None):
        if n is None:
            n = np.arange(1, len(self.partial) + 1)
        n = np.asarray(n)
        if np.any(n < 1) or np.any(n > len(self.partial)):
            raise IndexError("term count out of range")
        return self.partial[n - 1] / np.log(2.0 + n)

    @property
    def dyadic_counts(self) -> np.ndarray:
        return dyadic_counts(len(self.partial))

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
    return CesaroSeries(partial=np.cumsum(values, dtype=np.float64))


def run_length_series(values: np.ndarray, multiplicities: np.ndarray) -> CesaroSeries:
    """Series of a sequence given as (value, multiplicity) runs."""
    expanded = np.repeat(np.asarray(values, dtype=np.float64),
                         np.asarray(multiplicities, dtype=np.int64))
    return CesaroSeries(partial=np.cumsum(expanded, dtype=np.float64))


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
    residuals: np.ndarray
    max_residual: float
    residual_growth_slope: float
    scale: float

    @property
    def n_points(self) -> int:
        return len(self.indices)


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


def slope_dixmier_estimate(series: CesaroSeries, window: tuple | None = None,
                           min_points: int = 8) -> SlopeFit:
    """Trace-at-log-scale estimate: slope of S(n) vs log(2+n).

    The default window spans the last eight octaves of the term range.
    """
    n_hi = len(series.partial)
    if window is None:
        n_lo = max(8, n_hi >> 8)
    else:
        n_lo, n_hi = window
    if n_hi > len(series.partial):
        raise ValueError(f"window {n_lo}..{n_hi} reaches beyond the "
                         f"{len(series.partial)} terms of the series")
    counts = dyadic_window_counts(int(n_lo), int(n_hi))
    if len(counts) < min_points:
        raise ValueError(
            f"window {n_lo}..{n_hi} has only {len(counts)} dyadic points, "
            f"need {min_points}")
    x = np.log(2.0 + counts)
    y = series.partial[counts - 1]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    growth = float(np.polyfit(x, np.abs(resid), 1)[0])
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    window=(int(n_lo), int(n_hi)), indices=counts,
                    residuals=resid, max_residual=float(np.abs(resid).max()),
                    residual_growth_slope=growth,
                    scale=float(np.abs(y).max()))


# ---------------------------------------------------------------------------
# weighted means and subsequence diagnostics


@dataclass
class WeightedMeanReport:
    """Ratios sum(a*x)/sum(a) on a dyadic grid plus hypothesis checks."""

    indices: np.ndarray
    ratios: np.ndarray
    denominators: np.ndarray
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
        indices=n, ratios=num[n - 1] / den[n - 1], denominators=den[n - 1],
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
    indices: np.ndarray
    discrepancies: np.ndarray


def subsequence_equivalence_check(values, checkpoints) -> SubsequenceReport:
    v = np.asarray(values, dtype=np.float64)
    ks = np.asarray(sorted(set(int(k) for k in checkpoints)), dtype=np.int64)
    if ks[0] < 1 or ks[-1] > len(v):
        raise ValueError("checkpoints must be 1-based positions into values")
    means = np.cumsum(v) / np.arange(1, len(v) + 1)
    n = np.arange(1, len(v) + 1)
    last_k = ks[np.searchsorted(ks, n, side="right") - 1]
    valid = n >= ks[0]
    disc = np.abs(means - means[last_k - 1])
    tail = valid & (n >= len(v) // 2)
    ratios = ks[1:] / ks[:-1].astype(np.float64)
    tail_ratio = float(ratios[ks[1:] >= len(v) // 2].max()) if np.any(
        ks[1:] >= len(v) // 2) else float(ratios[-1])
    grid = dyadic_counts(len(v))
    return SubsequenceReport(
        max_tail_discrepancy=float(disc[tail].max()),
        checkpoint_ratio_tail=tail_ratio,
        indices=grid, discrepancies=disc[grid - 1])


# ---------------------------------------------------------------------------
# modulated Hilbert-Schmidt profile


@dataclass
class ModulatedProfile:
    """t -> sqrt(t) * ||T (1 + t M_V)^-1||_HS over a t grid.

    A bounded profile as t grows (and as the truncation radius doubles) is
    the working certificate that T is modulated by the weight V.
    """

    t_grid: np.ndarray
    values: np.ndarray
    sup_value: float


def modulated_norm_profile(op: TruncatedOperator, w, t_grid) -> ModulatedProfile:
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    weights = np.concatenate(_block_weights(op, w))
    # squared column norms of each M_b: the HS norm is basis invariant
    col_norms = np.concatenate([(b.matrix * b.matrix).sum(axis=0)
                                for b in op.blocks])
    values = np.array([math.sqrt(t * np.sum(col_norms / (1.0 + t * weights) ** 2))
                       for t in t_grid])
    return ModulatedProfile(t_grid=t_grid, values=values,
                            sup_value=float(values.max()))
