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

Operator spectra are computed block by block.  Each ``Block`` of
``doslab.hamiltonians`` owns its solver and its routes: its eigenvalues,
diag g(M_b) together with the route it took, and the spectrum of its part
of g(H) M_w.  This module only joins blocks, one routine per spectral
quantity: ``symmetric_eigenvalues`` and ``product_eigenvalues`` merge the
blocks' values into one eigenvalue sequence, and ``function_diagonal``
scatters each block's diagonal back to the ball points and keeps its
route.  ``product_eigenvalues`` checks the weight before any block reads
it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hamiltonians import TruncatedOperator, WeightFunction

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


def eigen_sequence(values) -> np.ndarray:
    """Eigenvalues as float64, ordered by decreasing modulus; ties in
    |value| put the larger signed value first."""
    v = np.asarray(values, dtype=np.float64)
    return v[np.lexsort((-v, -np.abs(v)))]


def symmetric_eigenvalues(op: TruncatedOperator) -> np.ndarray:
    """Eigenvalues of the operator, ordered by decreasing modulus."""
    return eigen_sequence(np.concatenate([b.eigvalsh() for b in op.blocks]))


@dataclass
class FunctionDiagonal:
    """diag g(H) in the ball basis and the route it took on each block, in
    block order: ``("diagonal", size)``, ``("chebyshev", K, tail)`` or
    ``("eigh", size)``."""

    values: np.ndarray
    routes: tuple


def function_diagonal(op: TruncatedOperator, fn: Callable) -> FunctionDiagonal:
    """Diagonal of g(H) in the ball basis, without materialising g(H).

    Each block gives diag g(M_b) and its route (``Block.function_diagonal``)
    and scatters back as (Q_b*Q_b) diag g(M_b), where Q_b*Q_b is 1/c_j on
    the c_j points of orbit j.
    """
    out = np.zeros(op.n)
    routes = []
    for block in op.blocks:
        diag, route = block.function_diagonal(fn)
        block.scatter(out, diag)
        routes.append(route)
    return FunctionDiagonal(values=out, routes=tuple(routes))


def product_eigenvalues(op: TruncatedOperator, w, fn: Callable) -> np.ndarray:
    """Eigenvalues of fn(H) M_w for strictly positive w, ordered by
    decreasing modulus.

    The product shares its spectrum with W^(1/2) fn(M_b) W^(1/2) on each
    block (``Block.product_eigenvalues``).  M_w maps each block to itself
    only when w is constant on every orbit (w(-x) == w(x) on a
    parity-folded operator); ``Block.gather`` refuses any other w rather
    than average it.
    """
    if isinstance(w, WeightFunction):
        w_pts = w.values_for_levels(op.levels)
    else:
        w_pts = np.asarray(w, dtype=np.float64)
        if w_pts.shape != (op.n,):
            raise ValueError("weight vector length does not match operator")
    weights = [block.gather(w_pts) for block in op.blocks]
    if any(np.any(wb <= 0) for wb in weights):
        raise ValueError("weights must be strictly positive")
    return eigen_sequence(np.concatenate(
        [block.product_eigenvalues(wb, fn)
         for block, wb in zip(op.blocks, weights)]))


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

    def lam_table(self):
        n = dyadic_counts(len(self))
        return n, self.lam(n)


def dyadic_counts(n_max: int) -> np.ndarray:
    """Powers of two up to n_max, plus n_max itself."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exponents = np.arange((n_max - 1).bit_length(), dtype=np.int64)
    return np.append(np.left_shift(1, exponents), np.int64(n_max))


def log_cesaro(seq) -> CesaroSeries:
    """Partial-sum series of an ordered eigenvalue sequence."""
    values = np.asarray(seq)
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
    shifts = np.arange((n_hi // n_lo).bit_length(), dtype=np.int64)
    return np.right_shift(np.int64(n_hi), shifts[::-1])


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
