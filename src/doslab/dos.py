"""Density-of-states approximants and the trace identity they feed.

The pipeline has three independent legs:

* ``dos_approximant``    ball averages of diag g(H), whose tail estimates
                         the DOS integral of g,
* ``dixmier_lhs``        log-scale slope of the eigenvalue partial sums of
                         g(H) M_w on a truncation,
* ``weight_dixmier_trace``  the same slope for M_w alone, computed from
                         the ladder without any matrix.

``main_theorem_check`` joins them and reports the relative gap between
the slope of g(H) M_w and (slope of M_w) x (DOS tail value), together
with a diagonal-replacement diagnostic: the partial sums of the ordered
eigenvalues of g(H) M_w and of diag(g(H)) w should stay within O(1) of
each other, so the gap series must not grow at log scale.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotEstablished, PreconditionFailed
from .hamiltonians import (TruncatedOperator, WeightFunction, build_truncated,
                           weak_l1_bound)
from .spaces import CRatioReport, RadiiLadder, condition_c_report
from .spectral import (CesaroSeries, SlopeFit, function_diagonal,
                       log_cesaro, product_eigenvalues, run_length_series,
                       slope_dixmier_estimate, symmetric_eigenvalues)

DEFAULT_MARGIN = 50.0

# DOS tail estimator: mean over the last quarter of the requested radii,
# abstaining when the spread over them (over at least the last two) is out
# of proportion to the mean.
DOS_TAIL_FRACTION = 0.25
DOS_DIVERGENCE_TOL = 0.25
GAP_FLOOR = 1e-3

# measurability thresholds, calibrated on the harmonic sequence, the
# dyadic-block sequence and a sin(log log) drifter at 2^20..2^24 terms:
# slope drift between window halves is ~1e-4 of scale for the first two
# and ~0.11 for the drifter, so 0.04 splits them with wide margin
SLOPE_DRIFT_TOL = 0.04
RESID_GROWTH_TOL = 0.05
MODULATED_SLOPE_TOL = 0.05


@dataclass
class DosEstimate:
    """Ball averages of diag g(H) per radius with a tail-limit diagnostic.

    ``solvers`` is the operator's (solver, size) per block and
    ``diagonal_routes`` the route diag g(H) took on each block
    (``spectral.FunctionDiagonal.routes``).
    """

    radii: np.ndarray
    ball_counts: np.ndarray
    values: np.ndarray
    margin: float
    outer_radius: float
    tail_mean: float
    tail_spread: float
    solvers: tuple
    diagonal_routes: tuple

    def rows(self):
        for r, c, v in zip(self.radii, self.ball_counts, self.values):
            yield float(r), int(c), float(v)

    @property
    def diverged(self) -> bool:
        floor = max(abs(self.tail_mean), GAP_FLOOR)
        return self.tail_spread > DOS_DIVERGENCE_TOL * floor


def _ball_prefix_counts(op: TruncatedOperator, radii: np.ndarray) -> np.ndarray:
    """Points of ``op`` in the space's ball of each radius: the count
    through the last level whose key is within the radius's key limit."""
    idx = np.searchsorted(op.level_keys, op.space.key_limit(radii),
                          side="right") - 1
    if np.any(idx < 0):
        raise ValueError("requested radius below the base level")
    return op.level_counts[idx]


def dos_approximant(space, spec, fn, radii, margin: float = DEFAULT_MARGIN,
                    operator: TruncatedOperator | None = None) -> DosEstimate:
    """Tr(g(H) chi_B)/|B| along the given radii.

    The Hamiltonian is built once on the ball of radius max(radii)+margin
    so the requested balls sit away from the truncation boundary; a
    prebuilt ``operator`` whose ball holds that one (its space's
    ``key_limit`` is at least as large) is reused as is.  Each ball count
    is the count of the space's own ball of that radius.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    if len(radii) == 0:
        raise ValueError("need at least one radius")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    if not margin >= 0:
        raise ValueError("margin must be >= 0")
    if margin == 0:
        warnings.warn("margin 0: ball averages touch the truncation boundary "
                      "and pick up edge contamination", stacklevel=2)
    outer = float(radii[-1]) + float(margin)
    if operator is None:
        operator = build_truncated(space, spec, outer)
    elif (operator.space.key_limit(operator.radius)
          < operator.space.key_limit(outer)):
        raise ValueError(
            f"supplied operator truncated at {operator.radius}, need >= {outer}")
    diag = function_diagonal(operator, fn)
    csum = np.cumsum(diag.values)
    counts = _ball_prefix_counts(operator, radii)
    values = csum[counts - 1] / counts
    q = max(1, int(len(radii) * DOS_TAIL_FRACTION))
    spread = values[-max(2, q):]
    return DosEstimate(radii=radii, ball_counts=counts, values=values,
                       margin=float(margin), outer_radius=float(operator.radius),
                       tail_mean=float(values[-q:].mean()),
                       tail_spread=float(spread.max() - spread.min()),
                       solvers=operator.solvers,
                       diagonal_routes=diag.routes)


@dataclass
class IdsHistogram:
    """Empirical integrated density of states of a single truncation.

    ``solvers`` is the operator's (solver, size) per block.
    """

    energies: np.ndarray
    fractions: np.ndarray
    radius: float
    solvers: tuple = ()

    @property
    def n(self) -> int:
        return len(self.energies)

    def evaluate(self, e):
        """Fraction of eigenvalues <= e."""
        e = np.asarray(e, dtype=np.float64)
        return np.searchsorted(self.energies, e, side="right") / self.n

    def sup_distance(self, ref_fn, window: tuple) -> float:
        """sup |empirical - ref| over the energy window.

        The sup of a step function against a monotone reference is
        attained at the jumps, so both one-sided values at each
        eigenvalue in the window are checked, plus the window edges.
        """
        lo, hi = window
        inside = np.flatnonzero((self.energies >= lo) & (self.energies <= hi))
        worst = max(abs(float(self.evaluate(lo)) - float(ref_fn(lo))),
                    abs(float(self.evaluate(hi)) - float(ref_fn(hi))))
        if len(inside):
            ref = np.asarray(ref_fn(self.energies[inside]), dtype=np.float64)
            above = np.abs(self.fractions[inside] - ref)
            below = np.abs((inside / self.n) - ref)
            worst = max(worst, float(above.max()), float(below.max()))
        return worst


def ids_histogram(space, spec, radius: float,
                  operator: TruncatedOperator | None = None) -> IdsHistogram:
    """Sorted eigenvalues of the truncation at ``radius`` with ECDF
    fractions.  A given ``operator`` wins over ``radius``, and its own
    radius is the one recorded."""
    if operator is None:
        operator = build_truncated(space, spec, radius)
    energies = np.sort(symmetric_eigenvalues(operator))
    n = len(energies)
    return IdsHistogram(energies=energies,
                        fractions=np.arange(1, n + 1, dtype=np.float64) / n,
                        radius=operator.radius, solvers=operator.solvers)


# ---------------------------------------------------------------------------
# Dixmier side


@dataclass
class MeasurabilityReport:
    verdict: str
    slope_drift: float
    drift_tol: float
    residual_growth: float
    residual_tol: float


@dataclass
class DixmierEstimate:
    """Slope estimate of a log-Cesaro series plus measurability evidence.

    From ``dixmier_lhs``, ``solvers`` is the operator's (solver, size) per
    block and ``product_rank`` the number of nonzero eigenvalues of
    g(H) M_w, the sum over blocks of the count of g(lambda) != 0; a bare
    series leaves them ``()`` and ``None``.
    """

    series: CesaroSeries
    fit: SlopeFit
    lam_counts: np.ndarray
    lam_values: np.ndarray
    half_slopes: tuple
    measurability: MeasurabilityReport
    solvers: tuple = ()
    product_rank: int | None = None

    @property
    def value(self) -> float:
        return self.fit.slope


def _half_window_slopes(series: CesaroSeries, fit: SlopeFit) -> tuple:
    counts = fit.indices
    mid = len(counts) // 2
    halves = []
    for part in (counts[:mid + 1], counts[mid:]):
        x = np.log(2.0 + part)
        halves.append(float(np.polyfit(x, series.at(part), 1)[0]))
    return tuple(halves)


def _classify(fit: SlopeFit, half_slopes: tuple) -> MeasurabilityReport:
    drift = abs(half_slopes[1] - half_slopes[0])
    drift_tol = SLOPE_DRIFT_TOL * max(abs(fit.slope), 1e-3)
    resid_tol = RESID_GROWTH_TOL * max(fit.scale, 1e-3)
    if drift > drift_tol:
        verdict = "not-established"
    elif fit.residual_growth_slope > resid_tol:
        verdict = "weak-measurable"
    else:
        verdict = "strong-measurable"
    return MeasurabilityReport(verdict=verdict, slope_drift=drift,
                               drift_tol=drift_tol,
                               residual_growth=fit.residual_growth_slope,
                               residual_tol=resid_tol)


def dixmier_estimate_from_series(series: CesaroSeries,
                                 window: tuple | None = None) -> DixmierEstimate:
    fit = slope_dixmier_estimate(series, window=window)
    halves = _half_window_slopes(series, fit)
    counts, lam = series.lam_table()
    return DixmierEstimate(series=series, fit=fit, lam_counts=counts,
                           lam_values=lam, half_slopes=halves,
                           measurability=_classify(fit, halves))


def certify_weight(w: WeightFunction) -> None:
    """Reject weights whose level sums w*N keep growing (not weak-l1)."""
    report = weak_l1_bound(w)
    if report.divergent_trend:
        raise PreconditionFailed(
            f"weight '{w.kind}' failed weak-l1 certification: level products "
            f"w*N grow without the bounded trend the trace needs "
            f"(c estimate {report.c_estimate:.3g})")


def truncation_fit_window(n: int) -> tuple:
    """Default slope window for product eigenvalues of a truncation.

    The top quarter of the ordered sequence is left out: those eigenvalues
    of the infinite operator draw on sites outside the ball, so the
    truncated partial sums go flat there no matter how large R is.  The
    remaining range still needs eight dyadic points, hence n >= 2048.
    """
    if n < 2048:
        raise ValueError(
            f"truncation yields {n} eigenvalues; the slope window needs at "
            "least 2048 (pass an explicit window to override)")
    return (max(3, n >> 9), n >> 2)


def dixmier_lhs(space, spec, fn, w: WeightFunction, R_outer: float,
                operator: TruncatedOperator | None = None,
                window: tuple | None = None) -> DixmierEstimate:
    """Slope estimate for g(H) M_w on the truncation at ``R_outer``.

    A supplied ``operator`` is taken as the truncation itself (its radius
    wins over ``R_outer``); its eigendecomposition cache makes repeated
    calls with different ``fn`` cheap.
    """
    certify_weight(w)
    if operator is None:
        operator = build_truncated(space, spec, R_outer)
    prods = product_eigenvalues(operator, w.values_on(operator), fn=fn)
    series = log_cesaro(prods)
    if window is None:
        window = truncation_fit_window(len(series))
    return replace(dixmier_estimate_from_series(series, window=window),
                   solvers=operator.solvers,
                   product_rank=int(np.count_nonzero(prods)))


def weight_dixmier_trace(w: WeightFunction,
                         window: tuple | None = None) -> SlopeFit:
    """Slope estimate for M_w alone, straight from the level tables.

    The eigenvalues of M_w are the level values with shell multiplicities,
    already in non-increasing order, so no matrix is involved and the
    series holds one run per level.
    """
    mults = np.diff(w.level_counts, prepend=0)
    series = run_length_series(w.level_values, mults)
    if window is None and len(series) < 1024:
        raise ValueError(
            f"ladder reaches only {len(series)} points; the default slope "
            "window needs at least 1024 for eight dyadic points")
    return slope_dixmier_estimate(series, window=window)


# ---------------------------------------------------------------------------
# the identity check


@dataclass
class TheoremCheck:
    """Both sides of the trace identity on one space, with provenance."""

    lhs: DixmierEstimate
    weight_fit: SlopeFit
    dos: DosEstimate
    product: float
    relative_gap: float
    condition_c: CRatioReport
    modulated_gap_slope: float
    modulated_ok: bool
    R_outer: float

    @property
    def lhs_value(self) -> float:
        return self.lhs.fit.slope

    @property
    def rhs_limit(self) -> float:
        return self.dos.tail_mean

    @property
    def modulated_scale(self) -> float:
        return self.lhs.fit.scale

    @property
    def margin(self) -> float:
        return self.dos.margin

    def passed(self, tolerance: float) -> bool:
        return self.relative_gap <= tolerance and self.modulated_ok


def _modulated_gap(series: CesaroSeries, operator: TruncatedOperator,
                   fn, w: WeightFunction, fit: SlopeFit) -> float:
    """Log-scale slope of |partial sums of g(H) M_w - of diag(g(H)) w|."""
    diag = function_diagonal(operator, fn).values
    w_sites = w.values_on(operator)
    diag_sums = np.cumsum(diag * w_sites)
    counts = fit.indices
    gap = np.abs(series.at(counts) - diag_sums[counts - 1])
    return float(np.polyfit(np.log(2.0 + counts), gap, 1)[0])


def main_theorem_check(space, spec, fn, w: WeightFunction, R_outer: float,
                       margin: float = DEFAULT_MARGIN,
                       ladder: RadiiLadder | None = None,
                       operator: TruncatedOperator | None = None,
                       dos_operator: TruncatedOperator | None = None,
                       c_threshold: float = 0.01,
                       window: tuple | None = None) -> TheoremCheck:
    """Compare slope(g(H) M_w) with slope(M_w) x DOS tail value.

    Refuses on a failed ball-ratio check (the identity's hypothesis) and
    when the DOS tail has not settled; ``operator``/``dos_operator`` allow
    reusing truncations at R_outer and R_outer+margin across calls.
    """
    if ladder is None:
        ladder = space.ladder_to_radius(R_outer)
    c_report = condition_c_report(ladder, threshold=c_threshold)
    if c_report.verdict == "fail":
        raise PreconditionFailed(
            "ball-count ratios stabilise above 1 "
            f"(tail min deviation {c_report.min_tail_deviation:.4f} > "
            f"{c_threshold}); the trace identity's hypothesis fails on this "
            "space, so the gap would be meaningless")
    certify_weight(w)

    dos = dos_approximant(space, spec, fn, ladder.radii, margin=margin,
                          operator=dos_operator)
    if dos.diverged:
        raise NotEstablished(
            "DOS limit not numerically established: tail spread "
            f"{dos.tail_spread:.4g} against tail mean {dos.tail_mean:.4g}")

    if operator is None:
        operator = build_truncated(space, spec, R_outer)
    lhs = dixmier_lhs(space, spec, fn, w, R_outer, operator=operator,
                      window=window)
    weight_fit = weight_dixmier_trace(w, window=window)

    product = weight_fit.slope * dos.tail_mean
    gap = abs(lhs.fit.slope - product) / max(abs(product), GAP_FLOOR)

    mod_slope = _modulated_gap(lhs.series, operator, fn, w, lhs.fit)
    return TheoremCheck(
        lhs=lhs, weight_fit=weight_fit, dos=dos,
        product=product, relative_gap=float(gap),
        condition_c=c_report, modulated_gap_slope=mod_slope,
        modulated_ok=bool(
            mod_slope <= MODULATED_SLOPE_TOL * max(lhs.fit.scale, 1e-3)),
        R_outer=float(R_outer))
