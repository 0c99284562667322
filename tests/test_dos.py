"""DOS approximants, the integrated density of states, trace slopes and
the two-sided identity check."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from doslab import dos
from doslab.dos import (dixmier_estimate_from_series, dixmier_lhs,
                        dos_approximant, ids_histogram, main_theorem_check,
                        truncation_fit_window, weight_dixmier_trace,
                        certify_weight, IdsHistogram)
from doslab.errors import NotEstablished, PreconditionFailed
from doslab.hamiltonians import (WeightFunction, adjacency, build_truncated,
                                 default_weight, diagonal_spec, iid_potential,
                                 lattice_weight, periodic_potential)
from doslab.reference import arcsine_ids, block_indicator, lp_ball_volume
from doslab.spaces import CayleyF2, Lattice
from doslab.spectral import (SlopeFit, bump, dyadic_window_counts, gaussian,
                             log_cesaro, polynomial, run_length_series)


# ---------------------------------------------------------------------------
# DOS approximant


def test_dos_is_exact_for_the_zero_operator():
    space = Lattice(1)
    spec = diagonal_spec(periodic_potential([0.0]))
    g = gaussian(0.3, 0.7)
    est = dos_approximant(space, spec, g, np.arange(1.0, 30.0))
    assert np.allclose(est.values, g(np.zeros(1))[0], rtol=1e-14, atol=0.0)
    assert est.tail_spread < 1e-15
    assert not est.diverged


def test_dos_diagonal_two_state_oracle():
    """No hopping: the ball average is a plain mean of g over the sites."""
    space = Lattice(1)
    spec = diagonal_spec(periodic_potential([0.25, 4.0]))
    g = gaussian(0.3, 0.7)
    radii = np.array([3.0, 7.0, 10.0])
    est = dos_approximant(space, spec, g, radii, margin=5.0)
    op = build_truncated(space, spec, 15.0)
    for r, v in zip(radii, est.values):
        mask = op.dists <= r + 1e-9
        assert v == pytest.approx(float(np.mean(g(op.potential[mask]))),
                                  abs=1e-14)


def test_dos_matches_masked_diagonal_of_g_of_h():
    space = Lattice(1)
    spec = adjacency(periodic_potential([0.0, 1.0]))
    g = gaussian(0.0, 1.0)
    radii = np.array([10.0, 25.0, 60.0])
    est = dos_approximant(space, spec, g, radii, margin=40.0)
    op = build_truncated(space, spec, 100.0)
    lam, vec = np.linalg.eigh(op.H.toarray())
    diag = (vec * vec) @ g(lam)
    for r, v in zip(radii, est.values):
        mask = op.dists <= r + 1e-9
        assert v == pytest.approx(float(diag[mask].mean()), abs=1e-11)


def test_dos_margin_invariance():
    """Interior averages must not depend on how far away the cut sits."""
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    r = np.arange(1.0, 201.0)
    a = dos_approximant(space, adjacency(), g, r, margin=50.0)
    b = dos_approximant(space, adjacency(), g, r, margin=120.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_dos_margin_zero_warns():
    space = Lattice(1)
    with pytest.warns(UserWarning, match="edge contamination"):
        dos_approximant(space, adjacency(), gaussian(0.0, 1.0),
                        np.array([5.0, 10.0]), margin=0.0)


def test_dos_validation():
    space = Lattice(1)
    g = gaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        dos_approximant(space, adjacency(), g, np.array([5.0, 5.0]))
    with pytest.raises(ValueError):
        dos_approximant(space, adjacency(), g, np.array([]))
    small = build_truncated(space, adjacency(), 20.0)
    with pytest.raises(ValueError, match="need >="):
        dos_approximant(space, adjacency(), g, np.array([10.0, 30.0]),
                        operator=small)


def test_dos_linear_in_the_function():
    space = Lattice(1)
    op = build_truncated(space, adjacency(), 150.0)
    r = np.arange(1.0, 101.0)
    p1, p2 = polynomial([0.0, 1.0, 0.5]), polynomial([1.0, -2.0])
    blend = polynomial([1.0, 0.0, 1.0])  # 2*p1 + p2 coefficient-wise
    a = dos_approximant(space, adjacency(), p1, r, operator=op)
    b = dos_approximant(space, adjacency(), p2, r, operator=op)
    c = dos_approximant(space, adjacency(), blend, r, operator=op)
    assert np.allclose(c.values, 2.0 * a.values + b.values, atol=1e-13)


def test_dos_free_chain_tail_equals_arcsine_integral():
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    est = dos_approximant(space, adjacency(), g,
                          np.arange(1.0, 1201.0), margin=60.0)
    integral = quad(lambda e: g(np.array([e]))[0]
                    / (math.pi * math.sqrt(4.0 - e * e)), -2.0, 2.0)[0]
    assert est.tail_mean == pytest.approx(integral, abs=1e-10)
    assert not est.diverged


def block_potential(reach: int):
    """The 0/1 block sequence at |x| on [-reach, reach], as one period of a
    periodic potential (x is read at x mod period)."""
    period = 2 * reach + 1
    return periodic_potential(
        [float(block_indicator(max(abs(x if x <= reach else x - period), 1)))
         for x in range(period)])


def test_dos_divergence_flag_on_block_potential():
    """Ball means of the 0/1 block potential oscillate at dyadic radii."""
    space = Lattice(1)
    spec = diagonal_spec(block_potential(530))
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
    est = dos_approximant(space, spec, polynomial([0.0, 1.0]), radii,
                          margin=10.0)
    assert est.diverged
    assert est.tail_spread > 0.2


def test_dos_divergence_flag_on_two_radii():
    """Short radius lists still compare their last two averages (0.35 and
    0.67 here); the tail mean stays the last quarter, here the last
    average.  One radius has nothing to compare and never diverges."""
    space = Lattice(1)
    spec = diagonal_spec(block_potential(530))
    x = polynomial([0.0, 1.0])
    est = dos_approximant(space, spec, x, [32.0, 64.0], margin=10.0)
    assert est.diverged
    assert est.tail_mean == est.values[-1]
    assert est.tail_spread == est.values[1] - est.values[0]
    one = dos_approximant(space, spec, x, [64.0], margin=10.0)
    assert one.tail_spread == 0.0 and not one.diverged


# ---------------------------------------------------------------------------
# integrated density of states


def test_ids_free_chain_closed_form():
    # truncated chain on [-R, R] is a path of 2R+1 sites
    space = Lattice(1)
    h = ids_histogram(space, adjacency(), 50.0)
    n = 101
    want = np.sort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert np.allclose(h.energies, want, atol=1e-10)
    assert h.fractions[-1] == 1.0


def test_ids_evaluate_and_sup_distance():
    h = IdsHistogram(energies=np.array([0.0, 1.0, 2.0]),
                     fractions=np.array([1 / 3, 2 / 3, 1.0]),
                     radius=1.0)
    assert h.evaluate(0.5) == pytest.approx(1 / 3)
    assert h.evaluate(1.0) == pytest.approx(2 / 3)
    assert h.evaluate(-1.0) == 0.0
    ref = lambda e: np.asarray(e, dtype=float) / 2.0
    # worst gap against e/2 on [0, 2]: left limit at e=2 gives |2/3 - 1|
    assert h.sup_distance(ref, (0.0, 2.0)) == pytest.approx(1 / 3, abs=1e-12)


def test_ids_matches_arcsine_at_moderate_radius():
    space = Lattice(1)
    h = ids_histogram(space, adjacency(), 500.0)
    assert h.sup_distance(arcsine_ids, (-1.9, 1.9)) < 5e-3


# ---------------------------------------------------------------------------
# slope estimates and measurability


def test_truncation_fit_window():
    assert truncation_fit_window(2048) == (4, 512)
    assert truncation_fit_window(1 << 20) == (2048, 1 << 18)
    with pytest.raises(ValueError, match="2048"):
        truncation_fit_window(2047)


def test_measurability_canonical_sequences():
    n = 1 << 18
    k = np.arange(1, n + 1, dtype=np.float64)
    harmonic = dixmier_estimate_from_series(log_cesaro(1.0 / k))
    assert harmonic.measurability.verdict == "strong-measurable"
    assert harmonic.value == pytest.approx(1.0, abs=5e-3)

    m = np.floor(np.log2(np.maximum(k - 1, 1))).astype(np.int64)
    chi = (m & 1).astype(np.float64)
    chi[0] = 1.0
    blocks = dixmier_estimate_from_series(log_cesaro(chi / k))
    assert blocks.measurability.verdict == "strong-measurable"
    assert blocks.value == pytest.approx(0.5, abs=5e-3)

    drifter = dixmier_estimate_from_series(
        log_cesaro((2.0 + np.sin(np.log(np.log(k + 3.0)))) / k))
    assert drifter.measurability.verdict == "not-established"
    assert drifter.measurability.slope_drift > drifter.measurability.drift_tol


def test_measurability_weak_branch():
    # drift-free fit whose residuals grow along the window: the stored
    # evidence alone decides the verdict
    counts = dyadic_window_counts(8, 1 << 13)
    fit = SlopeFit(slope=1.0, intercept=0.0, window=(8, 1 << 13),
                   indices=counts, max_residual=1.0,
                   residual_growth_slope=0.2, scale=1.0)
    rep = dos._classify(fit, (1.0, 1.0))
    assert rep.verdict == "weak-measurable"
    assert rep.residual_growth > rep.residual_tol


def test_weight_trace_default_weight_has_unit_slope():
    """w = 1/(1+N) turns the level sums into a harmonic series, so the
    log-scale trace of M_w is 1 on any space with a ladder."""
    space = Lattice(1)
    fit = weight_dixmier_trace(default_weight(space.radii_ladder(40000)))
    assert fit.slope == pytest.approx(1.0, abs=1e-3)


def test_weight_trace_lattice_weight_matches_ball_volume():
    space = Lattice(2)
    lad = space.ladder_to_radius(1500.0)
    fit = weight_dixmier_trace(lattice_weight(space, lad))
    vol = lp_ball_volume(2, 2.0)
    assert abs(fit.slope - vol) / vol < 0.02


def test_weight_series_matches_exact_sums():
    """The l_inf weight series on Z^2 out to R = 1500 (9,006,001 terms)
    holds one run per level; at the slope fit's counts its partial sums
    match exact rational running sums of the runs to 1e-14 relative."""
    space = Lattice(2, p=math.inf)
    w = lattice_weight(space, space.ladder_to_radius(1500.0))
    mults = np.diff(w.level_counts, prepend=0)
    series = run_length_series(w.level_values, mults)
    assert len(series) == 3001 ** 2 and len(series.ends) == 1501
    counts = weight_dixmier_trace(w).indices
    prefix = [Fraction(0)]
    for v, m in zip(w.level_values.tolist(), mults.tolist()):
        prefix.append(prefix[-1] + Fraction(v) * m)
    got = series.at(counts)
    for c, s in zip(counts.tolist(), got.tolist()):
        j = int(np.searchsorted(series.ends, c))  # run holding term c
        start = int(series.ends[j - 1]) if j else 0
        exact = prefix[j] + Fraction(w.level_values[j]) * (c - start)
        assert abs(Fraction(s) - exact) <= Fraction(1, 10 ** 14) * exact


def test_weight_trace_guards():
    space = Lattice(1)
    short = default_weight(space.radii_ladder(100))
    with pytest.raises(ValueError, match="1024"):
        weight_dixmier_trace(short)
    fit = weight_dixmier_trace(short, window=(1, 128))
    assert fit.window == (1, 128)


def test_certify_weight_rejects_log_decay():
    space = Lattice(1)
    lad = space.radii_ladder(4000)
    radii, counts = lad.level_arrays()
    w = WeightFunction("log", 1.0 / np.log(math.e + radii), counts)
    with pytest.raises(PreconditionFailed, match="weak-l1"):
        certify_weight(w)
    certify_weight(default_weight(lad))  # no exception


# ---------------------------------------------------------------------------
# the identity check


def test_main_theorem_check_on_the_free_chain():
    space = Lattice(1)
    w = lattice_weight(space, space.ladder_to_radius(2050.0))
    g = gaussian(0.3, 0.7)
    check = main_theorem_check(space, adjacency(), g, w, 2000.0)
    assert check.relative_gap < 0.02
    assert check.condition_c.verdict == "pass"
    assert check.modulated_ok
    assert check.lhs.measurability.verdict == "strong-measurable"
    assert check.passed(0.1)
    assert not check.passed(1e-6)
    # both sides individually look sane
    assert check.product == pytest.approx(
        check.weight_fit.slope * check.dos.tail_mean)
    assert check.weight_fit.slope == pytest.approx(2.0, rel=0.02)


def test_main_theorem_check_refuses_exponential_space():
    space = CayleyF2()
    w = default_weight(space.radii_ladder(12))
    with pytest.raises(PreconditionFailed, match="ratios stabilise above 1"):
        main_theorem_check(space, adjacency(), gaussian(0.0, 1.0), w, 12.0)


def test_main_theorem_check_refuses_divergent_dos():
    space = Lattice(1)
    spec = diagonal_spec(block_potential(1100))
    w = default_weight(space.ladder_to_radius(1024.0))
    radii = 2.0 ** np.arange(2, 10)
    with pytest.raises(NotEstablished, match="tail spread"):
        main_theorem_check(space, spec, polynomial([0.0, 1.0]), w, 1024.0,
                           radii=radii)


def test_dixmier_lhs_reuses_supplied_operator():
    space = Lattice(1)
    op = build_truncated(space, adjacency(), 1100.0)
    w = lattice_weight(space, space.ladder_to_radius(1100.0))
    a = dixmier_lhs(space, adjacency(), gaussian(0.3, 0.7), w, 1100.0,
                    operator=op)
    b = dixmier_lhs(space, adjacency(), gaussian(0.3, 0.7), w, 99.0,
                    operator=op)  # radius argument loses against the operator
    assert a.fit.slope == b.fit.slope
    assert a.fit.window == b.fit.window


def test_dixmier_lhs_reports_solvers_and_product_rank():
    """The product rank is the count of g(lambda) != 0 over the blocks'
    eigenvalues: a bump inside the band keeps part of each parity block."""
    space = Lattice(1)
    op = build_truncated(space, adjacency(), 1100.0)
    w = lattice_weight(space, space.ladder_to_radius(1100.0))
    g = bump(0.5, 1.0)
    est = dixmier_lhs(space, adjacency(), g, w, 1100.0, operator=op)
    assert est.solvers == op.solvers == (("tridiagonal", 1101),
                                         ("tridiagonal", 1100))
    rank = sum(int(np.count_nonzero(g(b.eigh()[0]))) for b in op.blocks)
    assert 0 < rank < op.n
    assert est.product_rank == rank
    bare = dixmier_estimate_from_series(est.series, window=est.fit.window)
    assert bare.solvers == () and bare.product_rank is None
    assert bare.fit.slope == est.fit.slope


def test_dos_approximant_reports_diagonal_routes():
    """A wide gaussian takes the Chebyshev route on both parity blocks of
    the free chain at R = 300 (K = 17 and 16), a bump the eigen route."""
    space = Lattice(1)
    op = build_truncated(space, adjacency(), 300.0)
    wide = dos_approximant(space, adjacency(), gaussian(0.3, 3.0),
                           [100.0, 250.0], operator=op)
    assert wide.solvers == (("tridiagonal", 301), ("tridiagonal", 300))
    assert [r[:2] for r in wide.diagonal_routes] == [("chebyshev", 17),
                                                     ("chebyshev", 16)]
    assert all(0.0 <= r[2] <= 1e-14 for r in wide.diagonal_routes)
    narrow = dos_approximant(space, adjacency(), bump(0.3, 1.0),
                             [100.0, 250.0], operator=op)
    assert narrow.diagonal_routes == (("eigh", 301), ("eigh", 300))
