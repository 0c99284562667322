"""Spectral functions, eigenvalue sequences, log-scale slopes, summation lemmas."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy import sparse

from doslab.hamiltonians import (_chebyshev_plan, adjacency, build_truncated,
                                 default_weight, diagonal_spec, iid_potential,
                                 kernel, laplacian, periodic_potential)
from doslab.spaces import CayleyF2, Graph, Lattice
from doslab.spectral import (bump, constant_one, dyadic_counts,
                             dyadic_window_counts, eigen_sequence,
                             function_diagonal, gaussian,
                             log_cesaro, polynomial,
                             product_eigenvalues, run_length_series,
                             slope_dixmier_estimate,
                             subsequence_equivalence_check,
                             symmetric_eigenvalues,
                             weighted_cesaro, weighted_cesaro_bounded)


# ---------------------------------------------------------------------------
# scalar functions


def test_gaussian_and_bump_shapes():
    g = gaussian(0.5, 2.0)
    x = np.linspace(-3, 3, 13)
    assert np.allclose(g(x), np.exp(-0.5 * ((x - 0.5) / 2.0) ** 2))
    b = bump(0.0, 1.0)
    assert b(np.array([1.0]))[0] == 0.0 and b(np.array([-1.2]))[0] == 0.0
    assert b(np.array([0.0]))[0] == pytest.approx(1.0)
    inside = b(np.linspace(-0.95, 0.95, 21))
    assert np.all(inside > 0)
    with pytest.raises(ValueError):
        gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        bump(0.0, -1.0)


def test_polynomial_and_table_and_one():
    p = polynomial([2.0, -1.0, 0.5])  # 2 - x + 0.5 x^2
    x = np.linspace(-2, 2, 9)
    assert np.allclose(p(x), 2.0 - x + 0.5 * x * x)
    assert np.allclose(polynomial([0.0, 1.0])(x), x)
    assert np.all(constant_one()(x) == 1.0)
    with pytest.raises(ValueError):
        polynomial([])


# ---------------------------------------------------------------------------
# eigenvalue sequences


def test_symmetric_eigenvalues_against_scipy():
    op = build_truncated(Lattice(2), laplacian(), 4.0)
    want = np.sort(np.abs(scipy.linalg.eigvalsh(op.H.toarray())))[::-1]
    assert np.allclose(np.abs(symmetric_eigenvalues(op)), want,
                       atol=1e-10)


def test_eigen_sequence_orders_by_modulus():
    seq = eigen_sequence([0.5, -2.0, 1.0, -0.25])
    assert np.array_equal(seq, [-2.0, 1.0, 0.5, -0.25])


def test_product_eigenvalues_diagonal_case():
    """No hopping: the products are exactly g(V(x)) * w(x), site by site."""
    space = Lattice(1)
    spec = diagonal_spec(periodic_potential([0.0, 1.0]))
    op = build_truncated(space, spec, 30.0)
    w = default_weight(space.radii_ladder(35))
    g = gaussian(0.3, 0.7)
    seq = product_eigenvalues(op, w.values_on(op), g)
    direct = g(op.potential) * w.values_on(op)
    want = np.sort(np.abs(direct))[::-1]
    assert np.allclose(np.abs(seq), want,
                       atol=1e-14)


def test_product_eigenvalues_constant_one_gives_weight_spectrum():
    space = Lattice(1)
    op = build_truncated(space, adjacency(), 400.0)
    lad = space.radii_ladder(405)
    w = default_weight(lad)
    got = product_eigenvalues(op, w.values_on(op), constant_one())
    # 1(H) = identity, so the products are the weight values with their
    # shell multiplicities
    want = np.repeat(w.level_values, np.diff(
        np.concatenate(([0], w.level_counts))))[:op.n]
    assert np.allclose(np.sort(got)[::-1], np.sort(want)[::-1], atol=1e-12)


def test_product_eigenvalues_folded_equals_dense():
    space = Lattice(1)
    spec = adjacency(periodic_potential([1.0, -1.0]))
    w = default_weight(space.radii_ladder(130))
    g = gaussian(0.0, 1.0)
    op = build_truncated(space, spec, 128.0)
    assert len(op.blocks) == 2
    lam, vec = np.linalg.eigh(op.H.toarray())
    s = np.sqrt(w.values_on(op))
    want = np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s)
    got = product_eigenvalues(op, w.values_on(op), g)
    assert np.allclose(np.sort(np.abs(got)), np.sort(np.abs(want)),
                       atol=1e-10)


def test_function_diagonal_matches_dense_route():
    spec = adjacency(periodic_potential([0.0, 1.0]))
    op = build_truncated(Lattice(1), spec, 80.0)
    assert len(op.blocks) == 2
    g = gaussian(0.3, 0.7)
    lam, vec = np.linalg.eigh(op.H.toarray())
    want = np.diag((vec * g(lam)) @ vec.T)
    assert np.allclose(function_diagonal(op, g).values, want, atol=1e-11)


# ---------------------------------------------------------------------------
# log-scale partial sums


def test_dyadic_counts_literal():
    assert list(dyadic_counts(10)) == [1, 2, 4, 8, 10]
    assert list(dyadic_counts(8)) == [1, 2, 4, 8]
    assert list(dyadic_counts(1)) == [1]


def test_dyadic_window_counts_literal():
    assert list(dyadic_window_counts(3, 48)) == [3, 6, 12, 24, 48]
    with pytest.raises(ValueError):
        dyadic_window_counts(8, 8)


def test_log_cesaro_partial_sums():
    seq = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    series = log_cesaro(seq)
    assert np.array_equal(series.at(np.arange(1, 6)), np.cumsum(seq))
    counts, lam = series.lam_table()
    assert np.array_equal(counts, [1, 2, 4, 5])
    assert lam[0] == pytest.approx(3.0 / math.log(3.0))
    # one run per term: ``at`` returns the running sums bit for bit
    x = np.random.default_rng(11).normal(size=200_000)
    assert np.array_equal(log_cesaro(x).at(np.arange(1, len(x) + 1)),
                          np.cumsum(x))


def test_run_length_series_equals_expanded():
    values = np.array([0.5, 0.25, 0.125])
    mults = np.array([2, 3, 4])
    a = run_length_series(values, mults)
    b = log_cesaro(np.repeat(values, mults))
    assert len(a) == len(b) == 9
    assert np.array_equal(a.ends, [2, 5, 9])
    n = np.arange(1, 10)
    assert np.allclose(a.at(n), b.at(n), rtol=0.0, atol=1e-15)


def test_slope_fit_recovers_exact_log_slope():
    n = 1 << 15
    ns = np.arange(1, n + 1, dtype=np.float64)
    target = 2.5 * np.log(2.0 + ns) - 0.75
    seq = np.diff(target, prepend=target[0])
    seq[0] = target[0]
    fit = slope_dixmier_estimate(log_cesaro(seq))
    assert fit.slope == pytest.approx(2.5, abs=1e-10)
    assert fit.intercept == pytest.approx(-0.75, abs=1e-8)
    assert fit.max_residual < 1e-10
    assert abs(fit.residual_growth_slope) < 1e-10


def test_slope_fit_harmonic():
    n = 1 << 16
    fit = slope_dixmier_estimate(log_cesaro(1.0 / np.arange(1, n + 1)))
    assert fit.slope == pytest.approx(1.0, abs=5e-3)


def test_slope_fit_window_and_guards():
    series = log_cesaro(np.ones(4096) / np.arange(1, 4097))
    fit = slope_dixmier_estimate(series, window=(4, 4096))
    assert fit.window == (4, 4096)
    assert fit.indices[0] == 4 and fit.indices[-1] == 4096
    with pytest.raises(ValueError, match="dyadic points"):
        slope_dixmier_estimate(series, window=(1024, 4096))


def test_cesaro_series_lam_bounds():
    series = log_cesaro([1.0, 2.0])
    with pytest.raises(IndexError):
        series.lam(3)
    with pytest.raises(IndexError):
        series.lam(0)
    assert series.lam(2) == pytest.approx(3.0 / math.log(4.0))
    assert np.allclose(series.lam([1, 2]), [1.0, 3.0] / np.log([3.0, 4.0]))
    with pytest.raises(IndexError):
        series.at(np.array([1, 3]))


# ---------------------------------------------------------------------------
# summation lemmas (randomized, with a fixed generator)


def test_weighted_cesaro_convergent_sequences():
    """Positive non-increasing weights with divergent mass reproduce limits."""
    rng = np.random.default_rng(7)
    n = 1 << 14
    k = np.arange(1, n + 1, dtype=np.float64)
    for _ in range(100):
        limit = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(-1.0, 1.0)
        x = limit + amp * k ** -rng.uniform(0.5, 1.0)
        rep = weighted_cesaro(np.ones(n), x)
        assert rep.positive and rep.nonincreasing
        assert rep.denominator_divergent
        assert abs(rep.ratios[-1] - limit) < 0.05 * max(abs(amp), 0.1)


def test_weighted_cesaro_harmonic_weights():
    # 1 / k weights satisfy every lemma hypothesis, but the divergence
    # heuristic (den doubling over the half range) cannot certify a mass
    # that only grows like log n; the report records that honestly
    rng = np.random.default_rng(17)
    n = 1 << 14
    k = np.arange(1, n + 1, dtype=np.float64)
    for _ in range(100):
        limit = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(-1.0, 1.0)
        x = limit + amp * k ** -rng.uniform(0.5, 1.0)
        rep = weighted_cesaro(1.0 / k, x)
        assert rep.positive and rep.nonincreasing
        assert rep.sup_k_ak == pytest.approx(1.0)
        assert not rep.denominator_divergent
        assert abs(rep.ratios[-1] - limit) <= 0.32 * abs(amp) + 1e-12


def test_weighted_cesaro_flags_bad_weights():
    n = 4096
    k = np.arange(1, n + 1, dtype=np.float64)
    x = np.ones(n)
    growing = weighted_cesaro(np.concatenate(([1.0], np.ones(n - 1) * 2.0)), x)
    assert not growing.nonincreasing
    summable = weighted_cesaro(1.0 / k ** 2, x)
    assert not summable.denominator_divergent
    heavy = weighted_cesaro(1.0 / np.sqrt(k), x)
    assert heavy.sup_k_ak > 60.0  # sup k * a_k diverges like sqrt(n)
    with pytest.raises(ValueError):
        weighted_cesaro(np.zeros(8), x[:8])


def test_weighted_cesaro_oscillation_shows_up():
    # Cesaro-divergent 0/1 blocks: ratios keep oscillating, and the
    # hypothesis flags are all fine, which is the point of the example
    n = 1 << 16
    k = np.arange(1, n + 1, dtype=np.float64)
    m = np.floor(np.log2(np.maximum(k - 1, 1))).astype(np.int64)
    x = (m & 1).astype(np.float64)
    x[0] = 1.0
    rep = weighted_cesaro(np.ones(n), x)
    tail = rep.ratios[-8:]
    assert tail.max() - tail.min() > 0.2


def test_weighted_cesaro_bounded_deviations():
    rng = np.random.default_rng(13)
    n = 1 << 14
    k = np.arange(1, n + 1, dtype=np.float64)
    for _ in range(100):
        limit = rng.uniform(-1.0, 1.0)
        amp = rng.uniform(-2.0, 2.0)
        x = limit + amp * k ** -1.1
        rep = weighted_cesaro_bounded(1.0 / k, x, limit)
        assert np.isfinite(rep.weighted_mean_abs_dev)
        # deviations converge to |amp| * zeta(2.1), so they stay bounded
        # and the log-scale growth fit is essentially flat
        assert rep.deviations[-1] <= 2.0 * abs(amp) + 1e-12
        assert rep.growth_slope < 0.06 * max(abs(amp), 0.05)
    # a wrong limit produces log-linear growth of the deviations
    wrong = weighted_cesaro_bounded(1.0 / k, np.ones(n), 0.25)
    assert wrong.growth_slope > 0.5


def test_subsequence_equivalence_dense_checkpoints():
    rng = np.random.default_rng(5)
    n = 1 << 14
    k = np.arange(1, n + 1, dtype=np.float64)
    x = 1.0 + rng.uniform(-1, 1) * k ** -0.7
    ks = np.unique(np.round(1.05 ** np.arange(1, 200)).astype(int))
    ks = ks[ks <= n]
    rep = subsequence_equivalence_check(x, ks)
    assert rep.checkpoint_ratio_tail < 1.1
    assert rep.max_tail_discrepancy < 1e-3
    with pytest.raises(ValueError):
        subsequence_equivalence_check(x, [0, 5])


def test_subsequence_equivalence_sparse_checkpoints_drift():
    # with only powers of 4 as checkpoints, an oscillating-mean sequence
    # shows a visible gap between mean(n) and mean at the last checkpoint
    n = 1 << 16
    k = np.arange(1, n + 1, dtype=np.float64)
    m = np.floor(np.log2(np.maximum(k - 1, 1))).astype(np.int64)
    x = (m & 1).astype(np.float64)
    x[0] = 1.0
    ks = 4 ** np.arange(0, 9)
    rep = subsequence_equivalence_check(x, ks)
    assert rep.checkpoint_ratio_tail == pytest.approx(4.0)
    assert rep.max_tail_discrepancy > 0.2


# ---------------------------------------------------------------------------
# parity blocks against the dense reference


def _mirror(op):
    """Index of -x for each point x of a 1-d ball."""
    order = np.argsort(op.points[:, 0])
    out = np.empty_like(order)
    out[order] = order[::-1]
    return out


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@st.composite
def profiles(draw):
    """A gaussian, a bump or a bump times (x - center), which changes sign
    and is exactly zero off its support."""
    center, width = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.3, 2.0))
    kind = draw(st.sampled_from(("gaussian", "bump", "signed")))
    if kind == "gaussian":
        return gaussian(center, width)
    if kind == "bump":
        return bump(center, width)
    return lambda x: (x - center) * bump(center, width)(x)


@st.composite
def even_chain_operators(draw):
    """A 1-d operator that commutes with x -> -x: nearest-neighbour or
    random symmetric kernel hopping plus a random even periodic potential."""
    radius = draw(st.integers(1, 80))
    period = draw(st.integers(1, 5))
    half = draw(st.lists(st.floats(-2.0, 2.0), min_size=period // 2 + 1,
                         max_size=period // 2 + 1))
    potential = periodic_potential(
        [half[min(k, period - k)] for k in range(period)])  # V(-k) == V(k)
    hopping = draw(st.sampled_from(("adjacency", "laplacian", "kernel")))
    if hopping == "kernel":
        reach = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                              unique=True))
        amps = draw(st.lists(st.floats(-1.5, 1.5), min_size=len(reach),
                             max_size=len(reach)))
        spec = kernel([(s * k,) for k in reach for s in (1, -1)],
                      [a for a in amps for _ in (1, -1)], potential)
    elif hopping == "laplacian":
        spec = laplacian(potential)
    else:
        spec = adjacency(potential)
    op = build_truncated(Lattice(1), spec, float(radius))
    level_w = np.asarray(draw(st.lists(st.floats(0.05, 2.0),
                                       min_size=radius + 1,
                                       max_size=radius + 1)))
    g = draw(profiles())
    return op, level_w[op.levels], g


@settings(max_examples=40, deadline=None)
@given(even_chain_operators())
def test_parity_blocks_match_the_dense_reference(case):
    op, w, g = case
    assert len(op.blocks) == 2
    h = op.H.toarray()
    lam, vec = np.linalg.eigh(h)
    _close(np.sort(symmetric_eigenvalues(op)), lam)
    _close(function_diagonal(op, g).values, (vec * vec) @ g(lam))
    s = np.sqrt(w)
    want = np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s)
    _close(np.sort(product_eigenvalues(op, w, g)), want)


def test_weights_must_be_constant_on_parity_orbits():
    """M_w keeps the parity blocks apart only when w(-x) == w(x); any other
    weight vector is refused instead of being averaged over x and -x."""
    op = build_truncated(Lattice(1), adjacency(), 64.0)
    g = gaussian(0.0, 1.0)
    w = np.random.default_rng(0).uniform(0.5, 1.5, op.n)
    with pytest.raises(ValueError, match="symmetry orbits"):
        product_eigenvalues(op, w, g)
    even = (w + w[_mirror(op)]) / 2.0
    lam, vec = np.linalg.eigh(op.H.toarray())
    s = np.sqrt(even)
    want = np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s)
    _close(np.sort(product_eigenvalues(op, even, g)), want)


def test_modulated_profile_checks_the_weight_length():
    """The spectrum of g(H) M_w refuses a weight vector of the wrong length
    and a weight that is not strictly positive."""
    op = build_truncated(Lattice(1), adjacency(), 10.0)
    g = gaussian(0.0, 1.0)
    with pytest.raises(ValueError, match="length"):
        product_eigenvalues(op, np.ones(op.n - 1), g)
    with pytest.raises(ValueError, match="strictly positive"):
        product_eigenvalues(op, np.zeros(op.n), g)


# ---------------------------------------------------------------------------
# per-block solver choice on 1-d operators


def _bandwidth(m) -> int:
    rows, cols = np.nonzero(m.toarray())
    return int(np.abs(rows - cols).max(initial=0))


@st.composite
def chain_cases(draw):
    """An iid, a random periodic or an even periodic potential on a 1-d
    ball of radius 0-300, kernel amplitudes for hops 1-3, radial weights
    and a profile g."""
    radius = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(("iid", "periodic", "even")))
    if kind == "iid":
        potential = iid_potential(-1.0, 1.0, draw(st.integers(0, 2 ** 32)))
    else:
        period = draw(st.integers(1, 5))
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=period,
                               max_size=period))
        if kind == "even":
            values = [values[min(k, period - k)] for k in range(period)]
        potential = periodic_potential(values)
    amps = [draw(st.floats(0.1, 1.5)) * draw(st.sampled_from((1, -1)))
            for _ in range(3)]
    level_w = np.asarray(draw(st.lists(st.floats(0.05, 2.0),
                                       min_size=radius + 1,
                                       max_size=radius + 1)))
    g = draw(profiles())
    return radius, potential, amps, level_w, g


@settings(max_examples=20, deadline=None)
@given(chain_cases())
def test_chain_blocks_match_the_dense_reference(case):
    """Adjacency, Laplacian and kernels of reach 1-3 on one chain: each
    block's solver follows its band, a chain that does not fold is stored
    in coordinate order, and whatever route a block takes, the results
    match the dense reference of H."""
    radius, potential, amps, level_w, g = case
    specs = [(1, adjacency(potential)), (1, laplacian(potential))]
    for reach in (1, 2, 3):
        hops = range(1, reach + 1)
        specs.append((reach, kernel([(s * k,) for k in hops for s in (1, -1)],
                                    [amps[k - 1] for k in hops for _ in (1, -1)],
                                    potential)))
    for reach, spec in specs:
        op = build_truncated(Lattice(1), spec, float(radius))
        for block in op.blocks:
            band = _bandwidth(block.matrix)
            assert block.solver == ("diagonal", "tridiagonal",
                                    "dense")[min(band, 2)]
        if reach >= 2 and op.n > 2 * reach:
            # the hop between 0 and +-reach keeps that band in some block
            assert "dense" in [solver for solver, _ in op.solvers]
        if len(op.blocks) == 1:
            (block,) = op.blocks
            assert np.array_equal(block.size, np.ones(op.n))
            order = block.rows[np.argsort(block.cols)]
            assert np.array_equal(op.points[order, 0],
                                  np.arange(-radius, radius + 1))
        h = op.H.toarray()
        lam, vec = np.linalg.eigh(h)
        _close(np.sort(symmetric_eigenvalues(op)), lam)
        _close(function_diagonal(op, g).values, (vec * vec) @ g(lam))
        w = level_w[op.levels]
        s = np.sqrt(w)
        want = np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s)
        _close(np.sort(product_eigenvalues(op, w, g)), want)


def test_tridiagonal_eigenpairs_at_n_4001():
    op = build_truncated(Lattice(1), adjacency(iid_potential(0.0, 1.0, 7)),
                         2000.0)
    (block,) = op.blocks
    assert op.solvers == (("tridiagonal", 4001),)
    lam, vec = block.eigh()
    assert np.all(np.diff(lam) >= 0)
    residual = block.matrix @ vec - vec * lam
    assert np.abs(residual).max() < 1e-13 * max(1.0, np.abs(lam).max())
    gram = vec.T @ vec
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.abs(gram).max() < 1e-13


@pytest.mark.parametrize("radius, solvers", [
    (0, (("diagonal", 1), ("diagonal", 0))),
    (1, (("tridiagonal", 3),)),
    (2, (("tridiagonal", 5),)),
])
def test_smallest_chains_pick_their_route(radius, solvers):
    """A 1x1 block stays on the diagonal route (LAPACK's tridiagonal
    solvers take no empty off-diagonal), the empty odd block of R = 0
    included."""
    op = build_truncated(Lattice(1), adjacency(iid_potential(0.0, 1.0, 3)),
                         float(radius))
    assert op.solvers == solvers
    g = gaussian(0.3, 0.7)
    lam, vec = np.linalg.eigh(op.H.toarray())
    _close(np.sort(symmetric_eigenvalues(op)), lam)
    _close(function_diagonal(op, g).values, (vec * vec) @ g(lam))
    w = np.linspace(1.0, 0.5, op.n)
    s = np.sqrt(w)
    _close(np.sort(product_eigenvalues(op, w, g)),
           np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s))


# ---------------------------------------------------------------------------
# rank-factored product spectra against the dense reference


def _product_operator(kind):
    """Free, period-2 and iid chains (parity and tridiagonal blocks), and a
    random graph and a free-group ball whose one block takes the dense
    route."""
    if kind == "f2":
        op = build_truncated(CayleyF2(), adjacency(iid_potential(-1.0, 1.0, 6)),
                             4.0)
        assert op.solvers == (("dense", 161),)
        return op
    if kind == "graph":
        rng = np.random.default_rng(5)
        edges = [(i, (i + 1) % 90) for i in range(90)]
        edges += [tuple(e) for e in rng.integers(0, 90, size=(60, 2))]
        op = build_truncated(Graph.from_edges(edges, base=0),
                             laplacian(iid_potential(-1.0, 1.0, 2)), 100.0)
        assert op.solvers == (("dense", 90),)
        return op
    potential = {"free": None, "period-2": periodic_potential([1.0, -1.0]),
                 "iid": iid_potential(-1.0, 1.0, 4)}[kind]
    op = build_truncated(Lattice(1), adjacency(potential), 150.0)
    assert {s for s, _ in op.solvers} == {"tridiagonal"}
    assert len(op.blocks) == (1 if kind == "iid" else 2)
    return op


def _profile(case, lam):
    """A profile of the given kind, placed on the spectrum ``lam`` with its
    center between two eigenvalues."""
    center = float(lam[len(lam) // 2] + lam[len(lam) // 2 + 1]) / 2.0
    width = float(lam[-1] - lam[0]) / 4.0
    if case == "bump":
        return bump(center, width)
    if case == "signed":
        return lambda x: (x - center) * bump(center, width)(x)
    if case == "outside":
        return bump(float(lam[-1]) + 10.0, 0.5)
    if case in ("top", "top-negative"):
        cut = float(lam[-2] + lam[-1]) / 2.0
        sign = 1.0 if case == "top" else -1.0
        return lambda x: sign * np.where(x > cut, 1.0 + x * x, 0.0)
    return gaussian(center, 1.0)


@pytest.mark.parametrize("case", ["bump", "signed", "outside", "gaussian",
                                  "top", "top-negative"])
@pytest.mark.parametrize("kind", ["free", "period-2", "iid", "graph", "f2"])
def test_factored_products_match_the_dense_reference(kind, case):
    """Only the k eigenvectors with g(lam) != 0 enter the product; the
    other n - k eigenvalues come out as exact zeros.  A bump has 0 < k < n,
    a signed bump takes the Cholesky route, a bump off the spectrum has
    k = 0 and a gaussian k = n.  A g that is nonzero only above the two
    largest eigenvalues' midpoint has k = 1 (a 1 x 1 Gram matrix; on a
    parity-folded chain the other block has k = 0), and its negative
    takes the Cholesky route.  The values are compared sorted: a signed
    g on a spectrum symmetric under lam -> -lam gives +-a pairs whose
    moduli differ in the last bit, so their order by modulus is rounding."""
    op = _product_operator(kind)
    lam, vec = np.linalg.eigh(op.H.toarray())
    g = _profile(case, lam)
    k = int(np.count_nonzero(g(lam)))
    assert {"bump": 0 < k < op.n, "signed": 0 < k < op.n,
            "outside": k == 0, "gaussian": k == op.n, "top": k == 1,
            "top-negative": k == 1}[case]
    if case == "signed":
        assert np.any(g(lam) < 0) and np.any(g(lam) > 0)
    w = np.random.default_rng(1).uniform(0.05, 2.0, op.levels.max() + 1)
    s = np.sqrt(w[op.levels])
    want = np.linalg.eigvalsh(s[:, None] * ((vec * g(lam)) @ vec.T) * s)
    got = product_eigenvalues(op, w[op.levels], g)
    _close(np.sort(got), want)
    assert np.count_nonzero(got == 0.0) == op.n - k


# ---------------------------------------------------------------------------
# the Chebyshev route of diag g(H) against the eigen route


_CHAINS = {"iid": iid_potential(0.0, 1.0, 5),
           "period-2": periodic_potential([0.0, 1.0]), "free": None}
_NARROW, _WIDE = gaussian(0.3, 0.7), gaussian(0.3, 3.0)
_CUBIC = polynomial([0.5, -1.0, 0.25, 0.1])


@pytest.mark.parametrize("chain, radius, g, routes", [
    # gaussian(0.3, 0.7) needs K = 38 terms: the route needs n >= 1444
    ("iid", 750, _NARROW, (("chebyshev", 38),)),
    ("iid", 700, _NARROW, (("eigh", 1401),)),
    # a wide gaussian needs K = 16-18, so n of a few hundred straddle K^2
    ("iid", 150, _WIDE, (("chebyshev", 17),)),
    ("iid", 100, _WIDE, (("eigh", 201),)),
    ("period-2", 700, _WIDE, (("chebyshev", 18), ("chebyshev", 17))),
    ("period-2", 300, _WIDE, (("eigh", 301), ("chebyshev", 17))),
    ("period-2", 250, _WIDE, (("eigh", 251), ("eigh", 250))),
    ("free", 300, _WIDE, (("chebyshev", 17), ("chebyshev", 16))),
    ("free", 250, _WIDE, (("eigh", 251), ("eigh", 250))),
    # a polynomial of degree m is exact at K = m + 1, a constant at K = 1
    ("iid", 100, _CUBIC, (("chebyshev", 4),)),
    ("period-2", 60, _CUBIC, (("chebyshev", 4), ("chebyshev", 4))),
    ("free", 60, constant_one(), (("chebyshev", 1), ("chebyshev", 1))),
    ("iid", 100, constant_one(), (("chebyshev", 1),)),
    # a bump's coefficients decay too slowly for any K with K^2 <= n
    ("iid", 750, bump(0.3, 1.0), (("eigh", 1501),)),
    ("free", 300, bump(0.3, 1.0), (("eigh", 301), ("eigh", 300))),
])
def test_chebyshev_route_matches_the_eigen_route(chain, radius, g, routes):
    """Each tridiagonal block takes the probed Chebyshev route exactly when
    the coefficient tail meets the tolerance with K^2 <= n, and either
    route matches (V*V) g(lam) of the dense H to 1e-12."""
    op = build_truncated(Lattice(1), adjacency(_CHAINS[chain]), float(radius))
    result = function_diagonal(op, g)
    got = result.routes
    assert tuple(r[:2] for r in got) == routes
    # every Gershgorin interval here lies inside [-3, 4]
    scale = np.abs(g(np.linspace(-3.0, 4.0, 7001))).max()
    for route, block in zip(got, op.blocks):
        if route[0] == "chebyshev":
            assert route[1] ** 2 <= block.matrix.shape[0]
            assert 0.0 <= route[2] <= 1e-14 * scale
    lam, vec = np.linalg.eigh(op.H.toarray())
    _close(result.values, (vec * vec) @ g(lam))


def test_narrow_bumps_between_the_points_keep_the_eigen_route():
    """On the n = 2101 iid chain the coefficients come from N = 180
    Chebyshev points about 0.043 apart near 0.3.  bump(0.3, 0.02) covers
    one of them, bump(0.282, 0.01) sits between two of them and covers
    only the check point between, and bump(0.3, 0.002) misses both grids;
    each holds eigenvalues, and none may alias to a zero diagonal."""
    op = build_truncated(Lattice(1), adjacency(_CHAINS["iid"]), 1050.0)
    lam, vec = np.linalg.eigh(op.H.toarray())
    for g in (bump(0.3, 0.02), bump(0.282, 0.01), bump(0.3, 0.002)):
        want = (vec * vec) @ g(lam)
        assert want.max() > 1e-3
        result = function_diagonal(op, g)
        assert result.routes == (("eigh", 2101),)
        _close(result.values, want)


def test_function_diagonal_ignores_the_eigh_cache():
    """The route reads only M_b and g: a cached eigendecomposition changes
    neither the route nor a byte of the diagonal."""
    op = build_truncated(Lattice(1), adjacency(_CHAINS["iid"]), 750.0)
    first = function_diagonal(op, _NARROW)
    assert first.routes[0][0] == "chebyshev"
    for block in op.blocks:
        block.eigh()
    again = function_diagonal(op, _NARROW)
    assert again.routes == first.routes
    assert again.values.tobytes() == first.values.tobytes()


@st.composite
def chebyshev_chains(draw):
    """An iid chain (random seed, low < high) or a chain of period 2 (which
    folds) or 3, values in [0, 1], a gaussian with sigma >= 0.7, and a
    radius at which every block has at least K^2 points."""
    if draw(st.booleans()):
        low, high = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                         max_size=2, unique=True)))
        potential = iid_potential(low, high, draw(st.integers(0, 2 ** 32)))
    else:
        period = draw(st.sampled_from((2, 3)))
        potential = periodic_potential(draw(st.lists(
            st.floats(0.0, 1.0), min_size=period, max_size=period)))
    g = gaussian(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.7, 2.5)))
    spec = adjacency(potential)
    # a shorter chain's Gershgorin interval lies inside this one's, so its
    # blocks need no more terms than the K <= 40 read here
    long = build_truncated(Lattice(1), spec, 2000.0)
    terms = max(len(_chebyshev_plan(b, g)[0]) for b in long.blocks)
    # the fold's odd block has R points, the one block of any other 2R + 1
    least = terms ** 2 if len(long.blocks) == 2 else terms ** 2 // 2
    return spec, g, least + draw(st.integers(0, 40))


@settings(max_examples=10, deadline=None)
@given(chebyshev_chains())
def test_chebyshev_route_matches_dense_eigh_on_random_chains(case):
    """Whenever every block of a chain can take the Chebyshev route it
    does, matches (V*V) g(lam) of the dense H to 1e-12, and leaves every
    block's eigendecomposition uncomputed."""
    spec, g, radius = case
    op = build_truncated(Lattice(1), spec, float(radius))
    result = function_diagonal(op, g)
    assert [r[0] for r in result.routes] == ["chebyshev"] * len(op.blocks)
    assert all(block._eigh is None for block in op.blocks)
    lam, vec = np.linalg.eigh(op.H.toarray())
    _close(result.values, (vec * vec) @ g(lam))


@pytest.mark.filterwarnings("error")
def test_chebyshev_route_declines_an_interval_that_rounds_to_a_point():
    """Off-diagonal entries too small to move the diagonal's floats give
    a Gershgorin interval of width 0, which no rescaling maps onto
    [-1, 1]: the block takes the eigen route, where the Chebyshev route
    divided by zero and gave NaN."""
    tiny = 2.225073858507203e-309
    op = build_truncated(Lattice(1), kernel([(1,), (-1,)], [tiny, tiny],
                                            periodic_potential([1.0])), 1.0)
    result = function_diagonal(op, gaussian(0.0, 1.0))
    assert [r[0] for r in result.routes] == ["eigh", "diagonal"]
    assert np.allclose(result.values, math.exp(-0.5), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("chain, radius", [("iid", 100), ("period-2", 60)])
def test_cubic_diagonal_equals_the_dense_polynomial(chain, radius):
    """A cubic is its own 4-term Chebyshev series, so the route has no
    truncation error: its diagonal equals diag p(H) of a Horner sum on the
    dense H, and no eigensolver runs."""
    op = build_truncated(Lattice(1), adjacency(_CHAINS[chain]), float(radius))
    result = function_diagonal(op, _CUBIC)
    assert {r[:2] for r in result.routes} == {("chebyshev", 4)}
    assert all(block._eigh is None for block in op.blocks)
    h = op.H.toarray()
    p = np.zeros_like(h)
    for coef in _CUBIC.params[::-1]:
        p = p @ h
        p[np.diag_indices_from(p)] += coef
    want = np.diag(p)
    np.testing.assert_allclose(result.values, want, rtol=0.0,
                               atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("chain", ["free", "period-2", "iid"])
def test_monomial_diagonals_equal_sparse_matrix_powers(chain):
    """g = x^m is its own (m + 1)-term Chebyshev series, so wherever every
    block has n >= (m + 1)^2 the route is Chebyshev with K = m + 1, and
    diag g(H) equals the diagonal of the sparse power H^m.  The radius-100
    chains (blocks of 100-201 points) take K = 1..10, odd and even, so the
    doubling loop ends after a T_j+1 step and without one; the short chains
    have blocks of 4-20 points.  On the free chain a site at least j from
    the edge closes binom(2j, j) walks of length 2j and none of odd
    length."""
    spec = adjacency(_CHAINS[chain])
    short = range(2, 10) if chain == "iid" else range(4, 20)
    for radius in (100, *short):
        op = build_truncated(Lattice(1), spec, float(radius))
        least = min(block.matrix.shape[0] for block in op.blocks)
        edge = radius - np.abs(op.points[:, 0])
        power = sparse.eye_array(op.n, format="csr")
        for m in range(min(math.isqrt(least), 10)):
            result = function_diagonal(op, polynomial([0.0] * m + [1.0]))
            assert {r[:2] for r in result.routes} == {("chebyshev", m + 1)}
            _close(result.values, power.diagonal())
            if chain == "free":
                walks = math.comb(m, m // 2) if m % 2 == 0 else 0
                _close(result.values[edge >= m // 2], walks)
            power = power @ op.H
