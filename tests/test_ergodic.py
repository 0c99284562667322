"""Shift decay of weights, equivariance of ball averages, Folner arithmetic
and disorder averaging."""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

import doslab
from doslab._rng import derive_seed
from doslab.dos import dos_approximant
from doslab.ergodic import (FolnerSequence, cubes,
                            equivariance_check, ergodic_average,
                            folner_tempered_check, l1_balls, shift_weight_gap)
from doslab.errors import PreconditionFailed
from doslab.hamiltonians import (adjacency, build_truncated, default_weight,
                                 diagonal_spec, iid_potential, kernel,
                                 laplacian, lattice_weight,
                                 periodic_potential)
from doslab.spaces import CayleyF2, Lattice
from doslab.spectral import function_diagonal, gaussian


# ---------------------------------------------------------------------------
# weight-shift decay


def test_shift_gap_matches_enumeration():
    space = Lattice(1)
    w = lattice_weight(space, space.radii_ladder(50))
    rep = shift_weight_gap(w, 3, 20.0)
    gaps = sorted((abs(1.0 / (1 + abs(x)) - 1.0 / (1 + abs(x - 3)))
                   for x in range(-20, 21)), reverse=True)
    assert np.allclose(rep.gaps, gaps, rtol=0, atol=0)
    # statistic is sup over k of k^2 * gap_k (d=1 exponent is (d+1)/d = 2)
    assert rep.statistic == max((k + 1) ** 2 * g for k, g in enumerate(gaps))
    assert rep.d == 1 and rep.shift == (3,)


@pytest.mark.parametrize("d,radius", [(1, 400.0), (2, 60.0)])
def test_shift_gap_statistic_bounded_under_doubling(d, radius):
    """The rearranged gaps sit one power below the weight, so the sup
    statistic should saturate rather than grow with the ball."""
    space = Lattice(d)
    w = lattice_weight(space, space.radii_ladder(int(2 * radius) + 4))
    small = shift_weight_gap(w, (1,) * d, radius)
    big = shift_weight_gap(w, (1,) * d, 2 * radius)
    assert big.statistic <= 1.05 * small.statistic


def test_shift_gap_rejects_plain_weights():
    lad = Lattice(1).radii_ladder(10)
    with pytest.raises(ValueError, match="lattice power weight"):
        shift_weight_gap(default_weight(lad), 1, 5.0)


def test_shift_gap_dimension_mismatch():
    space = Lattice(2)
    w = lattice_weight(space, space.radii_ladder(10))
    with pytest.raises(ValueError, match="components"):
        shift_weight_gap(w, (1, 0, 0), 5.0)


# ---------------------------------------------------------------------------
# equivariance of ball averages


def test_aligned_shift_is_exact():
    # shifting by a full period re-samples the same field values, so the
    # two builds are bit-identical and the averages agree exactly
    spec = adjacency(periodic_potential([0.0, 1.0]))
    rep = equivariance_check(Lattice(1), spec, (2,), gaussian(0.3, 0.7),
                             [60.0, 120.0])
    assert rep.max_diff == 0.0


def test_misaligned_shift_decay():
    """A one-site shift of the period-2 chain changes the ball averages at
    the boundary only, so the gap falls off like 1/R."""
    spec = adjacency(periodic_potential([0.0, 1.0]))
    rep = equivariance_check(Lattice(1), spec, (1,), gaussian(0.3, 0.7),
                             [250.0, 500.0, 1000.0])
    assert rep.nonincreasing
    assert rep.max_diff < 2.5e-4
    assert rep.tail_diff < 1e-4
    ratios = rep.diffs[1:] / rep.diffs[:-1]
    assert np.all((ratios > 0.45) & (ratios < 0.55))


def test_period_symmetric_function_hides_the_shift():
    # For the period-2 potential [0, 1] the shifted chain is a reflection
    # conjugate of 1 - H, so its spectrum mirrors about 1/2.  A profile g
    # with g(1 - x) = g(x) then produces identical averages at every
    # radius and the check is vacuous.  Decay tests must avoid such g.
    spec = adjacency(periodic_potential([0.0, 1.0]))
    rep = equivariance_check(Lattice(1), spec, (1,), gaussian(0.5, 0.9),
                             [60.0, 120.0])
    assert rep.max_diff == 0.0


def test_shift_relabels_the_diagonal():
    """diag g(H) around base 1 equals diag g(H) around base 0 at the same
    site away from the cut."""
    spec = adjacency(periodic_potential([0.0, 0.7, 1.3]))
    g = gaussian(0.3, 0.7)
    op = build_truncated(Lattice(1), spec, 300.0)
    shifted = build_truncated(Lattice(1, base=(1,)), spec, 300.0)
    diag = function_diagonal(op, g).values
    diag_shifted = function_diagonal(shifted, g).values
    pos = {int(x): i for i, x in enumerate(op.points[:, 0])}
    pos_shifted = {int(x): i for i, x in enumerate(shifted.points[:, 0])}
    interior = max(abs(diag_shifted[pos_shifted[x]] - diag[pos[x]])
                   for x in range(-50, 51))
    assert interior < 1e-12
    # the identity genuinely fails at the truncation edge
    edge = abs(diag_shifted[pos_shifted[300]] - diag[pos[300]])
    assert edge > 1e-2


def test_margin_zero_warns_once_per_check():
    """Both ball families touch the boundary at margin 0; the check warns
    once for the pair, and every other warning still gets through."""
    spec = adjacency(periodic_potential([0.0, 1.0]))
    calls = []

    def g(x):
        calls.append(1)
        warnings.warn("g was evaluated", RuntimeWarning)
        return gaussian(0.3, 0.7)(x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        equivariance_check(Lattice(1), spec, (1,), g, [10.0, 20.0], margin=0)
    margin = [w for w in caught if w.category is UserWarning]
    assert [str(w.message) for w in margin] == [
        "margin 0: ball averages touch the truncation boundary and pick up "
        "edge contamination"]
    assert len(caught) - len(margin) == len(calls) > 0


@pytest.mark.parametrize("shift", [(1,), (1, 0, 0)])
def test_equivariance_refuses_a_shift_of_the_wrong_length(shift):
    with pytest.raises(ValueError, match="components, the lattice has d = 2"):
        equivariance_check(Lattice(2), adjacency(), shift,
                           gaussian(0.0, 1.0), [3.0, 4.0])


def test_equivariance_needs_lattice():
    spec = adjacency()
    with pytest.raises(ValueError, match="lattice"):
        equivariance_check(CayleyF2(), spec, (1,), gaussian(0.0, 1.0),
                           [3.0, 4.0])


# ---------------------------------------------------------------------------
# Folner schedules


def test_cube_and_ball_schedules():
    cu = cubes(2, [1, 2, 3])
    assert [cu.cardinality(i) for i in range(3)] == [9, 25, 49]
    pts = cu.points(0)
    assert pts.shape == (9, 2)
    assert set(map(tuple, pts)) == {(a, b) for a in (-1, 0, 1)
                                    for b in (-1, 0, 1)}
    ba = l1_balls(2, [1, 2, 3])
    assert [ba.cardinality(i) for i in range(3)] == [5, 13, 25]
    dy = FolnerSequence("lacunary", 1, (1, 2, 3))
    assert [dy.cardinality(i) for i in range(3)] == [2, 4, 8]
    assert np.array_equal(dy.points(2), np.arange(8)[:, None])


def test_folner_validation():
    with pytest.raises(ValueError, match="unknown shape"):
        FolnerSequence("pyramid", 1, (1, 2, 3))
    with pytest.raises(ValueError, match="empty"):
        cubes(1, [])
    with pytest.raises(ValueError, match="one-dimensional"):
        FolnerSequence("lacunary", 2, (1, 2, 3))
    with pytest.raises(ValueError, match="unknown shape"):
        FolnerSequence("custom", 1, (0, 1))
    with pytest.raises(ValueError, match="must increase"):
        cubes(1, [2, 2, 3])


def test_cube_deviation_closed_form():
    # shifting [-N, N]^d by a unit vector loses one face of (2N+1)^(d-1)
    # sites, so the symmetric difference fraction is exactly 2/(2N+1)
    rep = folner_tempered_check(cubes(2, [2, 3, 5]))
    want = np.array([[2 / 5, 2 / 5], [2 / 7, 2 / 7], [2 / 11, 2 / 11]])
    assert np.array_equal(rep.deviations, want)
    assert np.array_equal(rep.cardinalities, [25, 49, 121])


def test_ball_temperedness_exact_ratios():
    """l1 balls satisfy -B_a + B_b = B_(a+b), so each ratio is a quotient
    of the closed-form counts 2r^2 + 2r + 1."""
    rep = folner_tempered_check(l1_balls(2, [3, 6, 8]))
    assert np.array_equal(rep.cardinalities, [25, 85, 145])
    assert rep.tempered_ratios[0] == 181 / 85   # |B_9| / |B_6|
    assert rep.tempered_ratios[1] == 421 / 145  # |B_14| / |B_8|
    assert rep.c_estimate == 421 / 145


def test_custom_family_matches_brute_force():
    """Cardinalities, deviations and temperedness ratios of every shape
    against raw set arithmetic on the enumerated points, which also pins
    the enumeration against the closed-form counts."""
    families = [cubes(d, [0, 1, 2, 4]) for d in (1, 2)] + [cubes(3, [0, 1, 2])]
    families += [l1_balls(d, [0, 1, 2, 4]) for d in (1, 2, 3)]
    families.append(FolnerSequence("lacunary", 1, (0, 1, 2, 5)))
    for seq in families:
        rep = folner_tempered_check(seq)
        raw = [set(map(tuple, seq.points(i).tolist())) for i in range(len(seq))]
        assert rep.cardinalities.tolist() == [len(pts) for pts in raw]
        for i, pts in enumerate(raw):
            for j in range(seq.d):
                moved = {x[:j] + (x[j] + 1,) + x[j + 1:] for x in pts}
                dev = 2 * (len(pts) - len(pts & moved)) / len(pts)
                assert rep.deviations[i, j] == dev, (seq, i, j)
        for i in range(len(seq) - 1):
            summed = {tuple(b - a for a, b in zip(x, y))
                      for k in range(i + 1) for x in raw[k]
                      for y in raw[i + 1]}
            assert rep.tempered_ratios[i] == len(summed) / len(raw[i + 1])


def test_lacunary_closed_forms():
    rep = folner_tempered_check(FolnerSequence("lacunary", 1, (1, 2, 3, 4)))
    assert np.array_equal(rep.cardinalities, [2, 4, 8, 16])
    assert np.array_equal(rep.deviations[:, 0], [1.0, 0.5, 0.25, 0.125])
    # [0, 2^n) is Folner but not tempered: -F_n + F_(n+1) wastes a fixed
    # fraction, the ratios approach 3/2 instead of 1
    assert np.array_equal(rep.tempered_ratios, [5 / 4, 11 / 8, 23 / 16])
    assert rep.c_estimate == 23 / 16


def test_tempered_check_guards():
    seq = cubes(1, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="at least 3"):
        folner_tempered_check(seq, n_max=2)
    with pytest.raises(ValueError, match="only 4"):
        folner_tempered_check(seq, n_max=5)


# ---------------------------------------------------------------------------
# disorder averaging


def _iid_spec(low=0.0, high=1.0, seed=0):
    return adjacency(iid_potential(low, high, seed=seed))


def test_ergodic_average_deterministic_and_seed_sensitive():
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    fol = cubes(1, [4, 8, 16])
    a = ergodic_average(space, _iid_spec(), g, fol, realizations=5, seed=11,
                        margin=8.0)
    b = ergodic_average(space, _iid_spec(), g, fol, realizations=5, seed=11,
                        margin=8.0)
    assert np.array_equal(a.averages, b.averages)
    assert a.seeds == b.seeds
    c = ergodic_average(space, _iid_spec(), g, fol, realizations=5, seed=12,
                        margin=8.0)
    assert not np.array_equal(a.averages, c.averages)
    assert a.mean == pytest.approx(a.averages.mean())
    assert a.std == pytest.approx(a.averages.std(ddof=1))
    assert a.sem == pytest.approx(a.std / math.sqrt(5))
    assert a.window_size == 33
    assert a.n_realizations == 5


def test_ergodic_average_reports_routes_and_matches_the_eigen_route():
    """Each realization records its per-block route; on the Chebyshev route
    (a wide gaussian on n = 401) the window means match those of the dense
    eigen route to 1e-12."""
    space = Lattice(1)
    g = gaussian(0.3, 3.0)
    rep = ergodic_average(space, _iid_spec(), g, cubes(1, [10, 100, 150]),
                          realizations=2, seed=3, margin=50.0)
    assert rep.solvers == (("tridiagonal", 401),)
    assert [[r[:2] for r in routes] for routes in rep.diagonal_routes] == [
        [("chebyshev", 17)]] * 2
    for child, average in zip(rep.seeds, rep.averages):
        op = build_truncated(space, _iid_spec(seed=child), 200.0)
        lam, vec = np.linalg.eigh(op.H.toarray())
        window = np.abs(op.points[:, 0]) <= 150
        assert abs(average - ((vec * vec) @ g(lam))[window].mean()) < 1e-12


def test_anderson_window_means_match_the_eigenpairs_off_the_reference_seed():
    """The anderson-average shape (window [-1000, 1000], margin 50, so
    n = 2101, gaussian(0.3, 0.7) with K = 38) at seeds 1-5, whose only
    check in the benchmark is a mean in [0, 1]: every window mean of the
    Chebyshev route matches the one from the eigenpairs of the same chain
    (``dstevd`` on the chain in coordinate order) to 1e-13."""
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    for seed in range(1, 6):
        rep = ergodic_average(space, _iid_spec(), g, cubes(1, [1000]),
                              realizations=2, seed=seed, margin=50.0)
        assert [[r[:2] for r in routes] for routes in rep.diagonal_routes
                ] == [[("chebyshev", 38)]] * 2
        for child, average in zip(rep.seeds, rep.averages):
            op = build_truncated(space, _iid_spec(seed=child), 1050.0)
            order = np.argsort(op.points[:, 0])
            chain = op.H[order][:, order]
            lam, vec, info = scipy.linalg.lapack.dstevd(chain.diagonal(),
                                                        chain.diagonal(1))
            assert info == 0
            window = np.abs(op.points[order, 0]) <= 1000
            assert abs(average - ((vec * vec) @ g(lam))[window].mean()) < 1e-13


def test_realizations_prefix_property():
    """Realization j is seeded by child j of the master seed, so asking
    for more realizations extends the sample instead of reshuffling it."""
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    fol = cubes(1, [4, 8, 16])
    short = ergodic_average(space, _iid_spec(), g, fol, realizations=3,
                            seed=11, margin=8.0)
    long = ergodic_average(space, _iid_spec(), g, fol, realizations=5,
                           seed=11, margin=8.0)
    assert np.array_equal(short.averages, long.averages[:3])
    assert short.seeds == long.seeds[:3]


def test_folner_windows_are_absolute_sites():
    # the window [-4, 4] sits outside the ball built around the site 100
    with pytest.raises(ValueError, match="escapes the built ball"):
        ergodic_average(Lattice(1, base=(100,)), _iid_spec(),
                        gaussian(0.3, 0.7), cubes(1, [2, 4]),
                        realizations=2, seed=5, margin=4.0)


def test_degenerate_field_gives_zero_spread():
    # a [c, c] band is a deterministic potential dressed as an iid one;
    # the z-scores must come out zero rather than 0/0
    rep = ergodic_average(Lattice(1), _iid_spec(0.7, 0.7, seed=3),
                          gaussian(0.3, 0.7), cubes(1, [2, 4, 8]),
                          realizations=4, seed=5, margin=4.0)
    assert rep.std == 0.0 and rep.sem == 0.0
    assert np.array_equal(rep.z_scores, np.zeros(4))
    assert rep.n_within_3std == 4


def test_cube_and_ball_windows_agree_in_1d():
    # in one dimension [-N, N] and the l1 ball of radius N are the same
    # set, so the two schedules must give identical reports
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    a = ergodic_average(space, _iid_spec(), g, cubes(1, [4, 8, 16]),
                        realizations=4, seed=11, margin=8.0)
    b = ergodic_average(space, _iid_spec(), g, l1_balls(1, [4, 8, 16]),
                        realizations=4, seed=11, margin=8.0)
    assert np.array_equal(a.averages, b.averages)


def test_window_index_selects_the_set():
    space = Lattice(1)
    g = gaussian(0.3, 0.7)
    fol = cubes(1, [4, 8, 16])
    first = ergodic_average(space, _iid_spec(), g, fol, realizations=2,
                            seed=1, margin=4.0, index=0)
    assert first.window_size == 9
    last = ergodic_average(space, _iid_spec(), g, fol, realizations=2,
                           seed=1, margin=4.0)
    assert last.window_size == 33


def test_window_index_outside_schedule_is_refused():
    g = gaussian(0.3, 0.7)
    fol = cubes(1, [4, 8, 16])
    for index in (3, -4):
        with pytest.raises(ValueError, match="schedule of 3 sets"):
            ergodic_average(Lattice(1), _iid_spec(), g, fol, realizations=2,
                            seed=1, margin=4.0, index=index)
    first = ergodic_average(Lattice(1), _iid_spec(), g, fol, realizations=2,
                            seed=1, margin=4.0, index=-3)
    assert first.window_size == 9


def test_ergodic_average_guards():
    g = gaussian(0.3, 0.7)
    fol = cubes(1, [2, 4, 8])
    with pytest.raises(ValueError, match="lattice"):
        ergodic_average(CayleyF2(), _iid_spec(), g, fol, realizations=2,
                        seed=0)
    with pytest.raises(PreconditionFailed, match="iid"):
        ergodic_average(Lattice(1), adjacency(periodic_potential([0.0, 1.0])),
                        g, fol, realizations=2, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        ergodic_average(Lattice(1), _iid_spec(), g, fol, realizations=1,
                        seed=0)
    with pytest.raises(ValueError, match="margin too small"):
        ergodic_average(Lattice(1), _iid_spec(), g, fol, realizations=2,
                        seed=0, margin=0.5)
    with pytest.raises(ValueError, match="dimension"):
        ergodic_average(Lattice(2), _iid_spec(), g, fol, realizations=2,
                        seed=0, margin=4.0)


def test_nan_margin_is_refused_as_a_margin():
    """NaN passes no margin test, so it meets the margin's own message
    rather than the radius refusal further down."""
    g = gaussian(0.3, 0.7)
    with pytest.raises(ValueError, match="margin too small"):
        ergodic_average(Lattice(1), _iid_spec(), g, cubes(1, [2, 4, 8]),
                        realizations=2, seed=0, margin=float("nan"))
    with pytest.raises(ValueError, match="margin must be >= 0"):
        dos_approximant(Lattice(1), _iid_spec(), g, [4.0, 8.0],
                        margin=float("nan"))


# ---------------------------------------------------------------------------
# one frame per disorder average

# (hopping, spec of a potential, the route an iid anderson shape takes)
_FRAME_HOPPINGS = [
    ("adjacency", adjacency, "chebyshev"),
    ("laplacian", laplacian, "chebyshev"),
    ("kernel", lambda pot: kernel([(1,), (-1,)], [0.6, 0.6], pot), "chebyshev"),
    ("none", diagonal_spec, "diagonal"),
]
# (name, schedule, margin, realizations, seed): the anderson-average shape
# and the small window of tools/configs/ergodic.json
_FRAME_SHAPES = [("anderson", [10, 100, 1000], 50.0, 3, 11),
                 ("small", [2, 4, 8], 4.0, 4, 7)]


def _independent_builds(space, spec_of, low, high, g, fol, realizations,
                        seed, margin):
    """(averages, routes, solvers) of one fresh build per child seed."""
    window = fol.points(-1)
    radius = float(np.max(space.norms(window))) + margin
    averages, routes = [], []
    for j in range(realizations):
        op = build_truncated(space, spec_of(
            iid_potential(low, high, derive_seed(seed, j))), radius)
        diag = function_diagonal(op, g)
        rows = np.flatnonzero(np.abs(op.points[:, 0]) <= fol.schedule[-1])
        averages.append(float(np.mean(diag.values[rows])))
        routes.append(diag.routes)
    return np.array(averages), tuple(routes), op.solvers


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.4, 0.4)],
                         ids=["iid", "degenerate"])
@pytest.mark.parametrize("shape", _FRAME_SHAPES, ids=[s[0] for s in _FRAME_SHAPES])
@pytest.mark.parametrize("hopping", _FRAME_HOPPINGS,
                         ids=[h[0] for h in _FRAME_HOPPINGS])
def test_shared_frame_equals_independent_builds(hopping, shape, low, high):
    """Every realization of one call builds on the first one's frame; its
    window means, routes and solvers are bit for bit those of a fresh
    ``build_truncated`` per child seed.  A degenerate band [c, c] is even
    about the base point, so with hopping every realization folds."""
    name, spec_of, route = hopping
    _, schedule, margin, realizations, seed = shape
    space, g, fol = Lattice(1), gaussian(0.3, 0.7), cubes(1, schedule)
    rep = ergodic_average(space, spec_of(iid_potential(low, high, 0)), g, fol,
                          realizations=realizations, seed=seed, margin=margin)
    averages, routes, solvers = _independent_builds(
        space, spec_of, low, high, g, fol, realizations, seed, margin)
    assert np.array_equal(rep.averages, averages)
    assert rep.diagonal_routes == routes
    assert rep.solvers == solvers
    if name == "none":
        assert len(solvers) == 1
    else:
        assert len(solvers) == (2 if low == high else 1)
    if shape[0] == "anderson" and low < high:
        assert {r[0] for rs in routes for r in rs} == {route}
    if shape[0] == "small" and low < high and name != "none":
        assert {r[0] for rs in routes for r in rs} == {"eigh"}


@pytest.mark.parametrize("first, second", [
    (periodic_potential([0.5]), iid_potential(0.0, 1.0, 4)),
    (iid_potential(0.0, 1.0, 4), periodic_potential([0.5])),
], ids=["constant-then-iid", "iid-then-constant"])
def test_each_build_on_a_frame_takes_its_own_fold(first, second):
    """The fold is decided on each build's own potential: a constant one
    folds into two blocks and an iid one does not, whichever comes first,
    and the second build equals a fresh one byte for byte."""
    space = Lattice(1)
    a = build_truncated(space, adjacency(first), 30.0)
    b = build_truncated(space, adjacency(second), 30.0, frame=a.frame)
    fresh = build_truncated(space, adjacency(second), 30.0)
    assert [len(op.blocks) for op in (a, b)] == [
        2 if p.kind == "periodic" else 1 for p in (first, second)]
    assert b.frame is a.frame
    for x, y in [(b.H, fresh.H)] + [(u.matrix, v.matrix) for u, v in
                                    zip(b.blocks, fresh.blocks, strict=True)]:
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(x, field), getattr(y, field))
            assert getattr(x, field).dtype == getattr(y, field).dtype


def test_frame_of_another_space_hopping_or_radius_is_refused():
    """A frame serves only the space object, hopping and radius it was
    built for, and its shared arrays cannot be written through any of the
    operators built on it."""
    space = Lattice(1)
    op = build_truncated(space, _iid_spec(), 20.0)
    for other_space, spec, radius in [
            (Lattice(1), _iid_spec(), 20.0),
            (Lattice(1, base=(3,)), _iid_spec(), 20.0),
            (space, laplacian(iid_potential(0.0, 1.0, 0)), 20.0),
            (space, diagonal_spec(iid_potential(0.0, 1.0, 0)), 20.0),
            (space, _iid_spec(), 21.0)]:
        with pytest.raises(ValueError, match="frame of another"):
            build_truncated(other_space, spec, radius, frame=op.frame)
    again = build_truncated(space, _iid_spec(seed=1), 20, frame=op.frame)
    for array in (again.points, again.dists, again.levels, again.level_keys,
                  again.level_counts, op.frame.rows, op.frame.values,
                  op.frame.order):
        assert not array.flags.writeable


def test_library_imports_leave_heavy_scipy_out():
    """scipy.linalg and scipy.sparse.csgraph load only when a solver or a
    graph BFS first needs them, and scipy.ndimage not at all; the Chebyshev
    route of diag g(H) (on an n = 2101 iid chain) loads none of them, nor
    scipy.fft."""
    heavy = ("('scipy.linalg', 'scipy.ndimage', 'scipy.fft', "
             "'scipy.sparse.csgraph')")
    imports = ("import sys, doslab.spaces, doslab.hamiltonians, "
               "doslab.spectral, doslab.ergodic; ")
    route = (
        "from doslab.hamiltonians import adjacency, build_truncated, "
        "iid_potential; from doslab.spaces import Lattice; "
        "from doslab.spectral import function_diagonal, gaussian; "
        "op = build_truncated(Lattice(1), "
        "adjacency(iid_potential(0.0, 1.0, 0)), 1050.0); "
        "print(function_diagonal(op, gaussian(0.3, 0.7)).routes[0][0]); ")
    src = os.path.dirname(os.path.dirname(doslab.__file__))
    for code, want in ((imports, "[]"), (imports + route, "chebyshev\n[]")):
        out = subprocess.run(
            [sys.executable, "-c",
             code + f"print(sorted(m for m in {heavy} if m in sys.modules))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == want
