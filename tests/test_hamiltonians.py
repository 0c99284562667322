"""Truncated operator assembly: hoppings, potentials, parity blocks, weights."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from doslab._rng import site_keys
from doslab.dos import ids_histogram
from doslab.errors import BudgetExceeded
from doslab.hamiltonians import (HamiltonianSpec, Hopping, Potential,
                                 WeightFunction, adjacency, build_truncated,
                                 default_weight, diagonal_spec, iid_potential,
                                 kernel, laplacian, lattice_weight,
                                 periodic_potential, weak_l1_bound)
from doslab.spaces import CayleyF2, Graph, Lattice
from doslab.spectral import function_diagonal, gaussian, product_eigenvalues


def coord_order(op):
    """Permutation putting a 1-d operator's points in coordinate order."""
    return np.argsort(op.points[:, 0])


def dense_in_coord_order(op):
    perm = coord_order(op)
    return op.H.toarray()[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# site keys

_PACKABLE = (1 << 20) - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-_PACKABLE, _PACKABLE) | st.integers(-2, 2)] * d),
    min_size=1, max_size=40)))
def test_site_keys_are_injective_in_the_packable_range(rows):
    keys = site_keys(np.array(rows, dtype=np.int64))
    assert len(np.unique(keys)) == len(set(rows))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 5), axis=st.integers(0, 4),
       bad=st.integers(_PACKABLE + 1, 2 ** 63 - 1)
       | st.integers(-2 ** 63, -_PACKABLE - 1))
@example(d=1, axis=0, bad=-2 ** 63)
def test_site_keys_refuse_coordinates_outside_the_packable_range(d, axis,
                                                                 bad):
    # up to three axes fit, so four or more are refused whatever they hold
    coords = np.zeros((3, d), dtype=np.int64)
    if d <= 3:
        coords[1, axis % d] = bad
    with pytest.raises(ValueError):
        site_keys(coords)


# ---------------------------------------------------------------------------
# hoppings


def test_z1_adjacency_is_tridiagonal():
    op = build_truncated(Lattice(1), adjacency(), 2.0)
    m = dense_in_coord_order(op)
    want = np.zeros((5, 5))
    for i in range(4):
        want[i, i + 1] = want[i + 1, i] = 1.0
    assert np.array_equal(m, want)


def test_z2_laplacian_row_sums():
    op = build_truncated(Lattice(2, p=math.inf), laplacian(), 3.0)
    m = op.H.toarray()
    sums = m.sum(axis=1)
    interior = np.max(np.abs(op.points), axis=1) < 3
    # Dirichlet truncation: interior rows sum to zero, boundary rows keep
    # the full degree on the diagonal but lose outside neighbours
    assert np.allclose(sums[interior], 0.0)
    assert np.all(sums[~interior] > 0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        Hopping("kernel", offsets=((1,),), amplitudes=(1.0,))
    with pytest.raises(ValueError):
        Hopping("kernel", offsets=((1,), (1,)), amplitudes=(1.0, 1.0))
    with pytest.raises(ValueError):
        Hopping("kernel", offsets=((1,), (-1,)), amplitudes=(1.0, 2.0))
    with pytest.raises(ValueError):
        Hopping("hopscotch")


def test_kernel_operator_matches_manual_matrix():
    spec = kernel([(1,), (-1,), (2,), (-2,)], [1.0, 1.0, 0.5, 0.5])
    op = build_truncated(Lattice(1), spec, 3.0)
    m = dense_in_coord_order(op)
    xs = np.arange(-3, 4)
    want = np.zeros((7, 7))
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            if abs(a - b) == 1:
                want[i, j] = 1.0
            elif abs(a - b) == 2:
                want[i, j] = 0.5
    assert np.array_equal(m, want)


@pytest.mark.parametrize("space, spec, message", [
    (Lattice(2), kernel([(1,), (-1,)], [1.0, 1.0]), "has 1 components"),
    (Lattice(1), kernel([(1, 0), (-1, 0)], [1.0, 1.0]), "has 2 components"),
    (CayleyF2(), kernel([(1,), (-1,)], [1.0, 1.0]), "needs a lattice"),
    (Graph.from_edges([(0, 1), (1, 2)], base=0),
     kernel([(1,), (-1,)], [1.0, 1.0]), "needs a lattice"),
    (Lattice(2), adjacency(periodic_potential([0.0, 1.0])),
     "the lattice has d = 2"),
    (Lattice(1), diagonal_spec(periodic_potential([[0.0, 1.0]])),
     "the lattice has d = 1"),
])
def test_spec_that_does_not_fit_its_space_is_refused(space, spec, message):
    with pytest.raises(ValueError, match=message):
        build_truncated(space, spec, 2.0)


def test_cycle_graph_adjacency_spectrum():
    n = 12
    g = Graph.from_edges([(i, (i + 1) % n) for i in range(n)], base=0)
    op = build_truncated(g, adjacency(), 6.0)
    lam = np.sort(scipy.linalg.eigvalsh(op.H.toarray()))
    want = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(lam, want, atol=1e-12)


def test_f2_adjacency_degrees():
    op = build_truncated(CayleyF2(), adjacency(), 4.0)
    m = op.H.toarray()
    assert np.array_equal(m, m.T)
    deg = m.sum(axis=1)
    interior = op.dists < 4.0
    assert np.all(deg[interior] == 4.0)
    assert np.all(deg[~interior] == 1.0)  # leaves only reach their parent


# ---------------------------------------------------------------------------
# potentials


def test_periodic_potential_values():
    spec = adjacency(periodic_potential([0.0, 1.0]))
    op = build_truncated(Lattice(1), spec, 4.0)
    want = np.mod(op.points[:, 0], 2).astype(float)
    assert np.array_equal(op.potential, want)


def test_potential_follows_the_lattice_base_point():
    # ball order is base, base-1, base+1, base-2, base+2
    spec = diagonal_spec(periodic_potential([0, 1, 2]))
    moved = build_truncated(Lattice(1, base=(5,)), spec, 2.0)
    assert moved.points[:, 0].tolist() == [5, 4, 6, 3, 7]
    assert moved.potential.tolist() == [2, 1, 0, 0, 1]
    at_origin = build_truncated(Lattice(1, base=(0,)), spec, 2.0)
    assert at_origin.points[:, 0].tolist() == [0, -1, 1, -2, 2]
    assert at_origin.potential.tolist() == [0, 2, 1, 1, 2]


def test_periodic_potential_2d():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = diagonal_spec(periodic_potential(vals))
    op = build_truncated(Lattice(2, p=math.inf), spec, 2.0)
    for (x, y), v in zip(op.points, op.potential):
        assert v == vals[x % 2, y % 2]


def test_iid_potential_determinism_and_range():
    spec = diagonal_spec(iid_potential(-1.0, 3.0, seed=9))
    a = build_truncated(Lattice(2), spec, 8.0)
    b = build_truncated(Lattice(2), spec, 8.0)
    assert np.array_equal(a.potential, b.potential)
    assert np.all((a.potential >= -1.0) & (a.potential <= 3.0))
    other = build_truncated(
        Lattice(2), diagonal_spec(iid_potential(-1.0, 3.0, seed=10)), 8.0)
    assert not np.array_equal(a.potential, other.potential)


def test_iid_values_are_functions_of_the_site():
    """The field is attached to sites, not to enumeration order."""
    spec = diagonal_spec(iid_potential(0.0, 1.0, seed=4))
    small = build_truncated(Lattice(1), spec, 5.0)
    big = build_truncated(Lattice(1), spec, 9.0)
    lookup = {int(x): v for x, v in zip(big.points[:, 0], big.potential)}
    for x, v in zip(small.points[:, 0], small.potential):
        assert v == lookup[int(x)]


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential("periodic")
    with pytest.raises(ValueError):
        Potential("iid_uniform", low=1.0, high=0.0)
    with pytest.raises(ValueError, match="unknown potential kind"):
        Potential("table")
    with pytest.raises(ValueError):
        Potential("smooth")


# ---------------------------------------------------------------------------
# translation: the same spec around another base point


def test_shifted_periodic_values():
    spec = adjacency(periodic_potential([0.0, 1.0, 2.0]))
    op0 = build_truncated(Lattice(1), spec, 6.0)
    op1 = build_truncated(Lattice(1, base=(1,)), spec, 6.0)
    assert np.array_equal(op1.points, op0.points + 1)
    want = np.mod(op0.points[:, 0] + 1, 3).astype(float)
    assert np.array_equal(op1.potential, want)


def test_shifted_iid_is_sampled_at_translated_sites():
    spec = diagonal_spec(iid_potential(0.0, 1.0, seed=11))
    op = build_truncated(Lattice(1), spec, 6.0)
    small = build_truncated(Lattice(1), spec, 4.0)
    moved = build_truncated(Lattice(1, base=(2,)), spec, 4.0)
    assert np.array_equal(moved.points, small.points + 2)
    lookup = {int(x): v for x, v in zip(op.points[:, 0], op.potential)}
    for x, v in zip(small.points[:, 0], moved.potential):
        assert v == lookup[int(x) + 2]


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("space, moved, spec", [
    (Lattice(1), Lattice(1, base=(6,)),
     adjacency(periodic_potential([0.0, 1.0]))),
    (Lattice(1), Lattice(1, base=(-9,)),
     adjacency(periodic_potential([0.0, 0.7, 1.3]))),
    (Lattice(2, p=1), Lattice(2, p=1, base=(4, -2)),
     kernel([(1, 0), (-1, 0), (0, 2), (0, -2)], [1.0, 1.0, 0.5, 0.5],
            periodic_potential([[0.0, 1.0], [2.0, 3.0]]))),
], ids=["period-2-chain", "period-3-chain", "2d-l1-kernel"])
def test_whole_period_move_of_the_base_is_bit_identical(space, moved, spec):
    """Ball order and neighbour lookup are translation invariant, so a base
    point moved by whole periods rebuilds the same bytes."""
    a = build_truncated(space, spec, 12.0)
    b = build_truncated(moved, spec, 12.0)
    assert np.array_equal(b.points,
                          a.points + np.subtract(moved.base, space.base))
    assert np.array_equal(a.potential, b.potential)
    assert_same_csr(a.H, b.H)
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert_same_csr(x.matrix, y.matrix)
        assert_same_csr(x.basis, y.basis)


# ---------------------------------------------------------------------------
# parity folding (the property test in test_spectral.py compares every
# spectral quantity of folded operators with the dense reference)


def test_fold_matches_dense_spectrum():
    spec = adjacency(periodic_potential([1.0, -1.0]))
    op = build_truncated(Lattice(1), spec, 60.0)
    assert len(op.blocks) == 2
    a = np.sort(scipy.linalg.eigvalsh(op.H.toarray()))
    b = np.sort(np.concatenate([scipy.linalg.eigvalsh(blk.matrix.toarray())
                                for blk in op.blocks]))
    assert np.allclose(a, b, atol=1e-10)


def test_fold_dense_reconstruction_is_exact():
    # vals[k] == vals[(-k) mod 3] makes the potential even on the line
    spec = kernel([(1,), (-1,), (3,), (-3,)], [1.0, 1.0, -0.25, -0.25],
                  periodic_potential([0.5, 2.0, 2.0]))
    op = build_truncated(Lattice(1), spec, 40.0)
    assert len(op.blocks) == 2
    rebuilt = sum(b.basis @ b.matrix @ b.basis.T for b in op.blocks)
    assert np.allclose(rebuilt.toarray(), op.H.toarray(), atol=1e-12)
    for b in op.blocks:
        gram = (b.basis.T @ b.basis).toarray()
        assert np.allclose(gram, np.eye(b.matrix.shape[0]), atol=1e-15)
        assert np.all(np.diff(b.basis.indptr) <= 1)  # one nonzero per row


def test_fold_rejects_odd_potential():
    # any period-2 potential is even under x -> -x, so go to period 3
    spec = adjacency(periodic_potential([0.0, 1.0, 2.0]))  # V(-1) != V(1)
    op = build_truncated(Lattice(1), spec, 10.0)
    (block,) = op.blocks
    # the one block is H in coordinate order: Q is a permutation matrix
    q = block.basis.tocoo()
    assert np.array_equal(q.data, np.ones(op.n))
    assert np.array_equal(np.sort(q.row), np.arange(op.n))
    assert np.array_equal(op.points[q.row[np.argsort(q.col)], 0],
                          np.arange(-10, 11))
    assert ((block.basis @ block.matrix @ block.basis.T) != op.H).nnz == 0
    m = block.matrix.toarray()
    assert np.array_equal(m, np.triu(np.tril(m, 1), -1))
    assert block.solver == "tridiagonal"


def test_fold_is_decided_around_the_base_point():
    # [0, 0, 1] is even about the site 2 but not about the origin
    spec = adjacency(periodic_potential([0, 0, 1]))
    for base, n_blocks in (((2,), 2), ((0,), 1)):
        op = build_truncated(Lattice(1, base=base), spec, 3.0)
        assert len(op.blocks) == n_blocks
        got = np.sort(np.concatenate([np.linalg.eigvalsh(b.matrix.toarray())
                                      for b in op.blocks]))
        assert np.allclose(got, np.linalg.eigvalsh(op.H.toarray()), atol=1e-12)


def test_fold_auto_kicks_in_for_large_even_operators():
    op = build_truncated(Lattice(1), adjacency(), 3000.0)
    assert [b.matrix.shape[0] for b in op.blocks] == [3001, 3000]
    # folding needs no minimum size
    assert len(build_truncated(Lattice(1), adjacency(), 1.0).blocks) == 2


# ---------------------------------------------------------------------------
# operator metadata


def test_levels_and_counts_are_consistent():
    op = build_truncated(Lattice(2), adjacency(), 5.0)
    assert op.level_radii[0] == 0.0 and op.level_counts[0] == 1
    for i in range(op.n):
        assert op.dists[i] == op.level_radii[op.levels[i]]
    # level_counts is the cumulative point count per level
    assert np.array_equal(op.level_counts,
                          np.searchsorted(op.levels, np.arange(
                              op.levels.max() + 1), side="right"))
    assert op.n == op.level_counts[-1]


def test_entry_budget_guard():
    # radius 90 holds 25,445 points: the sparse H builds, and every dense
    # solve of its one block (n^2 > 2.5e8 entries) is refused before it
    # allocates
    op = build_truncated(Lattice(2), adjacency(), 90.0)
    assert op.solvers == (("dense", 25445),)
    g = gaussian(0.3, 0.7)
    for solve in (lambda: ids_histogram(None, None, 90.0, operator=op),
                  lambda: function_diagonal(op, g),
                  lambda: product_eigenvalues(op, np.ones(op.n), g)):
        with pytest.raises(BudgetExceeded, match="needs 647448025 entries, "
                           "entry budget is 250000000"):
            solve()
    # diagonal operators skip the dense allocation entirely
    op = build_truncated(Lattice(2), diagonal_spec(iid_potential(0, 1, 1)),
                         90.0)
    (block,) = op.blocks
    assert np.array_equal(block.diagonal, op.potential)


def test_values_only_route_has_no_entry_ceiling():
    # n = 16,001 is past the n^2 entry ceiling; dsterf on the two parity
    # blocks needs no n x n array
    op = build_truncated(Lattice(1), adjacency(), 8000.0)
    assert op.solvers == (("tridiagonal", 8001), ("tridiagonal", 8000))
    hist = ids_histogram(None, None, 8000.0, operator=op)
    n = op.n
    exact = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(hist.energies - exact).max() < 1e-12


# ---------------------------------------------------------------------------
# weights


def test_default_weight_values():
    lad = Lattice(1).radii_ladder(10)
    w = default_weight(lad)
    assert w.level_values[0] == 0.5
    counts = np.concatenate(([1], lad.counts))
    assert np.allclose(w.level_values, 1.0 / (1.0 + counts))
    assert np.all(np.diff(w.level_values) < 0)


def test_lattice_weight_closed_form():
    space = Lattice(2, p=math.inf)
    w = lattice_weight(space, space.radii_ladder(6))
    assert w.value_at_radius(3.0) == pytest.approx((1.0 + 3.0) ** -2)
    assert w.descriptor == {"d": 2, "p": math.inf}
    with pytest.raises(ValueError):
        lattice_weight(CayleyF2(), CayleyF2().radii_ladder(3))


def test_weight_level_guard():
    lad = Lattice(1).radii_ladder(5)
    w = default_weight(lad)
    op = build_truncated(Lattice(1), adjacency(), 9.0)
    with pytest.raises(ValueError, match="longer ladder"):
        w.values_for_levels(op.levels)
    assert w.values_for_levels([0, 1, 2])[0] == 0.5


def radial_weight(ladder, values_of_radius, kind="custom"):
    """A WeightFunction from level values only, without a closed form."""
    radii, counts = ladder.level_arrays()
    return WeightFunction(kind, values_of_radius(radii), counts)


def test_weight_monotonicity_enforced():
    lad = Lattice(1).radii_ladder(8)
    with pytest.raises(ValueError):
        radial_weight(lad, lambda r: np.ones_like(r))  # not decreasing
    with pytest.raises(ValueError):
        radial_weight(lad, lambda r: -1.0 / (1.0 + r))
    w = radial_weight(lad, lambda r: 1.0 / (1.0 + r) ** 2)
    with pytest.raises(ValueError, match="no closed form"):
        w.value_at_radius(1.0)


def test_weak_l1_certificates():
    space = Lattice(1)
    lad = space.radii_ladder(4000)
    good = weak_l1_bound(lattice_weight(space, lad))
    # products (2k+1)/(1+k) climb toward 2 but stay bounded
    assert good.c_estimate < 2.0
    assert not good.divergent_trend
    slow = weak_l1_bound(radial_weight(lad, lambda r: 1.0 / np.log(math.e + r)))
    assert slow.divergent_trend
    assert slow.c_estimate > 100.0
