"""Truncated operator assembly: hoppings, potentials, parity blocks, weights."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from doslab._rng import site_keys
from doslab.dos import (_modulated_gap, dixmier_lhs, dos_approximant,
                        ids_histogram)
from doslab.errors import BudgetExceeded
from doslab.hamiltonians import (Block, HamiltonianSpec, Hopping, Potential,
                                 TruncatedOperator, WeightFunction,
                                 adjacency, build_truncated,
                                 default_weight, diagonal_spec, iid_potential,
                                 kernel, laplacian, lattice_weight,
                                 periodic_potential, weak_l1_bound)
from doslab.percolation import largest_cluster, percolate_bonds
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


@pytest.mark.parametrize("spec", [
    kernel([(1,), (-1,)], [1e308, 1e308]),
    adjacency(iid_potential(-1e308, 1e308, 0)),
])
@pytest.mark.filterwarnings("error")
def test_operator_whose_row_sums_overflow_is_refused(spec):
    """Entries whose |H| row sums pass float64 leave no finite Gershgorin
    interval; they are refused without a warning instead of giving NaN."""
    with pytest.raises(ValueError, match="overflow float64"):
        build_truncated(Lattice(1), spec, 10.0)


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


def _random_graph():
    rng = np.random.default_rng(5)
    edges = [tuple(int(v) for v in e) for e in rng.integers(0, 30, (60, 2))]
    return Graph.from_edges(edges, base=edges[0][0]), edges


def _metric_cases():
    """(id, space, radius, neighbours) where neighbours(points) gives the
    amplitude table of the space's own nearest-neighbour relation among the
    ball points and the full degree of each point."""
    def lattice(d, p, radius):
        def neighbours(points):
            l1 = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
            return (l1 == 1).astype(np.float64), np.full(len(points), 2.0 * d)
        return Lattice(d, p), radius, neighbours

    graph, edges = _random_graph()

    def graph_neighbours(points):
        pairs = {frozenset(e) for e in edges if e[0] != e[1]}
        labels = graph.labels[points]
        want = np.array([[float(frozenset((a, b)) in pairs) for b in labels]
                         for a in labels])
        degree = np.array([sum(a in e for e in pairs) for a in labels],
                          dtype=np.float64)
        return want, degree

    cluster = largest_cluster(percolate_bonds(2, 30, 0.6, 4))

    def cluster_neighbours(points):
        rows = [set(cluster.indices[cluster.indptr[i]:cluster.indptr[i + 1]])
                for i in points]
        want = np.array([[float(b in row) for b in points] for row in rows])
        return want, np.array([len(row) for row in rows], dtype=np.float64)

    f2 = CayleyF2()

    def f2_neighbours(points):
        words = [CayleyF2.decode(int(w)) for w in points]
        want = np.array([[float(f2.distance(a, b) == 1) for b in words]
                         for a in words])
        return want, np.full(len(points), 4.0)

    return [
        ("z1", *lattice(1, 2.0, 4.0)),
        ("z2-l1", *lattice(2, 1.0, 4.0)),
        ("z2-l2", *lattice(2, 2.0, 3.0)),
        ("z2-linf", *lattice(2, math.inf, 3.0)),
        ("z3-l1", *lattice(3, 1.0, 3.0)),
        ("graph", graph, 2.0, graph_neighbours),
        ("cluster", cluster, 6.0, cluster_neighbours),
        ("f2", f2, 3.0, f2_neighbours),
    ]


_METRIC_CASES = [
    (*case, hopping) for case in _metric_cases()
    for hopping in ("adjacency", "laplacian", "kernel")
    if hopping != "kernel" or isinstance(case[1], Lattice)]


@pytest.mark.parametrize("name, space, radius, neighbours, hopping",
                         _METRIC_CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in _METRIC_CASES])
def test_hopping_matches_the_space_metric_pair_by_pair(name, space, radius,
                                                       neighbours, hopping):
    """H minus its potential, against a matrix built from the space's own
    metric one pair at a time.  Boundary points keep their full degree on
    the Laplacian diagonal: the truncation drops matrix elements, not
    neighbours."""
    potential = iid_potential(-1.0, 1.0, 3)
    if hopping == "kernel":
        d = space.d
        units = [tuple(s * (i == a) for i in range(d))
                 for a in range(d) for s in (1, -1)]
        reach2 = [tuple(2 * s * (i == d - 1) for i in range(d))
                  for s in (1, -1)]
        amps = {**{u: 1.0 for u in units}, **{o: -0.5 for o in reach2}}
        spec = kernel(list(amps), list(amps.values()), potential)
    else:
        spec = HamiltonianSpec(Hopping(hopping), potential)
    op = build_truncated(space, spec, radius)
    if hopping == "kernel":
        n = op.n
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                want[i, j] = amps.get(
                    tuple(int(c) for c in op.points[j] - op.points[i]), 0.0)
    else:
        want, degree = neighbours(op.points)
        boundary = want.sum(axis=1) < degree
        assert boundary.any() and not boundary.all()
        if hopping == "laplacian":
            want = np.diag(degree) - want
    # H = want + diag(potential) exactly: one float sum per diagonal entry
    assert np.array_equal(op.H.toarray(), want + np.diag(op.potential))


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


def _cluster_from_two_bases():
    c = largest_cluster(percolate_bonds(2, 30, 0.6, 4))
    other = int(np.flatnonzero(c.base_distances() == 3)[0])
    return (c, 4.0), (Graph(c.indptr, c.indices, other, c.labels), 4.0)


def _lattice_site(space, point):
    return tuple(point.tolist())


@pytest.mark.parametrize("small, big, site", [
    ((Lattice(1), 5.0), (Lattice(1), 9.0), _lattice_site),
    ((Lattice(2, 1.0), 3.0), (Lattice(2, 1.0), 6.0), _lattice_site),
    (*_cluster_from_two_bases(), lambda space, node: int(space.labels[node])),
    ((CayleyF2(), 3.0), (CayleyF2(), 5.0), lambda space, word: int(word)),
], ids=["chain", "l1-plane", "cluster-two-bases", "f2"])
def test_iid_values_are_functions_of_the_site(small, big, site):
    """The field is attached to sites, not to enumeration order or to the
    base point: wherever two balls share a site, it gets one value."""
    spec = diagonal_spec(iid_potential(0.0, 1.0, seed=4))
    (a, r_a), (b, r_b) = small, big
    op_a, op_b = build_truncated(a, spec, r_a), build_truncated(b, spec, r_b)
    lookup = {site(b, x): v for x, v in zip(op_b.points, op_b.potential)}
    shared = [(lookup[site(a, x)], v)
              for x, v in zip(op_a.points, op_a.potential)
              if site(a, x) in lookup]
    assert len(shared) > 2
    assert all(u == v for u, v in shared)


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
        for name in ("rows", "cols", "size"):
            assert np.array_equal(getattr(x, name), getattr(y, name))


# ---------------------------------------------------------------------------
# parity folding (the property test in test_spectral.py compares every
# spectral quantity of folded operators with the dense reference)


def orbit_basis(op, i):
    """Q_b of block i of a 1-d operator based at the origin: the indicator
    of each orbit scaled to unit length, signed by sign(x) on the odd block
    (block 1) of a parity fold."""
    block = op.blocks[i]
    signs = np.sign(op.points[block.rows, 0]) if i == 1 else 1.0
    return sparse.csr_array(
        (signs / np.sqrt(block.size[block.cols]), (block.rows, block.cols)),
        shape=(op.n, len(block.size)))


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
    bases = [orbit_basis(op, i) for i in range(len(op.blocks))]
    rebuilt = sum(q @ b.matrix @ q.T for q, b in zip(bases, op.blocks))
    assert np.allclose(rebuilt.toarray(), op.H.toarray(), atol=1e-12)
    for q, b in zip(bases, op.blocks):
        gram = (q.T @ q).toarray()
        assert np.allclose(gram, np.eye(b.matrix.shape[0]), atol=1e-15)
        assert np.all(np.diff(q.indptr) <= 1)  # one nonzero per row


def test_fold_rejects_odd_potential():
    # any period-2 potential is even under x -> -x, so go to period 3
    spec = adjacency(periodic_potential([0.0, 1.0, 2.0]))  # V(-1) != V(1)
    op = build_truncated(Lattice(1), spec, 10.0)
    (block,) = op.blocks
    # the one block is H in coordinate order: Q is a permutation matrix
    assert np.array_equal(block.size, np.ones(op.n))
    assert np.array_equal(np.sort(block.rows), np.arange(op.n))
    assert np.array_equal(op.points[block.rows[np.argsort(block.cols)], 0],
                          np.arange(-10, 11))
    q = orbit_basis(op, 0)
    assert ((q @ block.matrix @ q.T) != op.H).nnz == 0
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


def pattern_product_block(H, orbits, signs):
    """Reference M_b = Q_b^T H Q_b formed as a product with the sparse
    signed pattern of Q_b, orbit sizes scaled by sqrt(c)/c and symmetrised
    as (m + m^T) / 2: the route every block took before singleton orbits
    were gathered by indexing."""
    n, rows = H.shape[0], np.flatnonzero(signs)
    _, cols, size = np.unique(orbits[rows], return_inverse=True,
                              return_counts=True)
    k, size = len(size), size.astype(np.float64)
    pattern = sparse.csr_array(
        (np.asarray(signs[rows], dtype=np.float64), (rows, cols)),
        shape=(n, k))
    m = (pattern.T @ H @ pattern).tocoo()
    cc = size[m.row] * size[m.col]
    m = sparse.csr_array((m.data * (np.sqrt(cc) / cc), (m.row, m.col)),
                         shape=(k, k))
    return Block(sparse.csr_array((m + m.T) / 2.0), rows, cols, size)


def _singleton_orbit_cases():
    graph, _ = _random_graph()
    cluster = largest_cluster(percolate_bonds(2, 30, 0.6, 4))
    iid = iid_potential(-0.5, 1.5, 9)
    return [
        ("cluster", cluster, adjacency(iid), 6.0),
        ("graph", graph, laplacian(iid), 3.0),
        ("f2-r5", CayleyF2(), adjacency(iid), 5.0),
        ("z2-l1", Lattice(2, 1.0), adjacency(iid), 7.0),
        ("z2-l2", Lattice(2, 2.0), laplacian(iid), 6.0),
        ("z2-linf", Lattice(2, math.inf), kernel(
            [(1, 0), (-1, 0), (1, 1), (-1, -1)], [1.0, 1.0, 0.5, 0.5], iid),
         5.0),
        ("chain-iid", Lattice(1), adjacency(iid), 40.0),
        ("chain-iid-moved", Lattice(1, base=(7,)), adjacency(iid), 40.0),
        ("chain-period-3", Lattice(1), adjacency(
            periodic_potential([0.0, 0.7, 1.3])), 41.0),
        ("chain-laplacian", Lattice(1), laplacian(iid), 40.0),
        ("chain-kernel", Lattice(1), kernel(
            [(1,), (-1,), (2,), (-2,)], [1.0, 1.0, 0.3, 0.3], iid), 30.0),
        ("chain-diagonal", Lattice(1), diagonal_spec(iid), 20.0),
        ("z2-diagonal", Lattice(2), diagonal_spec(iid), 4.0),
    ]


_SINGLETON_CASES = _singleton_orbit_cases()


@pytest.mark.parametrize("name, space, spec, radius", _SINGLETON_CASES,
                         ids=[c[0] for c in _SINGLETON_CASES])
def test_singleton_orbit_blocks_equal_the_pattern_product(name, space, spec,
                                                           radius):
    """An unfolded block (every orbit one point with sign +1) is H gathered
    into orbit order; it keeps every byte of the pattern product: CSR
    arrays with their dtypes, rows, cols, sizes, diagonal and solver."""
    op = build_truncated(space, spec, radius)
    orbits = np.arange(op.n)
    if (isinstance(space, Lattice) and space.d == 1
            and spec.hopping.kind != "none"):
        orbits = op.points[:, 0] - space.base[0]
    (block,) = op.blocks
    want = pattern_product_block(op.H, orbits, np.ones(op.n))
    for field in ("data", "indices", "indptr"):
        got, ref = getattr(block.matrix, field), getattr(want.matrix, field)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    for field in ("rows", "cols", "size", "diagonal"):
        got, ref = getattr(block, field), getattr(want, field)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert block.matrix.shape == want.matrix.shape
    assert block.solver == want.solver


def test_gathered_block_keeps_entries_past_half_the_float_range():
    """A finite H whose entries pass half the float64 range has finite
    blocks: the gather copies them, where (m + m^T) / 2 gave inf."""
    op = build_truncated(Lattice(2), diagonal_spec(
        iid_potential(1e308, 1e308, 0)), 2.0)
    (block,) = op.blocks
    assert np.array_equal(block.diagonal, np.full(op.n, 1e308))


# ---------------------------------------------------------------------------
# operator metadata


def test_levels_and_counts_are_consistent():
    space = Lattice(2)
    op = build_truncated(space, adjacency(), 5.0)
    assert op.level_keys[0] == 0 and op.level_counts[0] == 1
    _, keys, _ = space.ball_arrays(5.0)
    assert np.array_equal(keys, op.level_keys[op.levels])
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


def _dense_operators():
    """Three operators whose one block is dense: a chemical ball of a
    percolation cluster, an F2 ball and a 2-d lattice with a reach-2
    kernel, each with an iid potential where the space allows one."""
    cluster = largest_cluster(percolate_bonds(2, 40, 0.6, 1))
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    reach2 = kernel(units + [(2 * a, 2 * b) for a, b in units],
                    [1.0] * 4 + [0.5] * 4, iid_potential(-1.0, 1.0, 3))
    return {"cluster": lambda: build_truncated(
                cluster, adjacency(iid_potential(0.0, 1.0, 2)), 14.0),
            "f2": lambda: build_truncated(CayleyF2(), adjacency(), 5.0),
            "reach-2": lambda: build_truncated(Lattice(2), reach2, 10.0)}


@pytest.mark.parametrize("name", ["cluster", "f2", "reach-2"])
def test_dense_block_solves_are_accurate_and_ignore_call_order(name):
    """Values and pairs of a dense block both come from its one reduction,
    so neither depends on whether the other ran first; the pairs are
    accurate, and once they exist the block holds no other n x n array."""
    build = _dense_operators()[name]
    op = build()
    ((solver, n),) = op.solvers
    assert solver == "dense" and n > 200
    (block,) = op.blocks
    values = block.eigvalsh()
    lam, vec = block.eigh()
    assert block.eigvalsh().tobytes() == values.tobytes()
    (fresh,) = build().blocks
    fresh_lam, fresh_vec = fresh.eigh()
    assert fresh.eigvalsh().tobytes() == values.tobytes()
    assert fresh_lam.tobytes() == lam.tobytes()
    assert fresh_vec.tobytes() == vec.tobytes()

    m = op.H.toarray()
    scale = max(1.0, np.abs(np.linalg.eigvalsh(m)).max())
    assert np.abs(np.sort(values) - np.linalg.eigvalsh(m)).max() < 1e-12
    assert np.abs(lam - np.linalg.eigvalsh(m)).max() < 1e-12
    assert np.linalg.norm(m @ vec - vec * lam, 2) <= 1e-12 * scale
    gram = vec.T @ vec - np.eye(n)
    assert np.linalg.norm(gram, 2) <= 1e-12 * scale

    held = [a for v in vars(fresh).values()
            for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray) and a.size >= n * n]
    assert len(held) == 1 and held[0] is fresh_vec
    assert fresh_vec.base is None or fresh_vec.base.size == n * n


def test_one_reduction_per_dense_operator(monkeypatch):
    """ids, the DOS approximant and the product spectrum of one dense
    operator share one ``dsytrd``; a diagonal block's routes call neither
    the reduction nor any dense kernel."""
    import scipy.linalg.blas as blas
    import scipy.linalg.lapack as lapack
    calls = []
    dsytrd = lapack.dsytrd
    monkeypatch.setattr(lapack, "dsytrd",
                        lambda *a, **k: calls.append(1) or dsytrd(*a, **k))
    op = build_truncated(CayleyF2(), adjacency(), 5.0)
    assert op.solvers == (("dense", 485),)
    g = gaussian(0.3, 0.7)
    ids_histogram(None, None, 5.0, operator=op)
    dos_approximant(None, None, g, [1.0, 2.0, 3.0], margin=2.0, operator=op)
    product_eigenvalues(op, np.linspace(1.0, 0.5, op.n), g)
    assert len(calls) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal block ran a dense solver")

    for module, name in ((lapack, "dsytrd"), (lapack, "dsyevd"),
                         (lapack, "dstevd"), (lapack, "dsyevr"),
                         (lapack, "dpotrf"), (blas, "dsyrk"),
                         (blas, "dgemv"), (blas, "dgemm"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, name, refuse)
    op = build_truncated(Lattice(2), diagonal_spec(iid_potential(0, 1, 4)),
                         6.0)
    (block,) = op.blocks
    assert block.solver == "diagonal"
    result = function_diagonal(op, g)
    assert result.routes == (("diagonal", op.n),)
    assert np.array_equal(result.values, g(op.potential))
    w = np.linspace(1.0, 0.5, op.n)
    assert np.array_equal(np.sort(product_eigenvalues(op, w, g)),
                          np.sort(g(op.potential) * w))


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
    assert w.radius_fn(np.float64(3.0)) == pytest.approx((1.0 + 3.0) ** -2)
    assert w.descriptor == {"d": 2, "p": math.inf}
    with pytest.raises(ValueError):
        lattice_weight(CayleyF2(), CayleyF2().radii_ladder(3))


def test_weight_level_guard():
    lad = Lattice(1).radii_ladder(5)
    w = default_weight(lad)
    op = build_truncated(Lattice(1), adjacency(), 9.0)
    with pytest.raises(ValueError, match="longer ladder"):
        w.values_on(op)
    near = build_truncated(Lattice(1), adjacency(), 2.0)
    assert w.values_on(near).tolist() == [0.5, 1 / 4, 1 / 4, 1 / 6, 1 / 6]


def test_weight_built_on_another_ladder_is_refused():
    # level counts 1, 5, 13, 25, 41 (l1) against 1, 5, 9, 13, 21 (l2): from
    # level 2 on each operator level would read another level's weight
    w = default_weight(Lattice(2, 1.0).ladder_to_radius(400))
    op = build_truncated(Lattice(2, 2.0), adjacency(), 20)
    with pytest.raises(ValueError, match="another ladder"):
        dixmier_lhs(None, None, gaussian(0, 1), w, None, operator=op)
    with pytest.raises(ValueError, match="another ladder"):
        _modulated_gap(None, op, gaussian(0, 1), w, None)
    own = default_weight(Lattice(2, 2.0).ladder_to_radius(20))
    assert len(product_eigenvalues(op, own.values_on(op),
                                   gaussian(0, 1))) == op.n


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
    radial_weight(lad, lambda r: 1.0 / (1.0 + r) ** 2)  # decreasing: valid


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


def test_only_hamiltonians_reads_the_block_solver():
    """The solver choice has one owner: no other module of the package
    reads a block's ``solver`` (the per-operator ``solvers`` sidecar field
    is a different name), and ``spectral`` sees neither ``Block`` nor
    scipy, so it can only join blocks."""
    import ast
    import pathlib

    import doslab
    package = pathlib.Path(doslab.__file__).parent
    readers, spectral_imports = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "solver"
                    and path.name != "hamiltonians.py"):
                readers.append(f"{path.name}:{node.lineno}")
            if path.name == "spectral.py" and isinstance(
                    node, (ast.Import, ast.ImportFrom)):
                spectral_imports.add(getattr(node, "module", None) or "")
                spectral_imports.update(a.name for a in node.names)
    assert readers == []
    assert "Block" not in spectral_imports
    assert not any(name.split(".")[0] == "scipy" for name in spectral_imports)


def test_every_dense_kernel_runs_on_scipys_blas():
    """numpy and scipy each bundle their own BLAS with its own thread pool;
    the package calls only scipy's, so the two never contend.  Of
    ``np.linalg`` it reads only the exception type."""
    import ast
    import pathlib

    import doslab
    package = pathlib.Path(doslab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = [f"{module}.{a.name}" if module else a.name
                         for a in node.names]
                found += [f"{path.name}:{node.lineno} imports {name}"
                          for name in names
                          if name.startswith("numpy.linalg")]
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")
                    and node.attr != "LinAlgError"):
                found.append(f"{path.name}:{node.lineno} calls "
                             f"np.linalg.{node.attr}")
    assert found == []


def test_only_spaces_reads_a_spaces_arrays():
    """Each point format has one owner: the modules that build and use
    operators ask a space for neighbours and site ids, and neither import
    the graph or free-group classes or the lattice key packer nor read a
    graph's CSR arrays or labels (``indices`` is left out, as
    ``SlopeFit.indices`` shares the name)."""
    import ast
    import pathlib

    import doslab
    package = pathlib.Path(doslab.__file__).parent
    found = []
    for name in ("hamiltonians.py", "spectral.py", "dos.py", "ergodic.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}:{node.lineno} imports {a.name}"
                          for a in node.names
                          if a.name in ("Graph", "CayleyF2", "site_keys")]
            if isinstance(node, ast.Attribute) and node.attr in ("indptr",
                                                                 "labels"):
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
    assert found == []


def test_only_spaces_decides_ball_membership():
    """One ball rule: no module but ``spaces`` holds the 1e-9 slack that
    decides whether a float radius reaches a point, and an operator keeps
    its level keys, not float level radii, for others to compare with."""
    import ast
    import dataclasses
    import pathlib

    import doslab
    package = pathlib.Path(doslab.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             if path.name != "spaces.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == 1e-9]
    assert found == []
    fields = {f.name for f in dataclasses.fields(TruncatedOperator)}
    assert "level_radii" not in fields and {"level_keys", "space"} <= fields
