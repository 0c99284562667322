"""Bond percolation: counter-based sampling, clusters, chemical growth.

The oracle for cluster labelling is a plain-Python union-find over the
open-edge mask, sharing no code with the library's sparse labelling.
"""

import struct

import numpy as np
import pytest

from scipy import sparse

from doslab.percolation import (_open_bonds, _valid_edge_mask,
                                chemical_ball_growth, largest_cluster,
                                load_sample, percolate_bonds, sample_digest,
                                save_sample)
from doslab.spaces import Graph


def union_find_labels(d, L, open_mask):
    """Cluster roots by path-halving union-find with union by size."""
    n = L ** d
    strides = [L ** (d - 1 - a) for a in range(d)]  # C-order neighbour steps
    parent = list(range(n))
    size = [1] * n

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in np.flatnonzero(open_mask).tolist():
        a, b = find(e // d), find(e // d + strides[e % d])
        if a == b:
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
    return np.array([find(v) for v in range(n)], dtype=np.int64)


def smallest_member_labels(roots):
    """Relabel a partition given by arbitrary roots: each vertex gets the
    smallest vertex of its class."""
    smallest = {}
    for v, r in enumerate(roots.tolist()):
        smallest.setdefault(r, v)
    return np.array([smallest[r] for r in roots.tolist()], dtype=np.int64)


def coo_open_bonds(d, L, open_mask):
    """The open-bond matrix built from (row, col) pairs: a COO sort and a
    duplicate merge."""
    n = L ** d
    edge = np.flatnonzero(open_mask)
    tails = edge // d
    heads = tails + np.array([L ** (d - 1 - a) for a in range(d)])[edge % d]
    adj = sparse.coo_array(
        (np.ones(2 * len(edge)),
         (np.concatenate((tails, heads)), np.concatenate((heads, tails)))),
        shape=(n, n)).tocsr()
    adj.sum_duplicates()
    return adj


def test_parameter_validation():
    with pytest.raises(ValueError):
        percolate_bonds(0, 10, 0.5, 1)
    with pytest.raises(ValueError):
        percolate_bonds(2, 1, 0.5, 1)
    with pytest.raises(ValueError):
        percolate_bonds(2, 10, 1.5, 1)


def test_extreme_p_values():
    full = percolate_bonds(2, 21, 1.0, 7)
    assert full.open_fraction() == 1.0
    g = largest_cluster(full)
    assert g.n_nodes == 21 * 21
    # base lands on the exact center of an odd box
    assert tuple(g.coords[g.base_index]) == (10, 10)
    empty = percolate_bonds(2, 10, 0.0, 7)
    assert empty.open_fraction() == 0.0
    assert largest_cluster(empty).n_nodes == 1


@pytest.mark.parametrize("d,L", [(2, 20), (3, 8), (2, 21), (3, 7)])
def test_full_box_base_is_the_smallest_central_vertex(d, L):
    """An even box has 2^d vertices equally close to its centre and the
    base is the lexicographically smallest; an odd box has one centre."""
    g = largest_cluster(percolate_bonds(d, L, 1.0, 1))
    assert g.n_nodes == L ** d
    d2 = ((g.coords - (L - 1) / 2.0) ** 2).sum(axis=1)
    assert np.count_nonzero(d2 == d2.min()) == (2 ** d if L % 2 == 0 else 1)
    assert tuple(g.coords[g.base_index]) == ((L - 1) // 2,) * d


def test_full_box_chemical_balls_are_l1_balls():
    g = largest_cluster(percolate_bonds(2, 21, 1.0, 3))
    growth = chemical_ball_growth(g, 10)
    t = np.arange(1, 11)
    assert np.array_equal(growth.ball_counts, 2 * t * t + 2 * t + 1)
    # normalized column and plateau statistic follow directly
    want = (2 * t * t + 2 * t + 1) / t.astype(float) ** 2
    assert np.allclose(growth.normalized, want)
    window = want[4:]
    assert growth.plateau_window == (5, 10)
    assert growth.plateau_stat == pytest.approx(
        (window.max() - window.min()) / window.mean())


def test_open_fraction_concentrates_around_p():
    s = percolate_bonds(2, 100, 0.37, 12)
    assert abs(s.open_fraction() - 0.37) < 0.012


def test_determinism_and_seed_sensitivity():
    a = percolate_bonds(2, 50, 0.6, 5)
    b = percolate_bonds(2, 50, 0.6, 5)
    assert np.array_equal(a.open_mask, b.open_mask)
    assert sample_digest(a) == sample_digest(b)
    assert np.array_equal(a.labels, b.labels)
    c = percolate_bonds(2, 50, 0.6, 6)
    assert sample_digest(a) != sample_digest(c)


def test_monotone_coupling_in_p():
    lo = percolate_bonds(2, 60, 0.55, 9)
    hi = percolate_bonds(2, 60, 0.65, 9)
    assert not np.any(lo.open_mask & ~hi.open_mask)
    assert hi.open_mask.sum() > lo.open_mask.sum()


@pytest.mark.parametrize("d,L,p,seed", [(1, 500, 0.7, 1), (2, 40, 0.5, 2),
                                        (2, 40, 0.6, 3), (3, 12, 0.3, 4)])
def test_union_find_matches_scipy_components(d, L, p, seed):
    s = percolate_bonds(d, L, p, seed)
    want = smallest_member_labels(union_find_labels(d, L, s.open_mask))
    assert np.array_equal(s.labels, want)


@pytest.mark.parametrize("d,L", [(1, 40), (2, 12), (3, 6)])
@pytest.mark.parametrize("fill", ["random", "open", "closed"])
def test_open_bonds_match_the_coo_reference(d, L, fill):
    n, valid = L ** d, _valid_edge_mask(d, L)
    draw = {"random": np.random.default_rng(d * L).random(n * d) < 0.5,
            "open": np.ones(n * d, dtype=bool),
            "closed": np.zeros(n * d, dtype=bool)}[fill]
    got = _open_bonds(d, L, draw & valid)
    want = coo_open_bonds(d, L, draw & valid)
    assert got.shape == (n, n)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # rows ascend strictly: sorted, and no entry is repeated
    for v in range(n):
        assert np.all(np.diff(got.indices[got.indptr[v]:got.indptr[v + 1]]) > 0)


@pytest.mark.parametrize("d,L,p,seed", [(1, 300, 0.95, 1), (2, 30, 0.55, 2),
                                        (3, 10, 0.35, 3), (2, 25, 1.0, 4)])
def test_cluster_graph_is_the_sorted_slice_of_the_bond_matrix(d, L, p, seed):
    s = percolate_bonds(d, L, p, seed)
    g = largest_cluster(s)
    want = coo_open_bonds(d, L, s.open_mask)[g.labels][:, g.labels]
    want.sort_indices()
    assert np.array_equal(g.indptr, want.indptr)
    assert np.array_equal(g.indices, want.indices)


def test_cluster_bfs_matches_scipy_shortest_path():
    from scipy.sparse.csgraph import shortest_path
    g = largest_cluster(percolate_bonds(2, 120, 0.6, 4))
    for start in (g.base_index, 0, g.n_nodes - 1):
        want = shortest_path(g.adjacency_matrix(), unweighted=True,
                             indices=start)
        assert np.array_equal(g.bfs_from(start), want.astype(np.int64))


def test_labels_are_roots_of_their_own_cluster():
    s = percolate_bonds(2, 30, 0.55, 8)
    # every stored label is a member of the cluster it names
    for r in np.unique(s.labels):
        assert s.labels[r] == r


def test_largest_cluster_base_is_central():
    s = percolate_bonds(2, 41, 0.6, 11)
    g = largest_cluster(s)
    center = (s.L - 1) / 2.0
    d2 = ((g.coords - center) ** 2).sum(axis=1)
    assert d2[g.base_index] == d2.min()
    assert g.meta["cluster_size"] == g.n_nodes


def test_cluster_is_connected_and_open_edged():
    s = percolate_bonds(2, 30, 0.55, 13)
    g = largest_cluster(s)
    dist = g.bfs_from(g.base_index)
    assert np.all(dist >= 0)
    # every cluster edge corresponds to an open bond between neighbours
    for i in range(g.n_nodes):
        for j in g.indices[g.indptr[i]:g.indptr[i + 1]]:
            diff = np.abs(g.coords[i] - g.coords[j]).sum()
            assert diff == 1
    # and every open bond out of the cluster is an edge, seen from both ends
    tails = np.flatnonzero(s.open_mask) // s.d
    assert g.indices.size == 2 * np.isin(tails, g.labels).sum()


def test_growth_guards():
    g = largest_cluster(percolate_bonds(2, 40, 0.6, 2))
    with pytest.raises(ValueError, match="exceeds L/2"):
        chemical_ball_growth(g, 21)
    with pytest.raises(ValueError):
        chemical_ball_growth(g, 1)


def test_growth_counts_match_cluster_ladder(monkeypatch):
    g = largest_cluster(percolate_bonds(2, 60, 0.6, 5))
    starts = []
    bfs = Graph.bfs_from
    monkeypatch.setattr(Graph, "bfs_from",
                        lambda self, i: starts.append(i) or bfs(self, i))
    growth = chemical_ball_growth(g, 30)
    lad = g.radii_ladder(30)
    # both read the cluster's one cached BFS from the base
    assert starts == [g.base_index]
    assert np.array_equal(lad.counts, growth.ball_counts)
    assert np.all(np.diff(growth.ball_counts) >= 0)


def test_save_load_round_trip(tmp_path):
    s = percolate_bonds(2, 40, 0.6, 1)
    path = tmp_path / "sample.bin"
    save_sample(s, path)
    twice = tmp_path / "sample2.bin"
    save_sample(s, twice)
    assert path.read_bytes() == twice.read_bytes()
    back = load_sample(path)
    assert (back.d, back.L, back.seed) == (s.d, s.L, s.seed)
    # p travels as 32-bit fixed point in the header
    assert back.p == pytest.approx(s.p, abs=2.0 ** -32)
    assert np.array_equal(back.open_mask, s.open_mask)
    assert np.array_equal(back.labels, s.labels)
    assert sample_digest(back) == sample_digest(s)
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="not a percolation sample"):
        load_sample(bad)


def test_load_sample_refuses_corrupt_files(tmp_path):
    s = percolate_bonds(2, 50, 0.6, 3)
    path = tmp_path / "sample.bin"
    save_sample(s, path)
    blob = path.read_bytes()
    header = 36
    cases = {
        # unpackbits would zero-pad a cut body into a sparser sample
        "half.bin": blob[:header + (len(blob) - header) // 2],
        "junk.bin": blob + b"\x00",
        "short.bin": blob[:20],
        "d0.bin": blob[:4] + struct.pack("<Q", 0) + blob[12:],
        "p.bin": blob[:20] + struct.pack("<Q", (1 << 32) + 1) + blob[28:],
        "hugeL.bin": blob[:12] + struct.pack("<Q", 1 << 62) + blob[20:],
    }
    for name, data in cases.items():
        bad = tmp_path / name
        bad.write_bytes(data)
        with pytest.raises(ValueError):
            load_sample(bad)


def test_frozen_regression_values():
    """Golden numbers for one configuration; any drift in the sampling or
    labelling path shows up here first."""
    s = percolate_bonds(2, 200, 0.6, 1)
    assert sample_digest(s).startswith("046b7897be8258fe")
    assert s.open_fraction() == pytest.approx(0.60031, abs=1e-5)
    g = largest_cluster(s)
    assert g.n_nodes == 37808
    growth = chemical_ball_growth(g, 100)
    assert growth.plateau_stat == pytest.approx(0.2968, abs=2e-4)


def test_supercritical_cluster_spans_most_of_the_box():
    # well above the threshold the giant cluster is nearly the whole box,
    # not a middling fraction of it; frozen after cross-checking the
    # component extraction against scipy on the smaller configurations
    s = percolate_bonds(2, 400, 0.6, 42)
    g = largest_cluster(s)
    assert g.n_nodes == 151522
    assert g.n_nodes / 400 ** 2 > 0.9
