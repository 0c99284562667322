"""Lattices, graphs, the free-group Cayley ball, radii ladders, condition C.

Oracles here are deliberately independent of the library internals:
brute-force point enumeration over integer boxes, a dict-based BFS for
graphs and free-group words, and closed-form ball counts where they exist.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from doslab.errors import BudgetExceeded, GraphParseError
from doslab.spaces import (CayleyF2, Graph, Lattice, RadiiLadder,
                           condition_c_report, ingest_graph)


def brute_ball(d, p, radius):
    """All integer points with l_p norm <= radius, as a set of tuples."""
    r = int(math.floor(radius)) + 1
    pts = set()
    for idx in np.ndindex(*([2 * r + 1] * d)):
        x = tuple(i - r for i in idx)
        if p == math.inf:
            nrm = max(abs(c) for c in x)
        else:
            nrm = sum(abs(c) ** p for c in x) ** (1.0 / p)
        if nrm <= radius + 1e-9:
            pts.add(x)
    return pts


# ---------------------------------------------------------------------------
# lattice metric and balls


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, math.inf])
def test_lattice_metric_axioms(p):
    space = Lattice(3, p=p)
    rng = np.random.default_rng(5)
    pts = rng.integers(-8, 9, size=(40, 3))
    for i in range(0, 40, 4):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        dxy = space.distance(x, y)
        assert dxy == space.distance(y, x)
        assert space.distance(x, x) == 0.0
        assert (dxy == 0.0) == bool(np.all(x == y))
        assert dxy <= space.distance(x, z) + space.distance(z, y) + 1e-12


def test_z1_ball_points():
    space = Lattice(1)
    sites, _, dists = space.ball_arrays(2.0)
    assert sorted(sites[:, 0].tolist()) == [-2, -1, 0, 1, 2]
    # base point first, then shells in increasing distance
    assert sites[0].tolist() == [0] and dists[0] == 0.0
    assert np.all(np.diff(dists) >= 0)


@pytest.mark.parametrize("p,radius", [(1.0, 6.0), (2.0, 5.5), (math.inf, 4.0),
                                      (2.5, 5.0)])
def test_z2_ball_matches_brute_force(p, radius):
    space = Lattice(2, p=p)
    got = {tuple(pt) for pt in space.ball_arrays(radius)[0].tolist()}
    assert got == brute_ball(2, p, radius)


def test_ball_with_base_offset():
    space = Lattice(2, p=1.0, base=(3, -2))
    got = {tuple(pt) for pt in space.ball_arrays(3.0)[0].tolist()}
    want = {(3 + a, -2 + b) for (a, b) in brute_ball(2, 1.0, 3.0)}
    assert got == want


def test_closed_form_counts_d2():
    lad1 = Lattice(2, p=1.0).radii_ladder(40)
    linf = Lattice(2, p=math.inf).radii_ladder(40)
    k = np.arange(1, 41)
    assert np.array_equal(lad1.counts, 2 * k * k + 2 * k + 1)
    assert np.array_equal(linf.counts, (2 * k + 1) ** 2)
    # l_inf shells are square rings of 8k points
    assert np.array_equal(linf.shells, 8 * k)


@pytest.mark.parametrize("d,p", [(1, 1.0), (1, 2.0), (1, 2.5), (1, math.inf),
                                 (2, 1.0), (2, math.inf), (3, 1.0),
                                 (3, math.inf)])
def test_closed_form_ladders_match_box_enumeration(d, p, monkeypatch):
    """Ladders built from the closed-form counts equal the ones read off the
    enumerated ball: same radii and counts, and the same budget charge for
    the (2R+1)^d box."""
    space = Lattice(d, p=p)
    for radius in range(1, 13):
        _, keys, dists = space.ball_arrays(float(radius))
        _, first, cnt = np.unique(keys, return_index=True, return_counts=True)
        lad = space.ladder_to_radius(float(radius))
        # a general p keeps its radii on the 1e-9 key grid
        assert np.allclose(lad.radii, dists[first][1:], rtol=0.0, atol=1e-9)
        assert np.array_equal(lad.counts, np.cumsum(cnt)[1:])
        with monkeypatch.context() as m:
            m.setenv("DOSLAB_BUDGET", str((2 * radius + 1) ** d - 1))
            with pytest.raises(BudgetExceeded):
                space.ladder_to_radius(float(radius))


def test_coordination_sequence_quasi_poly():
    """Z^2 coordination sequences (ladder shells) are exactly linear in k.

    A least-squares line through the shells leaves no residual; the slope
    is 8 for l_inf (square rings) and 4 for l_1 (diamond rings).
    """
    for p, slope in ((math.inf, 8.0), (1.0, 4.0)):
        shells = Lattice(2, p=p).radii_ladder(30).shells.astype(float)
        k = np.arange(1, shells.size + 1, dtype=float)
        design = np.column_stack([k, np.ones_like(k)])
        coef, *_ = np.linalg.lstsq(design, shells, rcond=None)
        assert np.max(np.abs(design @ coef - shells)) < 1e-8
        assert coef[0] == pytest.approx(slope)
        assert coef[1] == pytest.approx(0.0, abs=1e-8)


def test_gauss_circle_ratio():
    # euclidean ball counts approach pi r^2; 2% at r = 80 is comfortable
    lad = Lattice(2).ladder_to_radius(80.0)
    n, r = lad.counts[-1], lad.radii[-1]
    assert abs(n / (math.pi * r * r) - 1.0) < 0.02


def test_z1_ladder_and_to_radius_agree():
    space = Lattice(1)
    a = space.radii_ladder(17)
    b = space.ladder_to_radius(17.0)
    assert np.array_equal(a.radii, b.radii)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, 2 * np.arange(1, 18) + 1)


def test_lattice_norms_and_validation():
    space = Lattice(2, p=1.0)
    assert np.array_equal(space.norms([[1, 2], [-3, 0]]), [3.0, 3.0])
    with pytest.raises(ValueError):
        space.norms([[1, 2, 3]])
    with pytest.raises(ValueError):
        Lattice(0)
    with pytest.raises(ValueError):
        Lattice(2, p=0.5)


def test_lattice_budget_enforced(monkeypatch):
    monkeypatch.setenv("DOSLAB_BUDGET", "1000")
    with pytest.raises(BudgetExceeded) as exc:
        Lattice(2).ball_arrays(2000.0)
    assert exc.value.requested > exc.value.allowed


@pytest.mark.filterwarnings("error")
def test_key_limit_is_elementwise_and_far_radii_stay_refusable():
    """``key_limit`` maps an array of radii to int64 keys one by one, and
    a radius far past any budget neither warns nor wraps around: the
    lattice still refuses its box and F2 its radius."""
    radii = [0.0, 1.0, 1.4, 1.5, 2.9999999996, 3.0]
    keys = Lattice(2).key_limit(np.array(radii))
    assert keys.dtype == np.int64
    assert keys.tolist() == [Lattice(2).key_limit(r) for r in radii]
    assert keys.tolist() == [0, 1, 1, 2, 8, 9]  # squared l_2 lengths
    assert CayleyF2().key_limit(radii).tolist() == [0, 1, 1, 1, 3, 3]
    for space in (Lattice(2), Lattice(2, 1.0), Lattice(2, 3.0)):
        with pytest.raises(BudgetExceeded):
            space.ball_arrays(1e300)
    with pytest.raises(ValueError, match="beyond supported maximum 30"):
        CayleyF2().ladder_to_radius(1e300)


# ---------------------------------------------------------------------------
# radii ladder container


def make_ladder(radii, counts):
    return RadiiLadder(np.asarray(radii, dtype=float),
                       np.asarray(counts, dtype=np.int64))


def test_ladder_validation():
    with pytest.raises(ValueError):
        make_ladder([1.0, 1.0], [3, 5])
    with pytest.raises(ValueError):
        make_ladder([1.0, 2.0], [5, 3])
    with pytest.raises(ValueError):
        RadiiLadder(np.array([1.0]), np.array([3, 5]))


def test_ladder_shells_prefix_rows():
    lad = Lattice(1).radii_ladder(5)
    assert np.array_equal(lad.shells, [2, 2, 2, 2, 2])
    pre = lad.prefix(3)
    assert len(pre) == 3 and pre.counts[-1] == 7
    rows = lad.to_rows()
    assert rows[0] == (1, 1.0, 3, 2, 3.0)
    assert rows[1][:4] == (2, 2.0, 5, 2)
    assert rows[1][4] == pytest.approx(5 / 3)


# ---------------------------------------------------------------------------
# graphs


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def dict_component(edges, base):
    """Adjacency sets and BFS distances of the component of ``base``, by a
    plain dict/queue search over the raw edge list."""
    adj = {base: set()}
    for a, b in edges:
        adj.setdefault(a, set())
        adj.setdefault(b, set())
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return adj, dist


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(-20, 40), st.integers(-20, 40)),
                      max_size=60),
       base=st.integers(-25, 45))
def test_graph_bfs_against_dict_oracle(edges, base):
    # duplicates, both orientations, self-loops, negative and gapped ids,
    # and a base that may be absent from the list
    edges = edges + [(b, a) for a, b in edges[::3]]
    g = Graph.from_edges(edges, base=base)
    adj, dist = dict_component(edges, base)
    assert g.base == base
    assert g.labels.tolist() == sorted(dist)
    assert g.meta["component_size"] == len(dist) == g.n_nodes
    assert g.meta["total_nodes"] == len(adj)
    got = g.bfs_from(g.base_index)
    for i, lbl in enumerate(g.labels.tolist()):
        nbrs = g.indices[g.indptr[i]:g.indptr[i + 1]]
        assert g.labels[nbrs].tolist() == sorted(adj[lbl])
        assert got[i] == dist[lbl]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30),
       edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                      max_size=80),
       start=st.integers(0, 29), symmetric=st.booleans())
def test_graph_bfs_matches_scipy_shortest_path(n, edges, start, symmetric):
    """Disconnected, directed and self-looped graphs alike: hop distances
    along each row's edges, -1 where unreachable, as int64."""
    from scipy.sparse.csgraph import shortest_path
    rows, cols = (np.array([e[k] % n for e in edges], dtype=np.int64)
                  for k in (0, 1))
    if symmetric:
        rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    adj = sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                           shape=(n, n)).tocsr()
    adj.sum_duplicates()
    g = Graph(adj.indptr, adj.indices, start % n)
    want = shortest_path(adj, unweighted=True, indices=start % n)
    got = g.bfs_from(start % n)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.where(np.isinf(want), -1, want))


def test_path_and_cycle_ladders():
    pg = Graph.from_edges([(i, i + 1) for i in range(10)], base=5)
    lad = pg.radii_ladder(5)
    assert np.array_equal(lad.counts, [3, 5, 7, 9, 11])
    cg = Graph.from_edges(cycle_edges(12), base=0)
    lad = cg.radii_ladder(6)
    assert np.array_equal(lad.counts, [3, 5, 7, 9, 11, 12])


@pytest.mark.parametrize("space, radius", [
    (Lattice(1), 0.0), (Lattice(2), 0.9), (Lattice(2, 3.0), 0.5),
    (CayleyF2(), 0.5), (Graph.from_edges(cycle_edges(12), base=0), 0.5)])
def test_ladder_radius_below_the_first_distance_is_refused(space, radius):
    """Every space gives the one refusal that names ``radius``, where a
    lattice used to say "empty ladder" and a hop metric "k_max"."""
    with pytest.raises(ValueError) as err:
        space.ladder_to_radius(radius)
    assert str(err.value) == (f"radius: {radius:g} is below the first "
                              "realised distance")


def test_graph_ladder_to_radius_stops_at_the_radius_or_the_graph():
    g = Graph.from_edges(cycle_edges(12), base=0)
    for radius, k in ((1.0, 1), (2.5, 2), (6.0, 6), (40.0, 6)):
        lad, want = g.ladder_to_radius(radius), g.radii_ladder(k)
        assert np.array_equal(lad.radii, want.radii)
        assert np.array_equal(lad.counts, want.counts)


def test_graph_distance_and_subgraph():
    g = Graph.from_edges(cycle_edges(10), base=0)
    assert g.distance(0, 5) == 5.0
    assert g.distance(0, 7) == 3.0
    keep = np.flatnonzero(g.bfs_from(g.base_index) <= 2)
    sub = g.subgraph(keep)
    assert sub.n_nodes == 5
    dd = sub.bfs_from(sub.base_index)
    assert sorted(int(x) for x in dd) == [0, 1, 1, 2, 2]
    # keep in any order: node i of the subgraph is keep[i]
    shuffled = g.subgraph(keep[::-1])
    assert shuffled.labels.tolist() == g.labels[keep[::-1]].tolist()
    assert shuffled.base == 0
    kept = set(g.labels[keep].tolist())
    for i, lbl in enumerate(shuffled.labels.tolist()):
        nbrs = shuffled.indices[shuffled.indptr[i]:shuffled.indptr[i + 1]]
        assert np.all(np.diff(nbrs) > 0)
        assert set(shuffled.labels[nbrs].tolist()) == \
            {(lbl - 1) % 10, (lbl + 1) % 10} & kept
    with pytest.raises(ValueError, match="base node"):
        g.subgraph(keep[keep != g.base_index])


def test_graph_distance_refuses_nodes_outside_the_graph():
    g = Graph.from_edges(cycle_edges(6) + [(10, 11)], base=0)
    for x, y, missing in ((0, 17, 17), (-1, 2, -1), (10, 0, 10)):
        with pytest.raises(ValueError, match=f"^node {missing} is not in "
                                             "the graph$"):
            g.distance(x, y)
    assert g.distance(5, 2) == 3.0


def test_graph_ball_points_are_labels():
    g = Graph.from_edges(cycle_edges(8), base=2)
    idx, _, _ = g.ball_arrays(1.0)
    assert sorted(g.labels[idx].tolist()) == [1, 2, 3]


def test_ingest_graph_round_trip(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 3\n\n3 0\n")
    g = ingest_graph(path, base=0)
    assert g.n_nodes == 4
    assert g.distance(0, 2) == 2.0
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 two\n")
    with pytest.raises(GraphParseError) as exc:
        ingest_graph(bad, base=0)
    assert exc.value.line_number == 2


def test_graph_component_of_base():
    # the space is the connected component of the base point; a base
    # outside the edge list is kept as an isolated singleton
    g = Graph.from_edges([(0, 1), (1, 2), (5, 6)], base=0)
    assert g.n_nodes == 3
    assert g.meta["total_nodes"] == 5
    lone = Graph.from_edges([(0, 1)], base=7)
    assert lone.n_nodes == 1
    assert int(lone.labels[lone.base_index]) == 7


# ---------------------------------------------------------------------------
# free group on two generators


def f2_bfs_counts(k_max):
    """Ball counts of F2 via explicit reduced-word BFS with string words."""
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    seen = {""}
    frontier = [""]
    counts = []
    for _ in range(k_max):
        nxt = []
        for w in frontier:
            for g in "aAbB":
                if w and w[-1] == inv[g]:
                    continue
                u = w + g
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
        counts.append(len(seen))
    return counts


def test_f2_ball_counts_match_word_bfs():
    space = CayleyF2()
    lad = space.radii_ladder(7)
    assert list(lad.counts) == f2_bfs_counts(7)
    k = np.arange(1, 8)
    assert np.array_equal(lad.counts, 2 * 3**k - 1)


def test_f2_word_algebra():
    assert CayleyF2.reduce_word("abBA") == ""
    assert CayleyF2.reduce_word("aabBba") == "aaba"
    assert CayleyF2.inverse_word("ab") == "BA"
    assert CayleyF2.decode(CayleyF2.encode("aBab")) == "aBab"
    space = CayleyF2()
    assert space.distance("ab", "a") == 1.0
    assert space.distance("ab", "ab") == 0.0
    # d(x, y) = |reduced(x^-1 y)|
    assert space.distance("ab", "ba") == 4.0


def test_f2_budget(monkeypatch):
    monkeypatch.setenv("DOSLAB_BUDGET", "500")
    with pytest.raises(BudgetExceeded):
        CayleyF2().radii_ladder(10)


# ---------------------------------------------------------------------------
# condition C verdicts


def test_condition_c_passes_on_z1_and_z2():
    r1 = condition_c_report(Lattice(1).radii_ladder(500))
    assert r1.verdict == "pass"
    assert r1.max_tail_deviation <= 0.01
    r2 = condition_c_report(Lattice(2).radii_ladder(500))
    assert r2.verdict == "pass"
    assert r2.max_tail_deviation <= 0.01


def test_condition_c_fails_on_f2():
    rep = condition_c_report(CayleyF2().radii_ladder(12))
    assert rep.verdict == "fail"
    assert rep.tail_mean_ratio == pytest.approx(3.0, abs=0.01)


def test_condition_c_fails_on_doubling_ladder():
    counts = 2 ** np.arange(1, 16)
    lad = make_ladder(np.arange(1, 16, dtype=float), counts)
    rep = condition_c_report(lad)
    assert rep.verdict == "fail"
    assert rep.min_tail_deviation == pytest.approx(1.0)


def test_condition_c_needs_enough_entries():
    with pytest.raises(ValueError):
        condition_c_report(Lattice(1).radii_ladder(9))
