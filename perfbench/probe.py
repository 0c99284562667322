"""Host-speed probes: fixed work that runs no doslab code.

The benchmark host is a shared VM whose speed drifts in phases of tens of
seconds to minutes (other tenants on the same cores and caches), so the
same unit can take 1.0 s in one run and 1.75 s in another.  A probe runs
the same fixed work before every batch; the median probe time of a run
measures how fast the host was while the units ran.  ``run.py`` reports
throughput rescaled to a host on which the probe takes ``REF_S`` seconds.

Each workload names the probe that matches its dominant cost:

* ``python``: a union-find pass, a CSR graph build and a BFS written with
  lists, tuples and scalar numpy indexing, the mix of the percolation
  pipeline;
* ``lapack``: one dense symmetric eigendecomposition with vectors through
  the same BLAS threads, for the workloads dominated by eigensolves.

A probe takes about 5 % of a unit, and it runs outside the tracer.
"""
from __future__ import annotations

import time

import numpy as np

_N_PY = 16_000
_N_LAPACK = 600
_MATRIX = None


def _python_work() -> int:
    # a union-find pass over a fixed pseudo-random edge list, then a CSR
    # build through numpy scalar indexing and per-row slice sorts, then a
    # BFS: the mix of interpreter and small numpy calls of percolation
    n = _N_PY
    parent = list(range(n))
    x = 12345
    edges = []
    for u in range(n):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        v = (x >> 8) % n
        if u != v:
            edges.append((u, v) if u < v else (v, u))
        a = u
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        b = v
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
    pairs = sorted(set(edges))
    deg = np.zeros(n, dtype=np.int64)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    adj = np.zeros(indptr[-1], dtype=np.int64)
    fill = indptr[:-1].copy()
    for u, v in pairs:
        adj[fill[u]] = v
        fill[u] += 1
        adj[fill[v]] = u
        fill[v] += 1
    for i in range(n):
        adj[indptr[i]:indptr[i + 1]].sort()
    ptr, nbrs = indptr.tolist(), adj.tolist()
    start = pairs[0][0]
    dist = [-1] * n
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[ptr[u]:ptr[u + 1]]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return n - dist.count(-1)


def _lapack_work() -> int:
    global _MATRIX
    if _MATRIX is None:
        a = np.random.default_rng(20220207).standard_normal((_N_LAPACK, _N_LAPACK))
        _MATRIX = a + a.T
    # the function is looked up at call time; run.py calls the probe
    # outside the tracer, so this never lands in a kernel span
    w, _ = np.linalg.eigh(_MATRIX)
    return int(w.size)


WORK = {"python": _python_work, "lapack": _lapack_work}

# median probe time on the tuning host (2-vCPU Xeon VM, OpenBLAS 0.3.31,
# 2 threads), so rescaled rates read close to the raw ones there
REF_S = {"python": 0.08, "lapack": 0.045}


def probe(kind: str) -> float:
    """Wall seconds of one run of the named probe."""
    work = WORK[kind]
    t = time.perf_counter()
    work()
    return time.perf_counter() - t
