"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the verdict lines as the
criteria complete.  Every tolerance here is the shipped one; nothing is
loosened for speed.  The two slow tests (criteria 3 and 9) do dense
eigensolves at the full advertised scale and dominate the runtime.
"""
import math
from fractions import Fraction

import numpy as np

from doslab import percolation
from doslab.dos import (ids_histogram, main_theorem_check,
                        weight_dixmier_trace)
from doslab.ergodic import (cubes, equivariance_check, ergodic_average,
                            folner_tempered_check, l1_balls, shift_weight_gap)
from doslab.hamiltonians import (adjacency, build_truncated, iid_potential,
                                 lattice_weight, periodic_potential)
from doslab.reference import arcsine_ids, block_means_report, lp_ball_volume
from doslab.spaces import CayleyF2, Lattice, condition_c_report
from doslab.spectral import (bump, gaussian, subsequence_equivalence_check,
                             weighted_cesaro, weighted_cesaro_bounded)


def _verdict(num: int, desc: str, checks: dict) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    print(f"[{'FAIL' if failed else 'PASS'}] criterion {num}: {desc}")
    assert not failed, f"criterion {num} failed: {', '.join(failed)}"


def test_criterion_1_dyadic_block_counterexample():
    report = block_means_report(12)
    even, odd = report.even_rows(), report.odd_rows()
    closed_form = all(
        r.cesaro == Fraction(1 + 2 ** (2 * r.m + 1), 3 * 4 ** r.m)
        for r in even)
    even_vals = [r.cesaro for r in even]
    odd_vals = [r.cesaro for r in odd]
    dev = [abs(r.log_cesaro - 0.5) for r in even]
    _verdict(1, "dyadic block counterexample: exact checkpoint means, "
                f"log-scale deviation {dev[-1]:.4f} at n=2^24", {
        "closed form at n=4^m": closed_form,
        "monotone toward 2/3": all(a > b > Fraction(2, 3)
                                   for a, b in zip(even_vals, even_vals[1:])),
        "monotone toward 1/3": all(a > b > Fraction(1, 3)
                                   for a, b in zip(odd_vals, odd_vals[1:])),
        "log-cesaro within 0.1 of 1/2": dev[-1] <= 0.1,
        "deviation decreasing in m": all(a > b for a, b in zip(dev, dev[1:])),
    })


def test_criterion_2_weight_trace_slope_is_ball_volume():
    space1 = Lattice(1)
    fit1 = weight_dixmier_trace(
        lattice_weight(space1, space1.ladder_to_radius(1e6)))
    checks = {"d=1 within 2% of 2": abs(fit1.slope - 2.0) / 2.0 <= 0.02}
    rels = []
    for p in (1.0, 2.0, math.inf):
        space = Lattice(2, p)
        fit = weight_dixmier_trace(
            lattice_weight(space, space.ladder_to_radius(1500.0)))
        target = lp_ball_volume(2, p)
        rel = abs(fit.slope - target) / target
        rels.append(rel)
        checks[f"d=2 p={p:g} within 5%"] = rel <= 0.05
    _verdict(2, "weight trace slope vs ball volume: d=1 rel "
                f"{abs(fit1.slope - 2.0) / 2.0:.2e}, d=2 rels "
                + ", ".join(f"{r:.4f}" for r in rels), checks)


def test_criterion_3_trace_identity_on_chains():
    space = Lattice(1)
    ladder = space.ladder_to_radius(4000.0)
    w = lattice_weight(space, ladder)
    profiles = (bump(0.0, 1.5), bump(-0.8, 1.0), bump(1.0, 1.2))
    gaps, modulated = [], []
    for spec in (adjacency(), adjacency(periodic_potential([0.0, 1.0]))):
        operator = build_truncated(space, spec, 4000.0)
        dos_operator = build_truncated(space, spec, 4100.0)
        for g in profiles:
            chk = main_theorem_check(space, spec, g, w, 4000.0, margin=100.0,
                                     ladder=ladder, operator=operator,
                                     dos_operator=dos_operator)
            gaps.append(chk.relative_gap)
            modulated.append(chk.modulated_ok)
    _verdict(3, "trace identity on the free and period-2 chains: max "
                f"relative gap {max(gaps):.4f} over 6 cases", {
        "all gaps <= 10%": max(gaps) <= 0.10,
        "modulated gap slope flat": all(modulated),
    })


def test_criterion_4_arcsine_law():
    hist = ids_histogram(Lattice(1), adjacency(), 2000.0)
    sup = hist.sup_distance(arcsine_ids, (-1.9, 1.9))
    _verdict(4, f"empirical IDS of the 4001-site chain vs arcsine law: "
                f"sup error {sup:.2e}", {
        "4001 eigenvalues": hist.n == 4001,
        "sup error <= 0.01": sup <= 0.01,
    })


def test_criterion_5_ball_ratio_condition():
    z1 = condition_c_report(Lattice(1).radii_ladder(500), threshold=0.01)
    z2 = condition_c_report(Lattice(2, 1.0).radii_ladder(500), threshold=0.01)
    f2 = condition_c_report(CayleyF2().radii_ladder(15), threshold=0.01)
    _verdict(5, "ball-ratio condition: lattices pass (tail deviations "
                f"{z1.max_tail_deviation:.4f}, {z2.max_tail_deviation:.4f}), "
                f"free group fails at ratio {f2.tail_mean_ratio:.4f}", {
        "Z passes": z1.verdict == "pass" and z1.max_tail_deviation <= 0.01,
        "Z^2 passes": z2.verdict == "pass" and z2.max_tail_deviation <= 0.01,
        "F2 fails": f2.verdict == "fail",
        "F2 ratio near 3": 2.99 <= f2.tail_mean_ratio <= 3.01,
    })


def test_criterion_6_percolation_cluster_growth():
    checks, plateaus = {}, []
    for seed in (2, 3, 4):
        sample = percolation.percolate_bonds(2, 600, 0.6, seed)
        cluster = percolation.largest_cluster(sample)
        growth = percolation.chemical_ball_growth(cluster, 150)
        ladder = cluster.radii_ladder(150)
        ratio_report = condition_c_report(ladder, threshold=0.05)
        rebuilt = percolation.percolate_bonds(2, 600, 0.6, seed)
        plateaus.append(growth.plateau_stat)
        checks[f"seed {seed} plateau <= 0.15"] = growth.plateau_stat <= 0.15
        checks[f"seed {seed} ball ratios settle"] = (
            ratio_report.verdict == "pass")
        checks[f"seed {seed} rerun bit-identical"] = (
            percolation.sample_digest(sample)
            == percolation.sample_digest(rebuilt))
    _verdict(6, "supercritical percolation clusters (d=2, p=0.6, L=600): "
                "plateaus " + ", ".join(f"{p:.4f}" for p in plateaus), checks)


def test_criterion_7_summation_lemma_suite():
    rng = np.random.default_rng(101)
    n = 1 << 14
    k = np.arange(1, n + 1, dtype=np.float64)
    flat_ok = harmonic_ok = bounded_ok = subseq_ok = True
    for _ in range(100):
        limit = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(-1.0, 1.0)
        x = limit + amp * k ** -rng.uniform(0.5, 1.0)
        # constant weights: the weighted means must land on the limit
        flat = weighted_cesaro(np.ones(n), x)
        flat_ok &= (flat.positive and flat.nonincreasing
                    and flat.denominator_divergent
                    and abs(flat.ratios[-1] - limit)
                    < 0.05 * max(abs(amp), 0.1))
        # harmonic weights: same limit through the log-mass normalisation
        har = weighted_cesaro(1.0 / k, x)
        har_ok = (har.positive and har.nonincreasing
                  and abs(har.ratios[-1] - limit) <= 0.32 * abs(amp) + 1e-12)
        harmonic_ok &= har_ok
        # deviations from the true limit stay bounded on the dyadic grid;
        # this variant needs summable weighted deviations, so it draws its
        # own sequence with exponent above 1 (the sum is amp * zeta(2.1))
        xb = limit + amp * k ** -1.1
        bounded = weighted_cesaro_bounded(1.0 / k, xb, limit)
        bounded_ok &= (bounded.deviations[-1] <= 2.0 * abs(amp) + 1e-12
                       and bounded.growth_slope
                       < 0.06 * max(abs(amp), 0.05))
        # log-dense checkpoints pin down the running means
        ks = np.unique(np.round(1.05 ** np.arange(1, 200)).astype(int))
        sub = subsequence_equivalence_check(x, ks[ks <= n])
        subseq_ok &= (sub.checkpoint_ratio_tail < 1.1
                      and sub.max_tail_discrepancy
                      < 5e-3 * max(abs(amp), 0.1))

    # hypothesis violations must trip the documented signatures
    growing = weighted_cesaro(np.concatenate(([1.0], 2.0 * np.ones(n - 1))),
                              np.ones(n))
    summable = weighted_cesaro(1.0 / k ** 2, np.ones(n))
    heavy = weighted_cesaro(1.0 / np.sqrt(k), np.ones(n))
    wrong_limit = weighted_cesaro_bounded(1.0 / k, np.ones(n), 0.25)
    m = np.floor(np.log2(np.maximum(k - 1, 1))).astype(np.int64)
    blocks = (m & 1).astype(np.float64)
    blocks[0] = 1.0
    oscillating = weighted_cesaro(np.ones(n), blocks)
    osc_tail = oscillating.ratios[-8:]
    sparse = subsequence_equivalence_check(blocks, [4 ** j for j in range(1, 8)])
    _verdict(7, "summation lemmas: 4 x 100 randomized trials plus "
                "violation signatures", {
        "constant weights": flat_ok,
        "harmonic weights": harmonic_ok,
        "bounded deviations": bounded_ok,
        "dense checkpoints": subseq_ok,
        "growing weights flagged": not growing.nonincreasing,
        "summable mass flagged": not summable.denominator_divergent,
        "heavy weights flagged": heavy.sup_k_ak > 60.0,
        "wrong limit grows": wrong_limit.growth_slope > 0.5,
        "oscillation survives": osc_tail.max() - osc_tail.min() > 0.2,
        "sparse checkpoints drift": sparse.max_tail_discrepancy > 0.2,
    })


def test_criterion_8_translation_equivariance():
    space = Lattice(1)
    spec = adjacency(periodic_potential([0.0, 1.0]))
    g = gaussian(0.3, 0.7)
    aligned = equivariance_check(space, spec, (2,), g, [250.0, 500.0])
    moved = equivariance_check(space, spec, (1,), g,
                               [500.0, 1000.0, 2000.0])
    checks = {
        "aligned shift exactly zero": aligned.max_diff == 0.0,
        "misaligned <= 1e-2 at r=2000": moved.tail_diff <= 1e-2,
        "misaligned decreasing": bool(np.all(np.diff(moved.diffs) < 0)),
    }
    stats = []
    for d, radius in ((1, 400.0), (2, 60.0)):
        sp = Lattice(d)
        w = lattice_weight(sp, sp.radii_ladder(int(2 * radius) + 4))
        small = shift_weight_gap(w, (1,) * d, radius)
        big = shift_weight_gap(w, (1,) * d, 2 * radius)
        stats.append(big.statistic / small.statistic)
        checks[f"shift-gap growth d={d} <= 5%"] = (
            big.statistic <= 1.05 * small.statistic)
    _verdict(8, "translation equivariance: misaligned tail diff "
                f"{moved.tail_diff:.2e}, shift-gap growth ratios "
                + ", ".join(f"{s:.4f}" for s in stats), checks)


def test_criterion_9_anderson_folner_averaging():
    space = Lattice(1)
    spec = adjacency(iid_potential(0.0, 1.0, seed=0))
    g = gaussian(0.3, 0.7)
    window = [10, 100, 1000]
    cube_rep = ergodic_average(space, spec, g, cubes(1, window),
                               realizations=100, seed=1, margin=50.0)
    ball_rep = ergodic_average(space, spec, g, l1_balls(1, window),
                               realizations=30, seed=2, margin=50.0)
    combined = 3.0 * (cube_rep.sem + ball_rep.sem)
    temper = folner_tempered_check(l1_balls(1, list(range(1, 31))))
    _verdict(9, "Anderson disorder averaging over [-1000, 1000]: "
                f"{cube_rep.n_within_3std}/100 within 3 std, shapes differ "
                f"by {abs(cube_rep.mean - ball_rep.mean):.2e}", {
        ">= 95 realizations within 3 std": cube_rep.n_within_3std >= 95,
        "window covers 2001 sites": cube_rep.window_size == 2001,
        "cube and ball means agree": (
            abs(cube_rep.mean - ball_rep.mean) <= combined),
        "ball schedule temperedness finite": (
            math.isfinite(temper.c_estimate)),
    })
