"""Command-line surface: configs in, CSV/JSON artifacts out.

Exit codes: 0 success (verdicts of any kind count as success), 2 a
theorem-check ran fine but missed its tolerance, 1 anything that stopped
the run (bad config, budget, failed precondition).

Thread caps have to land in the environment before numpy loads its BLAS,
so nothing numerical is imported at module level; handlers import what
they need after ``main`` has applied ``--threads``.

Artifacts are deterministic for a fixed config and seed: JSON is written
with sorted keys, CSVs are RFC 4180 (CRLF, header row) with shortest
round-trip float formatting, and every artifact carries the tool version
and the config digest.  CSVs get the metadata as a ``<name>.meta.json``
sidecar since the format has no comment channel.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import (BudgetExceeded, ConfigError, NotEstablished,
                     PreconditionFailed)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; reserve 2 for tolerance failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _p_norm(text: str):
    if text == "inf":
        return "inf"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'inf', got {text!r}") from None


def _int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="doslab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"doslab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config")
    common.add_argument("--out", help="primary artifact path")
    common.add_argument("--threads", type=int,
                        help="cap BLAS/worker threads (default: leave as is)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--budget", type=int,
                        help="point budget override (also: DOSLAB_BUDGET)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    space = sub.add_parser("space", help="metric-space tables")
    ssub = space.add_subparsers(dest="space_command", metavar="SUBCOMMAND")
    ladder = ssub.add_parser("ladder", parents=[common],
                             help="radii ladder CSV")
    ladder.add_argument("--space", dest="space_kind",
                        choices=("lattice", "f2"))
    ladder.add_argument("--d", type=int)
    ladder.add_argument("--p", type=_p_norm)
    ladder.add_argument("--kmax", type=int)
    ladder.add_argument("--radius", type=float)
    checkc = ssub.add_parser("check-c", parents=[common],
                             help="ball-ratio condition verdict")
    checkc.add_argument("--space", dest="space_kind",
                        choices=("lattice", "f2"))
    checkc.add_argument("--d", type=int)
    checkc.add_argument("--p", type=_p_norm)
    checkc.add_argument("--kmax", type=int)
    checkc.add_argument("--threshold", type=float)

    perc = sub.add_parser("percolate", parents=[common],
                          help="bond percolation sample and cluster growth")
    perc.add_argument("--d", type=int)
    perc.add_argument("--L", type=int)
    perc.add_argument("--p", type=float, help="bond open probability")
    perc.add_argument("--tmax", type=int)
    perc.add_argument("--growth-out", dest="growth_out")
    perc.add_argument("--sample-out", dest="sample_out")

    sub.add_parser("dos", parents=[common], help="ball averages of diag g(H)")
    sub.add_parser("ids", parents=[common],
                   help="empirical integrated density of states")
    sub.add_parser("dixmier", parents=[common],
                   help="trace slope of g(H) M_w")
    sub.add_parser("theorem-check", parents=[common],
                   help="compare trace slope with weight slope x DOS limit")

    ce = sub.add_parser("counterexample", parents=[common],
                        help="dyadic-block running means table")
    ce.add_argument("--mmax", type=int)

    vp = sub.add_parser("vp-trace", parents=[common],
                        help="weight trace slope vs the ball-volume constant")
    vp.add_argument("--d", type=int)
    vp.add_argument("--p", type=_p_norm)
    vp.add_argument("--radius", type=float)

    sub.add_parser("equivariance", parents=[common],
                   help="ball averages against the shifted operator")
    sub.add_parser("ergodic", parents=[common],
                   help="disorder-averaged window means")

    fol = sub.add_parser("folner", parents=[common],
                         help="deviation and temperedness tables")
    fol.add_argument("--shape", choices=("cube", "ball", "lacunary"))
    fol.add_argument("--d", type=int)
    fol.add_argument("--schedule", type=_int_list,
                     help="comma-separated set sizes, e.g. 2,4,8,16")
    fol.add_argument("--nmax", type=int)
    return parser


def _apply_threads(n) -> None:
    if n is None:
        return
    if n < 1:
        raise ConfigError("must be >= 1", "threads")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonable(x):
    import numpy as np
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and (x != x or x in (float("inf"), float("-inf"))):
        return repr(x)
    return x


def _meta(cfg: dict) -> dict:
    from .config import config_digest
    return {"tool": "doslab", "version": __version__,
            "config_sha256": config_digest(cfg)}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(v) -> str:
    if isinstance(v, float):
        # plain-float repr: numpy scalars are float subclasses whose repr
        # carries the dtype wrapper
        return repr(float(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _write_csv(path: str, header, rows, cfg: dict, extra: dict | None = None) -> int:
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
            count += 1
    meta = _meta(cfg)
    if extra:
        meta.update(_jsonable(extra))
    _write_json(path + ".meta.json", meta)
    return count


def _load_config(args, schema_name: str, overrides: dict) -> dict:
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", args.config) from None
        except OSError as exc:
            raise ConfigError(str(exc), args.config) from None
        if not isinstance(raw, dict):
            raise ConfigError("top level must be an object", args.config)
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if getattr(args, "out", None):
        raw["out"] = args.out
    from .config import SCHEMAS, validate
    return validate(raw, SCHEMAS[schema_name])


def _space_overrides(args) -> dict | None:
    if args.space_kind is None and args.d is None and args.p is None:
        return None
    space = {"kind": args.space_kind or "lattice"}
    if args.d is not None:
        space["d"] = args.d
    if args.p is not None:
        space["p"] = args.p
    return space


def _space_for(cfg: dict, radius: float, path: str):
    """The config's space, refusing an operator radius it cannot reach."""
    from .config import space_from
    from .spaces import CayleyF2
    space = space_from(cfg["space"])
    if isinstance(space, CayleyF2) and radius > space.MAX_RADIUS:
        raise ConfigError(f"needs a free-group ball of radius {radius:g}, "
                          f"above the maximum {space.MAX_RADIUS}", path)
    return space


# ---------------------------------------------------------------------------
# handlers


def _cmd_space_ladder(args) -> int:
    cfg = _load_config(args, "space-ladder", {
        "space": _space_overrides(args), "kmax": args.kmax,
        "radius": args.radius})
    from .config import space_from
    space = space_from(cfg["space"])
    if cfg["kmax"] is None and cfg["radius"] is None:
        raise ConfigError("either kmax or radius is required", "kmax")
    if cfg["kmax"] is not None:
        ladder = space.radii_ladder(cfg["kmax"], budget=args.budget)
    else:
        ladder = space.ladder_to_radius(cfg["radius"], budget=args.budget)
    print(f"{len(ladder)} levels, {int(ladder.counts[-1])} points within "
          f"r={ladder.radii[-1]:g}")
    if cfg["out"]:
        n = _write_csv(cfg["out"], ("k", "r_k", "ball_count", "shell_count",
                                    "ratio"), ladder.to_rows(), cfg)
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


def _cmd_space_check_c(args) -> int:
    cfg = _load_config(args, "space-check-c", {
        "space": _space_overrides(args), "kmax": args.kmax,
        "threshold": args.threshold})
    from .config import space_from
    from .spaces import condition_c_report
    space = space_from(cfg["space"])
    ladder = space.radii_ladder(cfg["kmax"], budget=args.budget)
    report = condition_c_report(ladder, threshold=cfg["threshold"],
                                tail_fraction=cfg["tail_fraction"])
    print(f"verdict: {report.verdict} (tail mean ratio "
          f"{report.tail_mean_ratio:.4f}, max tail deviation "
          f"{report.max_tail_deviation:.4g})")
    if cfg["out"]:
        _write_json(cfg["out"], {
            **_meta(cfg), "verdict": report.verdict,
            "threshold": report.threshold,
            "tail_fraction": report.tail_fraction,
            "max_tail_deviation": report.max_tail_deviation,
            "min_tail_deviation": report.min_tail_deviation,
            "tail_mean_ratio": report.tail_mean_ratio,
            "trend_maxima": report.trend_maxima,
            "levels": len(ladder)})
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_percolate(args) -> int:
    cfg = _load_config(args, "percolate", {
        "d": args.d, "L": args.L, "p": args.p, "seed": args.seed,
        "tmax": args.tmax, "growth_out": args.growth_out,
        "sample_out": args.sample_out})
    from . import percolation
    from .spaces import condition_c_report
    sample = percolation.percolate_bonds(cfg["d"], cfg["L"], cfg["p"],
                                         cfg["seed"], budget=args.budget)
    cluster = percolation.largest_cluster(sample)
    report = {
        "d": cfg["d"], "L": cfg["L"], "p": cfg["p"], "seed": cfg["seed"],
        "sites": cfg["L"] ** cfg["d"],
        "open_fraction": sample.open_fraction(),
        "cluster_size": cluster.n_nodes,
        "cluster_fraction": cluster.n_nodes / cfg["L"] ** cfg["d"],
        "sample_sha256": percolation.sample_digest(sample),
    }
    if cfg["tmax"] is not None:
        growth = percolation.chemical_ball_growth(cluster, cfg["tmax"])
        report["plateau_stat"] = growth.plateau_stat
        report["plateau_window"] = growth.plateau_window
        ladder = cluster.radii_ladder(cfg["tmax"], budget=args.budget)
        c_rep = condition_c_report(ladder, threshold=cfg["threshold"])
        report["condition_c"] = {
            "verdict": c_rep.verdict, "threshold": c_rep.threshold,
            "max_tail_deviation": c_rep.max_tail_deviation,
            "tail_mean_ratio": c_rep.tail_mean_ratio}
        if cfg["growth_out"]:
            rows = zip(growth.t.tolist(), growth.ball_counts.tolist(),
                       growth.normalized.tolist())
            n = _write_csv(cfg["growth_out"],
                           ("t", "ball_count", "normalized"), rows, cfg,
                           extra={"plateau_stat": growth.plateau_stat,
                                  "plateau_window": growth.plateau_window})
            print(f"wrote {cfg['growth_out']} ({n} rows)")
        print(f"plateau {growth.plateau_stat:.4f}, condition-C "
              f"{c_rep.verdict}")
    print(f"cluster {cluster.n_nodes} of {report['sites']} sites "
          f"({report['cluster_fraction']:.4f})")
    if cfg["sample_out"]:
        percolation.save_sample(sample, cfg["sample_out"])
        print(f"wrote {cfg['sample_out']}")
    if cfg["out"]:
        _write_json(cfg["out"], {**_meta(cfg), **report})
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_dos(args) -> int:
    cfg = _load_config(args, "dos", {})
    from .config import fn_from, hamiltonian_from
    from .dos import dos_approximant
    space = _space_for(cfg, cfg["radii"][-1] + cfg["margin"], "radii")
    est = dos_approximant(space, hamiltonian_from(cfg["hamiltonian"]),
                          fn_from(cfg["g"]), cfg["radii"],
                          margin=cfg["margin"], budget=args.budget)
    print(f"tail mean {est.tail_mean:.6f}, tail spread {est.tail_spread:.2e}"
          f"{' (diverged)' if est.diverged else ''}")
    if cfg["out"]:
        n = _write_csv(cfg["out"], ("r", "ball_count", "average"),
                       est.rows(), cfg,
                       extra={"tail_mean": est.tail_mean,
                              "tail_spread": est.tail_spread,
                              "diverged": est.diverged,
                              "margin": est.margin,
                              "outer_radius": est.outer_radius})
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


def _cmd_ids(args) -> int:
    cfg = _load_config(args, "ids", {})
    from .config import hamiltonian_from
    from .dos import ids_histogram
    space = _space_for(cfg, cfg["radius"], "radius")
    hist = ids_histogram(space, hamiltonian_from(cfg["hamiltonian"]),
                         cfg["radius"], margin=cfg["margin"],
                         budget=args.budget)
    print(f"{hist.n} eigenvalues in [{hist.energies[0]:.4f}, "
          f"{hist.energies[-1]:.4f}]")
    if cfg["out"]:
        rows = zip(hist.energies.tolist(), hist.fractions.tolist())
        n = _write_csv(cfg["out"], ("energy", "fraction"), rows, cfg,
                       extra={"radius": hist.radius, "margin": hist.margin,
                              "count": hist.n})
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


def _measurability_dict(est) -> dict:
    m = est.measurability
    return {"verdict": m.verdict, "slope_drift": m.slope_drift,
            "drift_tol": m.drift_tol, "residual_growth": m.residual_growth,
            "residual_tol": m.residual_tol,
            "half_slopes": list(est.half_slopes)}


def _cmd_dixmier(args) -> int:
    cfg = _load_config(args, "dixmier", {})
    from .config import fn_from, hamiltonian_from, weight_from
    from .dos import dixmier_lhs
    space = _space_for(cfg, cfg["r_outer"], "r_outer")
    ladder = space.ladder_to_radius(cfg["r_outer"], budget=args.budget)
    w = weight_from(cfg["weight"], space, ladder)
    window = tuple(cfg["window"]) if cfg["window"] else None
    est = dixmier_lhs(space, hamiltonian_from(cfg["hamiltonian"]),
                      fn_from(cfg["g"]), w, cfg["r_outer"],
                      budget=args.budget, window=window)
    print(f"slope {est.value:.6f} ({est.measurability.verdict})")
    if cfg["out"]:
        _write_json(cfg["out"], {
            **_meta(cfg), "slope": est.value,
            "window": list(est.fit.window),
            "lam_counts": est.lam_counts, "lam_values": est.lam_values,
            "measurability": _measurability_dict(est)})
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_theorem_check(args) -> int:
    cfg = _load_config(args, "theorem-check", {})
    from .config import fn_from, hamiltonian_from, weight_from
    from .dos import main_theorem_check
    space = _space_for(cfg, cfg["r_outer"], "r_outer")
    ladder = space.ladder_to_radius(cfg["r_outer"], budget=args.budget)
    w = weight_from(cfg["weight"], space, ladder)
    window = tuple(cfg["window"]) if cfg["window"] else None
    check = main_theorem_check(
        space, hamiltonian_from(cfg["hamiltonian"]), fn_from(cfg["g"]), w,
        cfg["r_outer"], margin=cfg["margin"], ladder=ladder,
        budget=args.budget, c_threshold=cfg["tolerance"]["condition_c"],
        window=window)
    tol = cfg["tolerance"]["relative_gap"]
    ok = check.passed(tol)
    print(f"lhs slope {check.lhs_value:.6f}")
    print(f"weight slope {check.weight_fit.slope:.6f} x DOS limit "
          f"{check.rhs_limit:.6f} = {check.product:.6f}")
    print(f"relative gap {check.relative_gap:.4f} (tolerance {tol:g}), "
          f"modulated slope {check.modulated_gap_slope:.4g} "
          f"{'ok' if check.modulated_ok else 'too large'}")
    print(f"measurability: {check.lhs.measurability.verdict}")
    if cfg["out"]:
        _write_json(cfg["out"], {
            **_meta(cfg),
            "passed": ok, "tolerance": tol,
            "relative_gap": check.relative_gap,
            "lhs_slope": check.lhs_value,
            "weight_slope": check.weight_fit.slope,
            "dos_tail_mean": check.rhs_limit,
            "product": check.product,
            "modulated_gap_slope": check.modulated_gap_slope,
            "modulated_scale": check.modulated_scale,
            "modulated_ok": check.modulated_ok,
            "condition_c_verdict": check.condition_c.verdict,
            "measurability": _measurability_dict(check.lhs),
            "r_outer": check.R_outer, "margin": check.margin})
        print(f"wrote {cfg['out']}")
    return 0 if ok else 2


def _cmd_counterexample(args) -> int:
    cfg = _load_config(args, "counterexample", {"mmax": args.mmax})
    from .reference import block_means_report
    report = block_means_report(cfg["mmax"])
    last = report.rows[-1]
    print(f"{len(report.rows)} checkpoints up to n={last.n}; "
          f"log-Cesaro there {last.log_cesaro:.6f}")
    if cfg["out"]:
        rows = ((r.m, r.n, r.cesaro, r.log_cesaro) for r in report.rows)
        n = _write_csv(cfg["out"], ("m", "n", "cesaro", "log_cesaro"), rows,
                       cfg, extra={"mmax": cfg["mmax"]})
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


def _cmd_vp_trace(args) -> int:
    cfg = _load_config(args, "vp-trace", {
        "d": args.d, "p": args.p, "radius": args.radius})
    from .config import space_from
    from .dos import weight_dixmier_trace
    from .hamiltonians import lattice_weight
    from .reference import lp_ball_volume
    space = space_from({"kind": "lattice", "d": cfg["d"], "p": cfg["p"],
                        "base": None})
    ladder = space.ladder_to_radius(cfg["radius"], budget=args.budget)
    w = lattice_weight(space, ladder)
    fit = weight_dixmier_trace(w)
    target = lp_ball_volume(cfg["d"], cfg["p"])
    rel = abs(fit.slope - target) / target
    print(f"slope {fit.slope:.6f}, ball-volume constant {target:.6f}, "
          f"relative error {rel:.4f}")
    if cfg["out"]:
        _write_json(cfg["out"], {
            **_meta(cfg), "d": cfg["d"],
            "p": "inf" if cfg["p"] == float("inf") else cfg["p"],
            "radius": cfg["radius"], "slope": fit.slope,
            "ball_volume": target, "relative_error": rel,
            "terms": int(ladder.counts[-1])})
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_equivariance(args) -> int:
    cfg = _load_config(args, "equivariance", {})
    from .config import fn_from, hamiltonian_from
    from .ergodic import equivariance_check
    space = _space_for(cfg, cfg["radii"][-1] + cfg["margin"], "radii")
    rep = equivariance_check(space, hamiltonian_from(cfg["hamiltonian"]),
                             cfg["shift"], fn_from(cfg["g"]), cfg["radii"],
                             margin=cfg["margin"], budget=args.budget)
    print(f"max diff {rep.max_diff:.3e}, tail diff {rep.tail_diff:.3e}, "
          f"nonincreasing {rep.nonincreasing}")
    if cfg["out"]:
        rows = zip(rep.radii.tolist(), rep.values.tolist(),
                   rep.shifted_values.tolist(), rep.diffs.tolist())
        n = _write_csv(cfg["out"],
                       ("r", "average", "shifted_average", "abs_diff"),
                       rows, cfg,
                       extra={"shift": list(rep.shift),
                              "max_diff": rep.max_diff,
                              "tail_diff": rep.tail_diff,
                              "nonincreasing": rep.nonincreasing})
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


def _cmd_ergodic(args) -> int:
    cfg = _load_config(args, "ergodic", {"seed": args.seed})
    from .config import fn_from, folner_from, hamiltonian_from, space_from
    from .ergodic import ergodic_average
    space = space_from(cfg["space"])
    rep = ergodic_average(space, hamiltonian_from(cfg["hamiltonian"]),
                          fn_from(cfg["g"]), folner_from(cfg["folner"]),
                          cfg["realizations"], cfg["seed"],
                          margin=cfg["margin"], index=cfg["index"],
                          budget=args.budget)
    print(f"mean {rep.mean:.6f}, std {rep.std:.3e}, sem {rep.sem:.3e}, "
          f"{rep.n_within_3std}/{rep.n_realizations} within 3 std")
    if cfg["csv_out"]:
        rows = ((j, rep.seeds[j], float(rep.averages[j]),
                 float(rep.z_scores[j])) for j in range(rep.n_realizations))
        n = _write_csv(cfg["csv_out"],
                       ("realization", "seed", "average", "z_score"), rows,
                       cfg)
        print(f"wrote {cfg['csv_out']} ({n} rows)")
    if cfg["out"]:
        _write_json(cfg["out"], {
            **_meta(cfg), "mean": rep.mean, "std": rep.std, "sem": rep.sem,
            "realizations": rep.n_realizations,
            "n_within_3std": rep.n_within_3std,
            "window_size": rep.window_size,
            "seeds": list(rep.seeds)})
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_folner(args) -> int:
    overrides = {"nmax": args.nmax}
    if args.shape or args.d is not None or args.schedule is not None:
        folner = {}
        if args.shape:
            folner["shape"] = args.shape
        if args.d is not None:
            folner["d"] = args.d
        if args.schedule is not None:
            folner["schedule"] = args.schedule
        overrides["folner"] = folner
    cfg = _load_config(args, "folner", overrides)
    from .config import folner_from
    from .ergodic import folner_tempered_check
    rep = folner_tempered_check(folner_from(cfg["folner"]), n_max=cfg["nmax"],
                                budget=args.budget)
    print(f"{rep.shape} schedule of {len(rep.cardinalities)}: "
          f"temperedness C = {rep.c_estimate:.4f}, last deviation "
          f"{rep.deviations[-1].max():.4g}")
    if cfg["out"]:
        rows = []
        for i, n in enumerate(rep.schedule):
            ratio = "" if i == 0 else repr(float(rep.tempered_ratios[i - 1]))
            rows.append((n, int(rep.cardinalities[i]),
                         float(rep.deviations[i].max()), ratio))
        n = _write_csv(cfg["out"],
                       ("n", "cardinality", "deviation_max",
                        "tempered_ratio"), rows, cfg,
                       extra={"c_estimate": rep.c_estimate,
                              "shape": rep.shape})
        print(f"wrote {cfg['out']} ({n} rows)")
    return 0


_HANDLERS = {
    "percolate": _cmd_percolate,
    "dos": _cmd_dos,
    "ids": _cmd_ids,
    "dixmier": _cmd_dixmier,
    "theorem-check": _cmd_theorem_check,
    "counterexample": _cmd_counterexample,
    "vp-trace": _cmd_vp_trace,
    "equivariance": _cmd_equivariance,
    "ergodic": _cmd_ergodic,
    "folner": _cmd_folner,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "space" and args.space_command is None:
        print("usage: doslab space {ladder,check-c} [options]",
              file=sys.stderr)
        return 1
    try:
        _apply_threads(getattr(args, "threads", None))
        if args.command == "space":
            handler = (_cmd_space_ladder if args.space_command == "ladder"
                       else _cmd_space_check_c)
        else:
            handler = _HANDLERS[args.command]
        return handler(args)
    except (ValueError, BudgetExceeded, PreconditionFailed, NotEstablished,
            OSError) as exc:
        # ValueError covers ConfigError, GraphParseError and the domain
        # checks that need the built objects (too few eigenvalues for the
        # slope window, a window beyond the series)
        print(f"doslab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
