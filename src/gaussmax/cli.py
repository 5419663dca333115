"""Command line front end.

Four subcommands: ``dominate`` solves for the dominating point and its
rates, ``rate`` reports the predicted decay rates along the ladder,
``estimate`` compares estimators at the top rung, and ``verify`` runs
the full ladder and fits empirical decay slopes.  Outputs are plain
JSON (sorted keys) and CSV (fixed header, 17 significant digits), with
no timestamps, so reruns with the same config and seed are
byte-identical.

Exit codes: 0 success, 2 configuration or validation failure, 3 solver
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, check_seed, load_config
from .dominate import DominatingPoint, corner_pairwise, dominating_point, rate_mixture
from .errors import ConfigError, GaussMaxError, SingularPair
from .estimate import (
    IS_MIN_HITS,
    IS_TARGET_RELATIVE_SE,
    EstimateReport,
    Method,
    _log_union_combine,
    _zero_shift_skip,
    exact_block_reports,
    exact_single_log,
    is_cones,
    mc_crude,
    plan_rung,
    slope_fit,
    union_combine,
    union_combined_report,
)
from .model import GaussianMixture, RandomStream
from .sets import Polyhedron

CSV_HEADER = "n,speed,method,p_hat,std_error,log_p_hat,seed"

MARGIN_WARNING = "margin alpha <= 1"
MARGIN_NEAR_ONE = "margin alpha within 1e-9 of 1"


def _g(x: float) -> str:
    return f"{x:.17g}"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'nan', 'inf', '-inf'
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, reports: list[EstimateReport]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    str(r.n),
                    _g(r.scaling_norm_sq),
                    r.method.value,
                    _g(r.p_hat),
                    _g(r.std_error),
                    _g(r.log_p_hat),
                    str(r.seed),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _envelope(config: ExperimentConfig, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "config_digest": config.digest(),
        "seed": seed,
    }


def _solve_warnings(solved) -> list[str]:
    """Warnings every command carries: the margin, and each failed KKT certificate."""
    alpha = solved.margin_alpha
    warnings = []
    if alpha <= 1.0:
        warnings.append(MARGIN_WARNING)
    elif alpha <= 1.0 + 1e-9:
        warnings.append(MARGIN_NEAR_ONE)
    if isinstance(solved, DominatingPoint):
        points = [("x*", solved)]
    else:
        points = [(f"component {c.component} x*", c) for c in solved.per_component]
    for label, point in points:
        if not point.optimality_certificate:
            warnings.append(
                f"{label} fails its KKT certificate (kkt_residual {point.kkt_residual:.3g})"
            )
    return warnings


def _solve(config: ExperimentConfig):
    """``(model, target, solved)``: a DominatingPoint, or a MixtureRate for a mixture."""
    model = config.build_model()
    target = config.build_set()
    limit = config.build_limit()
    if isinstance(model, GaussianMixture):
        return model, target, rate_mixture(target, model, limit)
    return model, target, dominating_point(target, model.covariance, limit)


def run_dominate(config: ExperimentConfig, seed: int, outdir: Path) -> dict:
    model, target, solved = _solve(config)
    payload = _envelope(config, seed)
    payload["margin_pass"] = solved.margin_alpha > 1.0
    payload.update(asdict(solved))
    warnings = _solve_warnings(solved)
    if isinstance(target, Polyhedron) and target.dimension == 2:
        try:
            corner = corner_pairwise(target.constraints, target.offsets)
            discrepancy = float(np.linalg.norm(solved.x_star - corner))
            payload["corner_pairwise"] = corner
            payload["corner_discrepancy"] = discrepancy
            if discrepancy > 1e-6 * float(np.linalg.norm(solved.x_star)):
                warnings.append(
                    "pairwise corner formula disagrees with the quadratic solver"
                )
        except SingularPair as exc:
            payload["corner_pairwise"] = None
            payload["corner_discrepancy"] = None
            warnings.append(f"pairwise corner unavailable: {exc}")
    payload["warnings"] = warnings
    _write_json(outdir / "dominate.json", payload)
    return payload


def run_rate(config: ExperimentConfig, seed: int, outdir: Path) -> dict:
    model, target, solved = _solve(config)
    ladder = config.build_ladder()
    payload = _envelope(config, seed)
    payload.update(
        {
            "speed_definition": "2*log(n)",
            "ladder": [{"n": e.n, "speed": e.speed} for e in ladder.entries()],
            "margin_alpha": solved.margin_alpha,
            "rate_componentwise": solved.rate_componentwise,
            "warnings": _solve_warnings(solved),
        }
    )
    if isinstance(solved, DominatingPoint):
        payload["rate_single"] = solved.rate_single
        payload["x_star"] = solved.x_star
    else:
        payload["argmin_component"] = solved.argmin_component
        payload["per_component"] = [
            {"component": c.component, "quad_value": c.quad_value}
            for c in solved.per_component
        ]
    _write_json(outdir / "rate.json", payload)
    return payload


def run_estimate(config: ExperimentConfig, seed: int, outdir: Path, zero_shift: bool) -> dict:
    model, target, solved = _solve(config)
    entries = config.build_ladder().entries()
    payload = _envelope(config, seed)
    warnings = _solve_warnings(solved)
    root = RandomStream(seed)

    if isinstance(model, GaussianMixture):
        planned = [e for e in entries if plan_rung(model, target, e, config.trials)[0]]
        if planned:
            entry = planned[-1]
            payload.update({"n": entry.n, "speed": entry.speed})
            cw, alo = mc_crude(model, target, entry, config.trials, root.substream(901))
            payload["crude_componentwise"] = asdict(cw)
            payload["crude_at_least_one"] = asdict(alo)
        else:
            warnings.append("no ladder entry fits the crude sampling budget")
        payload["warnings"] = warnings
        _write_json(outdir / "estimate.json", payload)
        return payload

    entry = entries[-1]
    point = entry.scale_diag * solved.x_star
    skip = None if zero_shift else _zero_shift_skip(model, point, config.is_samples, entry.n)
    # The importance-sampled row draws from the top rung's active cone.  The
    # crude counterpart is the plain draw (the cone without rows), weighed
    # on the same draws unless it cannot hit; under --zero-shift it is the
    # importance-sampled row itself.
    rungs = [(entry, not zero_shift)] + [(entry, False)] * (not (skip or zero_shift))
    reports, (record, *_) = is_cones(
        model, target, config.build_limit(), solved.x_star, rungs, config.is_samples,
        root.substream(800),
    )
    is_report = reports[0]
    crude_report = None if skip else reports[-1]
    union_report = union_combined_report(is_report, entry.n, entry.speed)
    warnings += _sampler_warnings("importance sampler", entry.n, is_report, record)

    var_is = is_report.std_error**2 * is_report.trials
    crude_resolved = crude_report is not None and crude_report.p_hat > 0.0
    reduction = None
    if crude_resolved and var_is > 0.0:
        reduction = crude_report.p_hat * (1.0 - crude_report.p_hat) / var_is

    payload.update(
        {
            "n": entry.n,
            "speed": entry.speed,
            "zero_shift": zero_shift,
            "importance_sampled": asdict(is_report),
            "importance_sampling": record,
            "crude_single": None if crude_report is None else asdict(crude_report),
            "union_combined": asdict(union_report),
            "crude_resolved": crude_resolved,
            "variance_reduction_factor": reduction,
            "degenerate_weights": is_report.degenerate_weights,
        }
    )
    if skip:
        payload["crude_skipped"] = skip

    log_q_exact = exact_single_log(model, target, entry)
    if log_q_exact is not None:
        q_exact = math.exp(log_q_exact)
        log_p_exact = _log_union_combine(log_q_exact, entry.n)
        exact = {
            "q_single": q_exact,
            "p_at_least_one": union_combine(q_exact, entry.n),
            "log_q_single": log_q_exact,
            "log_p_at_least_one": log_p_exact,
        }
        relative = {
            "importance_sampled_vs_exact": _relative_error(is_report.log_p_hat, log_q_exact),
            "union_combined_vs_exact": _relative_error(union_report.log_p_hat, log_p_exact),
        }
        if Method.EXACT_BLOCK_DIAGONAL in plan_rung(model, target, entry, config.trials)[0]:
            cw, _ = exact_block_reports(np.diag(model.covariance.sigma), target.corner, entry, seed)
            exact["p_componentwise"] = cw.p_hat
        payload["exact"] = exact
        payload["relative_errors"] = relative
    else:
        payload["exact"] = None
        payload["relative_errors"] = None

    payload["warnings"] = warnings
    _write_json(outdir / "estimate.json", payload)
    return payload


def _relative_error(log_p: float, log_exact: float) -> float:
    """``|p / exact - 1|`` from the logs, so an exact value below double range still compares."""
    gap = log_p - log_exact
    return abs(math.expm1(gap)) if gap < 700.0 else math.inf


def _sampler_warnings(source: str, n: int, single: EstimateReport, record: dict) -> list[str]:
    """The warnings of one importance-sampled row, named after ``source``.

    A degenerate row (no hits, or unusable weights) gets only that
    warning.  Otherwise a ``q_hat`` above 1 warns that rung ``n``'s
    union_combined row reads 1 with standard error 0, and a row that
    stopped at its cap above the stated precision warns with its record.
    """
    hits = record["hits"]
    if single.degenerate_weights:
        if hits == 0:
            return [f"{source} produced no hits (degenerate weights)"]
        return [f"{source}: log-weights of {hits} hits are not finite (degenerate weights)"]
    warnings = []
    if single.p_hat > 1.0:
        warnings.append(
            f"importance sampler at n={n}: q_hat {single.p_hat:.6g} > 1,"
            " union_combined row saturated at 1"
        )
    if not record["target_met"]:
        warnings.append(
            f"{source}: relative SE {record['relative_se']:.3g} with {hits} hits"
            f" at its cap of {record['samples']} samples"
            f" (target {IS_TARGET_RELATIVE_SE:g} with {IS_MIN_HITS} hits)"
        )
    return warnings


# Methods whose ladder probabilities follow the at-least-one event.
_AT_LEAST_ONE_METHODS = {Method.UNION_COMBINED, Method.CRUDE_AT_LEAST_ONE}


def run_verify(config: ExperimentConfig, seed: int, outdir: Path, workers: int) -> dict:
    model, target, solved = _solve(config)
    entries = config.build_ladder().entries()
    methods, skips = zip(*(plan_rung(model, target, e, config.trials) for e in entries))
    root = RandomStream(seed)
    is_rungs = [i for i, plan in enumerate(methods) if Method.IMPORTANCE_SAMPLED_SINGLE in plan]

    def entry_rows(i, entry, plan, pool) -> list[EstimateReport]:
        # In plan order: the exact pair or the IS row, then both crude rows
        # from one pass over the rung's crude stream.
        rows: list[EstimateReport] = []
        if Method.EXACT_BLOCK_DIAGONAL in plan:
            sigma_diag = np.diag(model.covariance.sigma)
            rows += exact_block_reports(sigma_diag, target.corner, entry, seed)
        if i in singles:
            rows.append(union_combined_report(singles[i], entry.n, entry.speed))
        if Method.CRUDE_COMPONENTWISE in plan:
            stream = root.substream(16 * i + 1)
            rows += mc_crude(model, target, entry, config.trials, stream, pool)
        return rows

    # One draw on substream 3, the IS slot of rung 0, weighs every IS rung
    # on its own scaled set, from its own active cone, inline.
    is_entries = [entries[i] for i in is_rungs]
    qs, stats = is_cones(
        model, target, config.build_limit(), solved.x_star,
        [(e, True) for e in is_entries], config.is_samples, root.substream(3),
    )
    singles = dict(zip(is_rungs, qs))
    records = [{"n": e.n, **r} for e, r in zip(is_entries, stats)]
    # Workers share out the sampling chunks of one crude pass; results
    # combine in chunk order, so the rows do not depend on them.
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        rungs = [entry_rows(i, *job, pool) for i, job in enumerate(zip(entries, methods))]
    reports = [r for rows in rungs for r in rows]
    _write_csv(outdir / "verify_ladder.csv", reports)

    summary = _envelope(config, seed)
    summary.update(
        {
            "speed_definition": "2*log(n)",
            "predicted_rate": solved.rate_componentwise,
            "margin_alpha": solved.margin_alpha,
            "workers": workers,
            "ladder": [{"n": e.n, "speed": e.speed} for e in entries],
        }
    )
    skipped = [skip for skip in skips if skip]
    if skipped:
        summary["crude_skipped"] = skipped
    if records:
        summary["importance_sampling"] = records
    warnings = _solve_warnings(solved)
    for i, record in zip(is_rungs, records):
        n = entries[i].n
        warnings += _sampler_warnings(f"importance sampler at n={n}", n, singles[i], record)
    warnings += [
        f"ladder entry n={e.n} does not fit the crude sampling budget"
        for e, plan in zip(entries, methods)
        if not plan
    ]
    product_rate = 0.5 * target.dimension - solved.margin_alpha

    fits = {}
    for method in dict.fromkeys(r.method for r in reports):
        rows = [r for r in reports if r.method is method]
        pts = [(r.scaling_norm_sq, r.log_p_hat) for r in rows if math.isfinite(r.log_p_hat)]
        if not pts:
            warnings.append(f"{method.value}: 0 of {len(rows)} rungs resolved, no slope fit")
            continue
        try:
            fit = slope_fit(pts, solved.rate_componentwise)
        except ValueError as exc:
            fits[method.value] = {"error": str(exc), "points": pts}
            continue
        entry_dict = asdict(fit)
        if method not in _AT_LEAST_ONE_METHODS:
            entry_dict["product_rate"] = product_rate
            if product_rate != 0.0:
                entry_dict["relative_gap_product"] = abs(fit.slope - product_rate) / abs(
                    product_rate
                )
        fits[method.value] = entry_dict
    summary["slope_fits"] = fits

    # An exact rung's rows open with its componentwise and at-least-one pair.
    exact_pairs = [
        rows[:2] for rows, plan in zip(rungs, methods) if Method.EXACT_BLOCK_DIAGONAL in plan
    ]
    if exact_pairs:
        gap_entries = []
        worst = 0.0
        for cw, alo in exact_pairs:
            log_ratio = cw.log_p_hat - alo.log_p_hat
            scaled_gap = log_ratio / math.log(cw.n)
            worst = max(worst, abs(scaled_gap))
            gap_entries.append(
                {"n": cw.n, "log_ratio": log_ratio, "log_ratio_over_log_n": scaled_gap}
            )
        detected = worst > 0.01
        summary["equivalence_gap"] = {
            "entries": gap_entries,
            "gap_detected": detected,
            "max_log_ratio_over_log_n": worst,
        }
        if detected:
            warnings.append(
                "componentwise and at-least-one probabilities differ on the log n scale"
            )
    summary["warnings"] = warnings
    _write_json(outdir / "verify_summary.json", summary)
    return summary


def _prepare(args) -> tuple[ExperimentConfig, int, Path]:
    config = load_config(args.config)
    seed = check_seed(args.seed) if args.seed is not None else config.seed
    outdir = Path(args.out) if args.out else Path(config.outputs)
    return config, seed, outdir


def _cmd_dominate(args) -> int:
    config, seed, outdir = _prepare(args)
    payload = run_dominate(config, seed, outdir)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return 0


def _cmd_rate(args) -> int:
    config, seed, outdir = _prepare(args)
    payload = run_rate(config, seed, outdir)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return 0


def _cmd_estimate(args) -> int:
    config, seed, outdir = _prepare(args)
    run_estimate(config, seed, outdir, args.zero_shift)
    print(f"wrote {outdir / 'estimate.json'}")
    return 0


def _cmd_verify(args) -> int:
    config, seed, outdir = _prepare(args)
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")
    run_verify(config, seed, outdir, args.workers)
    print(f"wrote {outdir / 'verify_ladder.csv'}")
    print(f"wrote {outdir / 'verify_summary.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmax",
        description="Dominating points and decay-rate verification for scaled Gaussian maxima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")

    p_dom = sub.add_parser("dominate", help="solve for the dominating point and rates")
    common(p_dom)
    p_dom.set_defaults(func=_cmd_dominate)

    p_rate = sub.add_parser("rate", help="report predicted decay rates along the ladder")
    common(p_rate)
    p_rate.set_defaults(func=_cmd_rate)

    p_est = sub.add_parser("estimate", help="compare estimators at the top ladder rung")
    common(p_est)
    p_est.add_argument(
        "--zero-shift",
        action="store_true",
        help="draw the importance-sampled row without its cone (reduces IS to crude MC)",
    )
    p_est.set_defaults(func=_cmd_estimate)

    p_ver = sub.add_parser("verify", help="run the ladder and fit empirical decay slopes")
    common(p_ver)
    p_ver.add_argument(
        "--workers", type=int, default=1, help="parallel workers over crude sampling chunks"
    )
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaussMaxError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
