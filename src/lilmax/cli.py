"""Command-line front end.

Subcommands
  simulate          run a Monte Carlo experiment from a config file
  shift-experiment  deterministic shift driver table plus median comparison
  tightness-probe   qualitative escape-of-mass probe at growing horizons
  integral-test     boundary-series classifier against the partial-sum probe
  tail-bounds       tail inequality and density-ratio verification tables
  validate          truncation growth-window and tail-condition validators
  replay            re-execute one replication and diff against a stored CSV

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure
(including a replay mismatch).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .harness import (
    ConfigError,
    ExperimentConfig,
    append_jsonl,
    build_normalizer,
    config_number,
    config_numbers,
    experiment_from_parser,
    load_config_parser,
    read_law,
    read_records_csv,
    read_scheme,
    read_section,
    record_row,
    reference_from_parser,
    replicate,
    run_experiment,
    run_pair,
)
from .iterlog import normalizers
from .limits import (
    PhiFamily,
    aniso_chisq_density_ratio,
    chi_tail_envelope,
    gaussian_norm_tail_bound,
    integral_test_classify,
    integral_test_partial_sums,
)
from .models import gaussian_iso, law_id, radial_profile
from .truncation import (
    scheme_id,
    sqrt_n,
    sqrt_n_invLL5,
    sqrt_n_polylog,
    validate_growth_window,
    validate_tail_condition,
)

DEFAULT_OUT = "runs"
_DRIVER_GRID = tuple(10**j for j in range(2, 9))
_PROBE_HORIZONS = (10_000, 100_000, 1_000_000)
_PROBE_Y = (-4.0, -2.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _parser_from_args(args):
    seed = [] if args.seed is None else [f"experiment.master_seed={args.seed}"]
    return load_config_parser(args.config, [*(args.set or []), *seed])


def _experiment_pair(args) -> tuple[ExperimentConfig, Optional[ExperimentConfig]]:
    cp = _parser_from_args(args)
    cfg = experiment_from_parser(cp)
    ref = reference_from_parser(cp, cfg)
    return cfg, ref


def _out_dir(args) -> str:
    path = args.out or DEFAULT_OUT
    os.makedirs(path, exist_ok=True)
    return path


def _emit(args, payload: dict) -> None:
    append_jsonl(payload, os.path.join(_out_dir(args), "summary.jsonl"))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg, ref = _experiment_pair(args)
    ref_summary, summary = run_pair(cfg, ref, _out_dir(args), args.threads)
    if ref_summary is not None:
        print(
            f"reference {ref.name}: ks_gumbel={ref_summary['ks_gumbel']:.4f}",
            f"median={ref_summary['quantiles']['q50']:.4f}",
        )
    line = (
        f"experiment {cfg.name}: mode={cfg.mode} d={cfg.d} n={cfg.n} "
        f"R={cfg.replications} ks_gumbel={summary['ks_gumbel']:.4f} "
        f"median={summary['quantiles']['q50']:.4f}"
    )
    if "ks_two_sample" in summary:
        line += f" ks_two_sample={summary['ks_two_sample']:.4f}"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# shift-experiment
# ---------------------------------------------------------------------------


def shift_driver_table(law, ns: Sequence[int]) -> list[dict]:
    """Deterministic centering drift (1 - sigma_n) * b_n on a horizon grid.

    sigma_n is the standard deviation retained after truncating the law at
    sqrt(n); with no law (the degenerate zero-shift case) the drift is 0.
    """
    rows = []
    for n in ns:
        if law is None:
            sigma = 1.0
        else:
            sigma = float(np.sqrt(radial_profile(law, float(np.sqrt(n)))))
        b = normalizers(int(n), 1).b_dn
        rows.append(
            {"n": int(n), "sigma_n": sigma, "driver": (1.0 - sigma) * b}
        )
    return rows


def cmd_shift_experiment(args) -> int:
    cp = _parser_from_args(args)
    law_map = read_section(cp, "experiment.law")
    if law_map.get("family") != "atom_ladder":
        raise ConfigError("shift-experiment requires an atom_ladder increment law")
    c = config_number(law_map, "c", 0.5)
    grid = config_numbers(read_section(cp, "shift"), "n_grid", _DRIVER_GRID, whole=True)
    if min(grid) < 1:
        raise ConfigError(f"shift.n_grid: horizons must be >= 1, got {grid}")

    if c == 0.0:
        rows = shift_driver_table(None, grid)
        print("degenerate c=0 ladder: driver is identically 0, skipping Monte Carlo")
        for row in rows:
            print(f"  n={row['n']:>10d}  sigma_n={row['sigma_n']:.6f}  driver={row['driver']:.6f}")
        _emit(args, {"command": "shift-experiment", "c": 0.0, "driver": rows})
        return 0

    cfg = experiment_from_parser(cp)
    if cfg.mode != "classical":
        raise ConfigError("shift-experiment measures the classical statistic")
    ref = reference_from_parser(cp, cfg)
    if ref is None:
        raise ConfigError("shift-experiment needs a [reference] section for the median comparison")

    rows = shift_driver_table(cfg.law, grid)
    print(f"shift driver for c={c} (target: driver -> c):")
    for row in rows:
        print(f"  n={row['n']:>10d}  sigma_n={row['sigma_n']:.6f}  driver={row['driver']:.6f}")

    ref_summary, summary = run_pair(cfg, ref, _out_dir(args), args.threads)
    median = summary["quantiles"]["q50"]
    ref_median = ref_summary["quantiles"]["q50"]
    payload = {
        "command": "shift-experiment",
        "c": c,
        "driver": rows,
        "median": median,
        "reference_median": ref_median,
        "median_gap": median - ref_median,
        "median_below_reference": bool(median < ref_median),
        "ks_two_sample": summary.get("ks_two_sample"),
    }
    print(
        f"median={median:.4f} reference_median={ref_median:.4f} "
        f"gap={median - ref_median:+.4f} (downward shift expected)"
    )
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# tightness-probe
# ---------------------------------------------------------------------------


def _horizon_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(777_000 + index,))
    return int(ss.generate_state(2, np.uint64)[0])


def probe_exceedance(cfg: ExperimentConfig, horizons, y_grid, threads=1) -> list[dict]:
    """Exceedance frequencies of the classical statistic at each horizon."""
    rows = []
    for i, horizon in enumerate(horizons):
        sub = replace(
            cfg,
            name=f"{cfg.name}_h{int(horizon)}",
            mode="classical",
            n=int(horizon),
            master_seed=_horizon_seed(cfg.master_seed, i),
        )
        values = np.array([r.value for r in run_experiment(sub, threads=threads)])
        freqs = {str(y): float(np.mean(values > y)) for y in y_grid}
        rows.append(
            {"n": int(horizon), "median": float(np.median(values)), "frequencies": freqs}
        )
    return rows


def cmd_tightness_probe(args) -> int:
    cp = _parser_from_args(args)
    law_map = read_section(cp, "experiment.law")
    if law_map.get("family") != "atom_ladder_fat":
        raise ConfigError(
            "tightness-probe requires the atom_ladder_fat increment law "
            "(tight families have nothing to show here)"
        )
    cfg = experiment_from_parser(cp)
    probe_sec = read_section(cp, "probe")
    horizons = config_numbers(probe_sec, "horizons", _PROBE_HORIZONS, whole=True)
    if min(horizons) < 1:
        raise ConfigError(f"probe.horizons: horizons must be >= 1, got {horizons}")
    y_grid = config_numbers(probe_sec, "y_grid", _PROBE_Y)
    rows = probe_exceedance(cfg, horizons, y_grid, threads=args.threads)
    print(f"exceedance frequencies of the centered max, R={cfg.replications}:")
    header = "  ".join(f"P(>{y:g})" for y in y_grid)
    print(f"  {'n':>10s}  {'median':>8s}  {header}")
    for row in rows:
        cells = "  ".join(f"{row['frequencies'][str(y)]:.4f}" for y in y_grid)
        print(f"  {row['n']:>10d}  {row['median']:>8.3f}  {cells}")
    drift = rows[-1]["median"] < rows[0]["median"]
    print(
        "mass drifts downward across horizons (median falls)"
        if drift
        else "no downward median drift at these horizons"
    )
    print("qualitative probe only: no pass/fail judgement is made")
    _emit(
        args,
        {
            "command": "tightness-probe",
            "law": law_id(cfg.law),
            "replications": cfg.replications,
            "horizons": horizons,
            "y_grid": y_grid,
            "rows": rows,
            "drift_downward": bool(drift),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# integral-test
# ---------------------------------------------------------------------------


def cmd_integral_test(args) -> int:
    cp = _parser_from_args(args)
    sec = read_section(cp, "integral")
    a, b = config_number(sec, "a", 4.0), config_number(sec, "b", 0.0)
    d = config_number(sec, "d", 1, whole=True)
    n_max = config_number(sec, "n_max", 10**9, whole=True)
    if not 10**5 <= n_max <= 10**9:
        raise ConfigError(f"integral.n_max must be between 1e5 and 1e9, got {n_max}")
    try:
        phi = PhiFamily(a=a, b=b, d=d)
        phi.squared(1.0)  # 2 + a + b up to e^e, where every log floors
    except ValueError as exc:
        raise ConfigError(f"bad integral section: {exc}") from exc
    verdict = integral_test_classify(phi)
    probe = integral_test_partial_sums(phi, n_max=n_max)
    agree = "PASS" if probe.verdict == verdict else "FAIL"
    print(f"boundary {phi.label()}")
    print(f"  classifier: {verdict}")
    print(
        f"  probe:      {probe.verdict} "
        f"(slope_linear={probe.slope_linear:+.3f}, slope_loglog={probe.slope_loglog:+.3f}, "
        f"tail_increment={probe.tail_increment:.3e})"
    )
    print(f"  agreement:  {agree}")
    _emit(
        args,
        {
            "command": "integral-test",
            "a": phi.a,
            "b": phi.b,
            "d": phi.d,
            "classifier": verdict,
            "probe_verdict": probe.verdict,
            "slope_linear": probe.slope_linear,
            "slope_loglog": probe.slope_loglog,
            "partial_sum_at_n_max": float(probe.partial_sums[-1]),
            "em_validation_rel": probe.em_validation_rel,
            # an overflowed increment is null: json.dumps would write the
            # non-standard token Infinity
            "tail_increment": (
                probe.tail_increment if np.isfinite(probe.tail_increment) else None
            ),
            "agreement": agree,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# tail-bounds
# ---------------------------------------------------------------------------


def cmd_tail_bounds(args) -> int:
    cp = _parser_from_args(args)
    sec = read_section(cp, "tails")
    sigmas = config_numbers(sec, "sigmas", [round(0.1 * j, 1) for j in range(1, 10)])
    if not all(0.0 < sigma < 1.0 for sigma in sigmas):
        raise ConfigError(f"tails.sigmas must lie in (0, 1), got {sec['sigmas']!r}")
    checks = []

    for d in (1, 2, 3):
        grid = np.linspace(2.0 * d, 12.0, 200)
        env = chi_tail_envelope(d, grid)
        ok = 0.0 < env.c1_hat <= env.c2_hat < float("inf")
        if d == 2:
            ok = ok and abs(env.c1_hat - 1.0) < 1e-12 and abs(env.c2_hat - 1.0) < 1e-12
        checks.append(
            {
                "check": f"norm-tail envelope d={d}",
                "result": "PASS" if ok else "FAIL",
                "c1_hat": env.c1_hat,
                "c2_hat": env.c2_hat,
            }
        )

    b = gaussian_norm_tail_bound(4.0, trace=1.0, sigma2_max=1.0)
    ok = abs(b.bound_sigma - float(np.exp(-2.0))) < 1e-12 and b.sigma_applicable
    checks.append(
        {
            "check": "norm tail bound reference point x=4, trace=1",
            "result": "PASS" if ok else "FAIL",
            "bound_sigma": b.bound_sigma,
            "bound_trace": b.bound_trace,
        }
    )

    z = np.geomspace(0.01, 100.0, 80)
    for sigma in sigmas:
        rep = aniso_chisq_density_ratio(float(sigma), z)
        ok = rep.max_ratio <= rep.bound + 1e-9
        checks.append(
            {
                "check": f"density ratio sigma={sigma:g}",
                "result": "PASS" if ok else "FAIL",
                "max_ratio": rep.max_ratio,
                "bound": rep.bound,
            }
        )

    width = max(len(c["check"]) for c in checks)
    for c in checks:
        detail = ", ".join(
            f"{k}={v:.6g}" for k, v in c.items() if k not in ("check", "result")
        )
        print(f"  {c['check']:<{width}s}  {c['result']}  ({detail})")
    _emit(args, {"command": "tail-bounds", "checks": checks})
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    cp = _parser_from_args(args)
    law = read_law(cp, "experiment") if cp.has_section("experiment.law") else gaussian_iso(1)
    scheme = read_scheme(cp, "experiment")
    if scheme is not None:
        schemes = {scheme_id(scheme): scheme}
    else:
        built_ins = (sqrt_n(), sqrt_n_invLL5(), sqrt_n_polylog(1.0))
        schemes = {scheme_id(s): s for s in built_ins}
    n_grid = np.geomspace(1e2, 1e8, 13)
    t_grid = np.geomspace(10.0, 1e6, 11)
    rows = []
    for name, sch in schemes.items():
        grid = n_grid
        if sch.family == "table":
            # only the grid points whose level c_{n v n0} the table holds
            grid = n_grid[np.maximum(n_grid, sch.n0) <= len(sch.levels)]
            if len(grid) < 2:
                need = max(sch.n0, math.ceil(n_grid[1]))
                raise ConfigError(
                    f"table scheme has {len(sch.levels)} levels; the growth-window "
                    f"grid needs at least {need} to cover two of its points"
                )
        rep = validate_growth_window(sch, grid)
        rows.append({"check": f"growth window {name}", "result": rep.verdict})
        print(f"  growth window {name:<24s} {rep.verdict}")
    for which in ("small_o", "big_O"):
        rep = validate_tail_condition(law, which, t_grid)
        rows.append(
            {
                "check": f"tail condition {which} {rep.law}",
                "result": rep.verdict,
                "limit_estimate": rep.limit_estimate,
            }
        )
        print(
            f"  tail condition {which:<8s} {rep.law:<28s} {rep.verdict} "
            f"(limit estimate {rep.limit_estimate:.4g})"
        )
    _emit(args, {"command": "validate", "rows": rows})
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args) -> int:
    cfg, _ = _experiment_pair(args)
    out = args.out or DEFAULT_OUT
    csv_path = os.path.join(out, f"{cfg.name}.csv")
    rows = read_records_csv(csv_path)
    index = args.replication
    if not (0 <= index < len(rows)):
        raise ConfigError(
            f"replication {index} out of range: {csv_path} has {len(rows)} rows"
        )
    fresh = record_row(index, replicate(cfg, build_normalizer(cfg), index))
    stored = ",".join(
        rows[index][col] for col in
        ("replication_index", "mode", "value", "argmax_k", "n", "d", "seed")
    )
    if fresh == stored:
        print(f"replay OK: replication {index} of {cfg.name} reproduces bit for bit")
        return 0
    print(f"replay MISMATCH for replication {index} of {cfg.name}:")
    print(f"  stored:     {stored}")
    print(f"  recomputed: {fresh}")
    return 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lilmax",
        description="Simulation and verification laboratory for iterated-logarithm "
        "extremes of normalized random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required: bool):
        p.add_argument(
            "--config",
            required=config_required,
            default=None,
            help="INI config file (see configs/ for schema examples)",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config value, e.g. experiment.n=100000",
        )
        p.add_argument("--out", default=None, help=f"output directory (default {DEFAULT_OUT})")
        p.add_argument("--threads", type=int, default=1, help="worker threads (speed only)")
        p.add_argument("--seed", type=int, default=None, help="override experiment.master_seed")

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    common(p, config_required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("shift-experiment", help="centering-shift driver and medians")
    common(p, config_required=True)
    p.set_defaults(func=cmd_shift_experiment)

    p = sub.add_parser("tightness-probe", help="escape-of-mass probe at growing horizons")
    common(p, config_required=True)
    p.set_defaults(func=cmd_tightness_probe)

    p = sub.add_parser("integral-test", help="boundary-series convergence verdicts")
    common(p, config_required=False)
    p.set_defaults(func=cmd_integral_test)

    p = sub.add_parser("tail-bounds", help="tail inequality verification tables")
    common(p, config_required=False)
    p.set_defaults(func=cmd_tail_bounds)

    p = sub.add_parser("validate", help="truncation and tail-condition validators")
    common(p, config_required=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay", help="re-execute one replication and diff the CSV")
    common(p, config_required=True)
    p.add_argument("--replication", type=int, default=0, help="row index to replay")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and codes
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
