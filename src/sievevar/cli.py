"""Command-line interface: simulate, ci, mc, plot, diag.

Configuration is JSON (schema 1), data interchange is CSV with fixed
column orders, charts are standalone SVG. Exit codes: 0 success, 2 input
or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .delta_infer import IntervalSet, horizon_gate
from .dgp_sim import (
    SamplePath,
    VarmaSpec,
    counterexample_ar,
    default_burn_in,
    default_desk_spec,
    simulate_varma,
)
from .errors import (
    ConfigError,
    EigenvalueError,
    ExperimentError,
    NonFiniteError,
    SieveVarError,
    SingularMatrixError,
    UnstableProcessError,
)
from .mc_harness import (
    ExperimentConfig,
    McSummary,
    check_design,
    coverage_flags,
    interval_sets_for_sample,
    run_experiment,
)
from .sieve_diag import assumption_ratios, tail_norm
from .svgchart import render_mc_chart
from .var_core import MatrixSeq, coeff_seq

SEED_ENV_VAR = "SIEVEVAR_SEED"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MC_RESULT_COLUMNS = ("method", "horizon", "coverage", "avg_length", "replications", "failures")
MC_ENTRY_COLUMNS = ("method", "horizon", "row", "col", "coverage", "avg_length")
CI_COLUMNS = ("method", "horizon", "row", "col", "point", "lower", "upper")


# ---------------------------------------------------------------- config


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing {key!r} in {where}")
    return obj[key]


def _matrix_list(raw, k: int, where: str) -> MatrixSeq:
    if raw is None:
        raw = []
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} is not a numeric matrix list: {exc}") from None
    if arr.size and (arr.ndim != 3 or arr.shape[1:] != (k, k)):
        raise ConfigError(f"{where} must be a list of {k}x{k} matrices")
    return coeff_seq(arr, k)


def parse_varma_spec(obj: dict) -> VarmaSpec:
    """Build a VarmaSpec from its JSON form; see docs/config.md."""
    if not isinstance(obj, dict):
        raise ConfigError("dgp must be an object")
    k = int(_require(obj, "k", "dgp"))
    if k < 1:
        raise ConfigError("dgp.k must be >= 1")
    if "counterexample" in obj:
        ce = obj["counterexample"]
        base = np.asarray(_require(ce, "base", "dgp.counterexample"), dtype=float)
        plan = tuple(
            (int(lag), float(scale))
            for lag, scale in ce.get("plan", [[1, 1.0], [12, 0.2], [14, 0.1]])
        )
        ar = coeff_seq(counterexample_ar(base, plan), k)
    else:
        ar = _matrix_list(obj.get("ar"), k, "dgp.ar")
    ma = _matrix_list(obj.get("ma"), k, "dgp.ma")
    sigma = np.asarray(
        obj.get("sigma_u", np.eye(k).tolist()), dtype=float
    )
    if sigma.shape != (k, k):
        raise ConfigError(f"dgp.sigma_u must be {k}x{k}")
    try:
        return VarmaSpec(k=k, ar=ar, ma=ma, sigma_u=sigma)
    except SieveVarError as exc:
        raise ConfigError(str(exc)) from None


def varma_spec_to_json(spec: VarmaSpec) -> dict:
    return {
        "k": spec.k,
        "ar": [m.tolist() for m in spec.ar.mats],
        "ma": [m.tolist() for m in spec.ma.mats],
        "sigma_u": spec.sigma_u.tolist(),
    }


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema must be {SCHEMA_VERSION}, got {obj.get('schema')!r}"
        )
    return obj


def resolve_seed(flag_value: int | None, config_value=None) -> int:
    """Seed precedence: --seed flag, then SIEVEVAR_SEED, then the config."""
    candidates = (
        ("--seed", flag_value),
        (SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)),
        ("config seed", config_value),
    )
    for origin, value in candidates:
        if value is None:
            continue
        try:
            seed = int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{origin} is not an integer seed: {value!r}") from None
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{origin} must be an unsigned 64-bit integer")
        return seed
    raise ConfigError("no seed provided (use --seed, SIEVEVAR_SEED, or the config)")


def parse_experiment_config(obj: dict, args) -> ExperimentConfig:
    dgp = parse_varma_spec(_require(obj, "dgp", "config"))
    methods = tuple(_require(obj, "methods", "config"))
    workers = args.workers if args.workers is not None else int(obj.get("workers", 1))
    try:
        return ExperimentConfig(
            dgp=dgp,
            t=int(_require(obj, "t", "config")),
            p=int(_require(obj, "p", "config")),
            horizon=int(_require(obj, "horizon", "config")),
            level=float(obj.get("level", 0.95)),
            methods=methods,
            replications=int(_require(obj, "replications", "config")),
            bootstrap_replications=int(obj.get("bootstrap_replications", 300)),
            seed=resolve_seed(args.seed, obj.get("seed")),
            workers=workers,
            burn_in=int(obj["burn_in"]) if "burn_in" in obj else None,
            intercept=bool(obj.get("intercept", False)),
            label=str(obj.get("label", "")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from None


def _desk_preset(t: int, seed: int) -> dict:
    return {
        "schema": 1,
        "label": f"fig2-desk T={t}",
        "dgp": varma_spec_to_json(default_desk_spec()),
        "t": t,
        "p": 10,
        "horizon": 30,
        "level": 0.95,
        "methods": ["LS", "S-LS", "BOOT", "BOOT-db"],
        "replications": 200,
        "bootstrap_replications": 100,
        "seed": seed,
    }


def _counterexample_preset(p: int, seed: int) -> dict:
    desk = default_desk_spec()
    return {
        "schema": 1,
        "label": f"counterexample p={p}",
        "dgp": {
            "k": desk.k,
            "counterexample": {"base": desk.ar.mats[0].tolist()},
            "ma": [m.tolist() for m in desk.ma.mats],
            "sigma_u": desk.sigma_u.tolist(),
        },
        "t": 300,
        "p": p,
        "horizon": 30,
        "level": 0.95,
        "methods": ["LS", "S-LS"],
        "replications": 200,
        "bootstrap_replications": 100,
        "seed": seed,
    }


PRESETS = {
    "fig2-desk": lambda: _desk_preset(300, 20260101),
    "fig2-desk-t1000": lambda: _desk_preset(1000, 20260102),
    "counterex-desk-p10": lambda: _counterexample_preset(10, 20260103),
    "counterex-desk-p30": lambda: _counterexample_preset(30, 20260104),
}


# ---------------------------------------------------------------- CSV I/O


def _fmt(x: float) -> str:
    return repr(float(x))


def read_sample_csv(path: str) -> SamplePath:
    """T x K sample from CSV; a non-numeric first row is treated as a header."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"data file {path} is empty")
    start = 0
    try:
        [float(v) for v in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for n, line in enumerate(lines[start:], start=start + 1):
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: {exc}") from None
    if not rows:
        raise ConfigError(f"data file {path} has no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"data file {path} has ragged rows (widths {sorted(widths)})")
    values = np.asarray(rows)
    return SamplePath(k=values.shape[1], t=values.shape[0], values=values)


def write_sample_csv(path: str, sample: SamplePath) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"y{j + 1}" for j in range(sample.k)) + "\n")
        for row in sample.values:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_interval_csv(path: str, interval_sets: list[IntervalSet]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CI_COLUMNS) + "\n")
        for iv in interval_sets:
            for i, r, c, point, lower, upper in iv.iter_entries():
                fh.write(
                    f"{iv.method},{i},{r},{c},{_fmt(point)},{_fmt(lower)},{_fmt(upper)}\n"
                )


def write_mc_results_csv(path: str, summary: McSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(MC_RESULT_COLUMNS) + "\n")
        for j, method in enumerate(summary.methods):
            for i in range(summary.horizon + 1):
                fh.write(
                    f"{method},{i},{_fmt(summary.coverage[j, i])},"
                    f"{_fmt(summary.avg_length[j, i])},"
                    f"{summary.replications},{summary.failures}\n"
                )


def write_mc_entries_csv(path: str, summary: McSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(MC_ENTRY_COLUMNS) + "\n")
        for j, method in enumerate(summary.methods):
            for i in range(summary.horizon + 1):
                for r in range(summary.k):
                    for c in range(summary.k):
                        fh.write(
                            f"{method},{i},{r},{c},"
                            f"{_fmt(summary.entry_coverage[j, i, r, c])},"
                            f"{_fmt(summary.entry_length[j, i, r, c])}\n"
                        )


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    obj = load_config(args.config)
    spec = parse_varma_spec(_require(obj, "dgp", "config"))
    t = int(_require(obj, "t", "config"))
    burn_in = int(obj.get("burn_in", default_burn_in(spec)))
    seed = resolve_seed(args.seed, obj.get("seed"))
    try:
        spec.validate()
    except UnstableProcessError as exc:
        raise ConfigError(str(exc)) from None
    sample = simulate_varma(spec, t, burn_in, seed)
    write_sample_csv(args.out, sample)
    print(f"wrote {sample.t} x {sample.k} sample to {args.out}")
    return EXIT_OK


def cmd_ci(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    check_design(args.p, args.horizon, args.level, methods, args.bootstrap_replications)
    sample = read_sample_csv(args.data)
    needs_seed = any(m.startswith("BOOT") for m in methods)
    seed = resolve_seed(args.seed) if needs_seed or args.seed is not None else 0
    if "S-LS" in methods:
        extrapolated = [i for i, ok in horizon_gate(args.p, args.horizon) if not ok]
        if extrapolated:
            print(
                f"warning: sieve intervals for horizons {extrapolated[0]}..."
                f"{extrapolated[-1]} exceed the fitted order p={args.p}; "
                "these are extrapolations without asymptotic support",
                file=sys.stderr,
            )
    sets = interval_sets_for_sample(
        sample,
        args.p,
        args.horizon,
        args.level,
        methods,
        args.bootstrap_replications,
        seed,
    )
    write_interval_csv(args.out, [sets[m] for m in methods])
    print(f"wrote intervals for {','.join(methods)} to {args.out}")
    return EXIT_OK


def cmd_mc(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("pass exactly one of a config path or --preset")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        obj = PRESETS[args.preset]()
    else:
        obj = load_config(args.config)
    cfg = parse_experiment_config(obj, args)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = run_experiment(cfg)
    write_mc_results_csv(str(out_dir / "mc_results.csv"), summary)
    write_mc_entries_csv(str(out_dir / "mc_entries.csv"), summary)
    flags = coverage_flags(summary)
    for method, horizon, kind in flags:
        print(f"flag: {method} horizon {horizon} {kind}-covered")
    print(
        f"wrote {out_dir / 'mc_results.csv'} and {out_dir / 'mc_entries.csv'} "
        f"({summary.replications} replications, {summary.failures} failures)"
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        with open(args.results, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            missing = [c for c in ("method", "horizon", "coverage", "avg_length") if c not in fields]
            if missing:
                raise ConfigError(f"{args.results} lacks columns {missing}")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.results}: {exc}") from None
    if not rows:
        raise ConfigError(f"{args.results} has no data rows")
    svg = render_mc_chart(rows, p=args.p, level=args.level, title=args.title)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg + "\n")
    print(f"wrote chart to {args.out}")
    return EXIT_OK


def cmd_diag(args) -> int:
    report = assumption_ratios(args.p, args.t, alpha=args.alpha)
    blob = dataclasses.asdict(report)
    print(f"fitted order p = {report.p}, sample size T = {report.t}")
    print(f"p^3 / T = {report.ratio_p3_t:.6g} (should be small)")
    print(
        f"log rule p <= 3 log(T) = {3 * math.log(report.t):.2f}: "
        f"{'ok' if report.log_rule_ok else 'VIOLATED'}"
    )
    if args.alpha is not None:
        print(
            f"decay alpha = {args.alpha}: need p >= {report.min_log_coefficient:.3f}"
            f" * log(T) = {report.min_log_coefficient * math.log(report.t):.2f}: "
            f"{'ok' if report.alpha_rule_ok else 'VIOLATED'}"
        )
        if args.tail_constant is not None:
            tn = tail_norm(args.p, args.t, c=args.tail_constant, alpha=args.alpha)
            blob["tail_norm"] = tn
            print(f"sqrt(T) geometric coefficient tail beyond p: {tn:.6g}")
    print(json.dumps(blob, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievevar",
        description="Sieve and finite-order VAR impulse-response inference",
    )
    parser.add_argument("--version", action="version", version=f"sievevar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a VARMA sample to CSV")
    p_sim.add_argument("config", help="JSON config with dgp, t, optional burn_in/seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ci = sub.add_parser("ci", help="fit a VAR(p) and write IRF confidence intervals")
    p_ci.add_argument("data", help="input sample CSV (T rows, K columns)")
    p_ci.add_argument("--p", type=int, required=True, help="lag order")
    p_ci.add_argument("--H", dest="horizon", type=int, required=True, help="max horizon")
    p_ci.add_argument("--level", type=float, default=0.95)
    p_ci.add_argument("--methods", default="LS,S-LS", help="comma list: LS,S-LS,BOOT,BOOT-db")
    p_ci.add_argument("--M", dest="bootstrap_replications", type=int, default=300)
    p_ci.add_argument("--seed", type=int, default=None)
    p_ci.add_argument("--out", required=True, help="output irf_ci.csv path")
    p_ci.set_defaults(func=cmd_ci)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo coverage experiment")
    p_mc.add_argument("config", nargs="?", default=None, help="JSON experiment config")
    p_mc.add_argument("--preset", default=None, help=f"one of {sorted(PRESETS)}")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--workers", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.set_defaults(func=cmd_mc)

    p_plot = sub.add_parser("plot", help="render mc_results.csv to a two-panel SVG")
    p_plot.add_argument("results", help="mc_results.csv path")
    p_plot.add_argument("--p", type=int, required=True, help="fitted order marker")
    p_plot.add_argument("--level", type=float, default=0.95)
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    p_diag = sub.add_parser("diag", help="growth-condition diagnostics for (p, T)")
    p_diag.add_argument("--p", type=int, required=True)
    p_diag.add_argument("--T", dest="t", type=int, required=True)
    p_diag.add_argument("--alpha", type=float, default=None, help="geometric decay rate")
    p_diag.add_argument("--C", dest="tail_constant", type=float, default=None)
    p_diag.set_defaults(func=cmd_diag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularMatrixError, EigenvalueError, ExperimentError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SieveVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
