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
    DEFAULT_COUNTEREXAMPLE_PLAN,
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
)
from .mc_harness import (
    METHODS,
    ExperimentConfig,
    McSummary,
    check_design,
    check_sizes,
    coverage_flags,
    interval_sets_for_sample,
    run_experiment,
)
from .sieve_diag import LOG_RULE_CONSTANT, assumption_ratios, tail_norm
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

_NUMBER = (int, float)


# ---------------------------------------------------------------- config


# the keys `simulate` and `mc` read: either command takes a whole preset
CONFIG_KEYS = frozenset({
    "schema", "label", "dgp", "t", "p", "horizon", "level", "methods", "replications",
    "bootstrap_replications", "seed", "workers", "burn_in", "intercept",
})
DGP_KEYS = frozenset({"k", "ar", "ma", "sigma_u", "counterexample"})
COUNTEREXAMPLE_KEYS = frozenset({"base", "plan"})


def _known_keys(obj: dict, known: frozenset, where: str) -> None:
    """Refuse a key that nothing reads, so that a misspelt one cannot fall back to a default."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; known: {sorted(known)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing {key!r} in {where}")
    return obj[key]


def _typed(value, name: str, kind, what: str):
    """``value`` itself if it is a ``kind``; JSON true and false count only as bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _whole(value, name: str) -> int:
    """``value`` as an int: a JSON integer, or a float with an integral value."""
    if isinstance(_typed(value, name, _NUMBER, "a whole number"), float) and not value.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _numbers(raw, name: str, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; a string, boolean or null entry is refused."""
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            _typed(item, name, _NUMBER, what)
    try:
        return np.asarray(raw, dtype=float)
    except ValueError:
        raise ConfigError(f"{name} must be {what}") from None


def _matrix_list(raw, k: int, where: str) -> MatrixSeq:
    what = f"a list of numeric {k}x{k} matrices"
    arr = _numbers([] if raw is None else raw, where, what)
    if arr.size and (arr.ndim != 3 or arr.shape[1:] != (k, k)):
        raise ConfigError(f"{where} must be {what}")
    return coeff_seq(arr, k)


def parse_varma_spec(obj: dict) -> VarmaSpec:
    """Build a VarmaSpec from its JSON form; see docs/config.md."""
    if not isinstance(obj, dict):
        raise ConfigError("dgp must be an object")
    _known_keys(obj, DGP_KEYS, "dgp")
    try:
        k = _whole(_require(obj, "k", "dgp"), "dgp.k")
        if k < 1:
            raise ConfigError("dgp.k must be >= 1")
        if "counterexample" in obj:
            ce = obj["counterexample"]
            if not isinstance(ce, dict):
                raise ConfigError("dgp.counterexample must be an object")
            _known_keys(ce, COUNTEREXAMPLE_KEYS, "dgp.counterexample")
            base = _numbers(
                _require(ce, "base", "dgp.counterexample"),
                "dgp.counterexample.base",
                "a numeric square matrix",
            )
            where = "dgp.counterexample.plan"
            plan = tuple(
                (_whole(lag, f"{where} lag"), _typed(scale, f"{where} scale", _NUMBER, "a number"))
                for lag, scale in ce.get("plan", DEFAULT_COUNTEREXAMPLE_PLAN)
            )
            ar = coeff_seq(counterexample_ar(base, plan), k)
        else:
            ar = _matrix_list(obj.get("ar"), k, "dgp.ar")
        ma = _matrix_list(obj.get("ma"), k, "dgp.ma")
        what = f"a numeric {k}x{k} matrix"
        sigma = _numbers(obj.get("sigma_u", np.eye(k).tolist()), "dgp.sigma_u", what)
        if sigma.shape != (k, k):
            raise ConfigError(f"dgp.sigma_u must be {what}")
        return VarmaSpec(k=k, ar=ar, ma=ma, sigma_u=sigma)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed dgp: {exc}") from None
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
    _known_keys(obj, CONFIG_KEYS, "config")
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
        if origin == SEED_ENV_VAR:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"{origin} is not an integer seed: {value!r}") from None
        seed = _whole(value, origin)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{origin} must be an unsigned 64-bit integer")
        return seed
    raise ConfigError("no seed provided (use --seed, SIEVEVAR_SEED, or the config)")


def parse_experiment_config(obj: dict, args) -> ExperimentConfig:
    dgp = parse_varma_spec(_require(obj, "dgp", "config"))
    methods = _typed(_require(obj, "methods", "config"), "methods", list, "a list of method names")
    workers = args.workers if args.workers is not None else _whole(obj.get("workers", 1), "workers")
    intercept = _typed(obj.get("intercept", False), "intercept", bool, "true or false")
    try:
        return ExperimentConfig(
            dgp=dgp,
            t=_whole(_require(obj, "t", "config"), "t"),
            p=_whole(_require(obj, "p", "config"), "p"),
            horizon=_whole(_require(obj, "horizon", "config"), "horizon"),
            level=_typed(obj.get("level", 0.95), "level", _NUMBER, "a number"),
            methods=tuple(methods),
            replications=_whole(_require(obj, "replications", "config"), "replications"),
            bootstrap_replications=_whole(
                obj.get("bootstrap_replications", 300), "bootstrap_replications"
            ),
            seed=resolve_seed(args.seed, obj.get("seed")),
            workers=workers,
            burn_in=_whole(obj["burn_in"], "burn_in") if "burn_in" in obj else None,
            intercept=intercept,
            label=_typed(obj.get("label", ""), "label", str, "a string"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from None


def _preset(label: str, dgp: dict, t: int, p: int, methods: list[str], seed: int) -> dict:
    return {
        "schema": 1,
        "label": label,
        "dgp": dgp,
        "t": t,
        "p": p,
        "horizon": 30,
        "level": 0.95,
        "methods": methods,
        "replications": 200,
        "bootstrap_replications": 100,
        "seed": seed,
    }


def _desk_preset(t: int, seed: int) -> dict:
    dgp = varma_spec_to_json(default_desk_spec())
    return _preset(f"fig2-desk T={t}", dgp, t, 10, ["LS", "S-LS", "BOOT", "BOOT-db"], seed)


def _counterexample_preset(p: int, seed: int) -> dict:
    dgp = varma_spec_to_json(default_desk_spec())
    dgp["counterexample"] = {"base": dgp.pop("ar")[0]}
    return _preset(f"counterexample p={p}", dgp, 300, p, ["LS", "S-LS"], seed)


PRESETS = {
    "fig2-desk": lambda: _desk_preset(300, 20260101),
    "fig2-desk-t1000": lambda: _desk_preset(1000, 20260102),
    "counterex-desk-p10": lambda: _counterexample_preset(10, 20260103),
    "counterex-desk-p30": lambda: _counterexample_preset(30, 20260104),
}


# ---------------------------------------------------------------- CSV I/O


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_sample_csv(path: str) -> SamplePath:
    """T x K sample from CSV; a first row with no numeric field is a header.

    A first row that mixes numbers and text is refused like any other
    malformed row, not dropped as a header.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"data file {path} is empty")
    start = 0 if any(_is_number(v) for v in lines[0].split(",")) else 1
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


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_table(path: str, columns, rows) -> None:
    """Header, then one line per row of Python scalars.

    ``str`` of a Python float is its shortest round-trip form.
    """
    lines = [",".join(columns)] + [",".join(map(str, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _rows(label: str, arrays, tail=()) -> list[tuple]:
    """(label, *index, *values, *tail) per index of the equally shaped arrays, row-major."""
    values = np.stack(arrays, axis=-1).reshape(-1, len(arrays)).tolist()
    return [(label, *idx, *v, *tail) for idx, v in zip(np.ndindex(arrays[0].shape), values)]


def write_sample_csv(path: str, sample: SamplePath) -> None:
    _write_table(path, [f"y{j + 1}" for j in range(sample.k)], sample.values.tolist())


def write_interval_csv(path: str, interval_sets: list[IntervalSet]) -> None:
    _write_table(path, CI_COLUMNS, [
        row for iv in interval_sets for row in _rows(iv.method, (iv.points, iv.lowers, iv.uppers))
    ])


def write_mc_results_csv(path: str, summary: McSummary) -> None:
    counts = (summary.replications, summary.failures)
    _write_table(path, MC_RESULT_COLUMNS, [
        row
        for j, method in enumerate(summary.methods)
        for row in _rows(method, (summary.coverage[j], summary.avg_length[j]), counts)
    ])


def write_mc_entries_csv(path: str, summary: McSummary) -> None:
    _write_table(path, MC_ENTRY_COLUMNS, [
        row
        for j, method in enumerate(summary.methods)
        for row in _rows(method, (summary.entry_coverage[j], summary.entry_length[j]))
    ])


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    obj = load_config(args.config)
    spec = parse_varma_spec(_require(obj, "dgp", "config"))
    t = _whole(_require(obj, "t", "config"), "t")
    burn_in = _whole(obj.get("burn_in", default_burn_in(spec)), "burn_in")
    check_sizes(t, burn_in)
    seed = resolve_seed(args.seed, obj.get("seed"))
    sample = simulate_varma(spec, t, burn_in, seed)
    write_sample_csv(args.out, sample)
    print(f"wrote {sample.t} x {sample.k} sample to {args.out}")
    return EXIT_OK


def cmd_ci(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    check_design(args.p, args.horizon, args.level, methods, args.bootstrap_replications)
    sample = read_sample_csv(args.data)
    needs_seed = any(METHODS[m] is None for m in methods)
    seed = resolve_seed(args.seed) if needs_seed or args.seed is not None else 0
    extrapolated = [i for i, ok in horizon_gate(args.p, args.horizon) if not ok]
    if "S-LS" in methods and extrapolated:
        first, last = extrapolated[0], extrapolated[-1]
        span = f"horizons {first}...{last}" if last > first else f"horizon {first}"
        print(
            f"warning: sieve intervals for {span} exceed the fitted order p={args.p}; "
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
    # check the directory can be made now, but make it only once there is something to write
    ancestor = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not ancestor.is_dir() or not os.access(ancestor, os.W_OK):
        raise ConfigError(f"cannot write {out_dir}: {ancestor} is not a writable directory")
    summary = run_experiment(cfg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    write_mc_results_csv(str(out_dir / "mc_results.csv"), summary)
    write_mc_entries_csv(str(out_dir / "mc_entries.csv"), summary)
    for method, horizon, kind in coverage_flags(summary):
        print(f"flag: {method} horizon {horizon} {kind}-covered")
    print(
        f"wrote {out_dir / 'mc_results.csv'} and {out_dir / 'mc_entries.csv'} "
        f"({summary.replications} replications, {summary.failures} failures)"
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.p < 1:
        raise ConfigError("--p must be >= 1")
    if not 0.0 < args.level < 1.0:
        raise ConfigError("--level must be in (0, 1)")
    try:
        with open(args.results, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            missing = [c for c in MC_RESULT_COLUMNS if c not in fields]
            if missing:
                raise ConfigError(f"{args.results} lacks columns {missing}")
            rows, seen = [], set()
            for row in reader:
                where = f"{args.results}:{reader.line_num}"
                # a short row fills its missing fields with None, a long one files extras under None
                if None in row or None in row.values():
                    raise ConfigError(f"{where}: expected {len(fields)} fields")
                try:
                    horizon = int(row["horizon"])
                    coverage, length = float(row["coverage"]), float(row["avg_length"])
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                if not (math.isfinite(coverage) and math.isfinite(length)):
                    raise ConfigError(f"{where}: coverage and avg_length must be finite")
                if horizon < 0:
                    raise ConfigError(f"{where}: horizon must be >= 0")
                if not 0.0 <= coverage <= 1.0:
                    raise ConfigError(f"{where}: coverage must be in [0, 1]")
                if length < 0.0:
                    raise ConfigError(f"{where}: avg_length must be >= 0")
                if (row["method"], horizon) in seen:
                    raise ConfigError(f"{where}: repeats method {row['method']} at horizon {horizon}")
                seen.add((row["method"], horizon))
                rows.append(
                    dict(method=row["method"], horizon=horizon, coverage=coverage, avg_length=length)
                )
    except OSError as exc:
        raise ConfigError(f"cannot read {args.results}: {exc}") from None
    if not rows:
        raise ConfigError(f"{args.results} has no data rows")
    svg = render_mc_chart(rows, p=args.p, level=args.level, title=args.title)
    _write_text(args.out, svg + "\n")
    print(f"wrote chart to {args.out}")
    return EXIT_OK


def cmd_diag(args) -> int:
    if args.p < 1:
        raise ConfigError("--p must be >= 1")
    if args.t < 2:
        raise ConfigError("--T must be >= 2")
    if args.alpha is not None and not 0.0 < args.alpha < 1.0:
        raise ConfigError("--alpha must be in (0, 1)")
    if args.tail_constant is not None:
        if args.alpha is None:
            raise ConfigError("--C needs --alpha")
        if not (math.isfinite(args.tail_constant) and args.tail_constant >= 0.0):
            raise ConfigError("--C must be a finite number >= 0")
    report = assumption_ratios(args.p, args.t, alpha=args.alpha)
    blob = dataclasses.asdict(report)
    print(f"fitted order p = {report.p}, sample size T = {report.t}")
    print(f"p^3 / T = {report.ratio_p3_t:.6g} (should be small)")
    bound = LOG_RULE_CONSTANT * math.log(report.t)
    print(
        f"log rule p <= {LOG_RULE_CONSTANT:g} log(T) = {bound:.2f}: "
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
    p_ci.add_argument("--methods", default="LS,S-LS", help=f"comma list: {','.join(METHODS)}")
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


if __name__ == "__main__":
    entry()
