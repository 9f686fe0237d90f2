"""Benchmark runner for sievevar.

    python3 bench/run.py --workload mc-desk --seed 1 --seconds 25 --trace 0

Run from a checkout that holds ``src/sievevar``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced replay with ``--trace 1``. Lines
before it name every metric with its unit and record the machine. BLAS
threading is left at the machine default. See NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import operator
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from layers import PER_LAYER, layer_metrics, wrap_layers  # noqa: E402
from tracer import Tracer  # noqa: E402

CI_METHODS = ("LS", "S-LS", "BOOT", "BOOT-db")
LEVEL = 0.95
SETUP_REPEATS = 3
# probe_seconds() on the reference machine; see NOTES.md, "Machine speed"
PROBE_REF_S = 0.03


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input set; sizes are fixed here, randomness by --seed."""

    name: str
    kind: str  # "mc": run_experiment calls; "ci": `sievevar ci` calls
    why: str
    preset: str = ""
    workers: int = 1
    reps_per_op: int = 1  # mc: replications per run_experiment call
    check_reps: int = 2  # mc: replications of the workers 1 vs 2 check
    overrides: tuple[tuple[str, object], ...] = ()  # mc: preset fields replaced
    t: int = 600  # ci: sample length, lag order, horizon, bootstrap draws
    p: int = 6
    horizon: int = 24
    m: int = 300


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-desk",
            "mc",
            "fig2-desk replications, 85% in bootstrap resample/refit/guard",
            preset="fig2-desk",
            reps_per_op=1,
        ),
        Workload(
            "mc-counterex",
            "mc",
            "p=30 LS and S-LS only: simulation and covariance kernels, no bootstrap",
            preset="counterex-desk-p30",
            reps_per_op=10,
            check_reps=8,
        ),
        Workload(
            "mc-counterex-w2",
            "mc",
            "mc-counterex on the 2-worker process pool, BLAS threads at default",
            preset="counterex-desk-p30",
            workers=2,
            reps_per_op=10,
            check_reps=8,
        ),
        Workload(
            "ci-k4",
            "ci",
            "one sievevar ci call, K=4 T=600 p=6 H=24 M=300, all methods, CSV I/O",
        ),
    )
}


def import_library() -> dict:
    """The layer modules of the checkout's own source tree."""
    if not (SRC / "sievevar" / "__init__.py").is_file():
        sys.exit(f"error: no source tree at {SRC / 'sievevar'}")
    sys.path.insert(0, str(SRC))
    import sievevar
    from sievevar import (
        bootstrap_infer,
        cli,
        delta_infer,
        dgp_sim,
        errors,
        estimate,
        mc_harness,
        var_core,
    )

    if Path(sievevar.__file__).resolve().parent != (SRC / "sievevar").resolve():
        sys.exit(f"error: imported sievevar from {sievevar.__file__}, not {SRC}")
    return {
        m.__name__.rsplit(".", 1)[-1]: m
        for m in (bootstrap_infer, cli, delta_infer, dgp_sim, errors, estimate, mc_harness, var_core)
    }


# ---------------------------------------------------------------- machine


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded in this process, by library file."""
    import ctypes

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------- set-up


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import sievevar.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def ci_spec(lib: dict):
    """K=4 VARMA(2,1) behind the ci-k4 sample."""
    k = 4
    a1 = 0.45 * np.eye(k) + 0.1 * np.eye(k, k=1)
    a2 = -0.15 * np.eye(k)
    m1 = 0.3 * np.eye(k) + 0.05 * np.eye(k, k=-1)
    sigma = np.full((k, k), 0.3)
    np.fill_diagonal(sigma, 1.0)
    coeff_seq = lib["var_core"].coeff_seq
    return lib["dgp_sim"].VarmaSpec(k=k, ar=coeff_seq([a1, a2]), ma=coeff_seq([m1]), sigma_u=sigma)


def set_up(lib: dict, wl: Workload, seed: int, work: Path) -> SimpleNamespace:
    """Config and true IRFs (mc) or the simulated input CSV (ci).

    The true IRFs are not used here; computing them is part of the set-up a
    user of ``run_experiment`` pays, so it is timed with the rest.
    """
    cli, dgp_sim = lib["cli"], lib["dgp_sim"]
    if wl.kind == "mc":
        obj = dict(cli.PRESETS[wl.preset](), **dict(wl.overrides), replications=wl.reps_per_op)
        cfg = cli.parse_experiment_config(obj, SimpleNamespace(seed=seed, workers=wl.workers))
        dgp_sim.varma_true_irf(cfg.dgp, cfg.horizon)
        return SimpleNamespace(seed=seed, cfg=cfg)
    spec = ci_spec(lib)
    spec.validate()
    sample = dgp_sim.simulate_varma(spec, wl.t, dgp_sim.default_burn_in(spec), seed)
    path = work / "sample.csv"
    cli.write_sample_csv(str(path), sample)
    return SimpleNamespace(seed=seed, sample=sample, csv=path)


# ---------------------------------------------------------------- operations


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


@dataclasses.dataclass
class Op:
    """One timed operation and the machine speed around it."""

    seed: int
    wall: float
    cpu: float
    out: object  # McSummary (mc) or the CSV bytes (ci)
    units: int  # replications requested (mc) or 1 (ci)
    speed: float  # PROBE_REF_S over the mean probe time just before and after

    @property
    def done(self) -> int:
        """Successful replications (mc) or calls (ci)."""
        return getattr(self.out, "replications", 1)


def probe_seconds() -> float:
    """Wall time of fixed work of the library's kind: small products in a Python loop.

    The host's speed drifts by up to two times over minutes (NOTES.md); this
    probe, run between operations, measures it.
    """
    rng = np.random.default_rng(0)
    a = 0.05 * rng.standard_normal((20, 20))
    x = rng.standard_normal((20, 2))
    start = time.perf_counter()
    for i in range(4000):
        x = a @ x + 0.1
        acc = np.zeros((2, 2))
        for m in range(3):
            acc += x[m : m + 2]
        if i % 100 == 0:
            np.linalg.eigvals(a)
    return time.perf_counter() - start


def run_op(lib: dict, wl: Workload, ctx: SimpleNamespace, seed: int, workers: int, work: Path):
    """One timed operation; returns (wall s, cpu s, output, units)."""
    if wl.kind == "mc":
        cfg = dataclasses.replace(ctx.cfg, seed=seed, workers=workers)
        start = _clock()
        out = lib["mc_harness"].run_experiment(cfg)
        wall, cpu = _since(start)
        return wall, cpu, out, cfg.replications
    out_csv = work / "irf_ci.csv"
    argv = ["ci", str(ctx.csv), "--p", str(wl.p), "--H", str(wl.horizon), "--level", str(LEVEL),
            "--methods", ",".join(CI_METHODS), "--M", str(wl.m), "--seed", str(seed), "--out", str(out_csv)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        start = _clock()
        code = lib["cli"].main(argv)
        wall, cpu = _since(start)
    if code != 0:
        raise RuntimeError(f"sievevar ci exited {code}: {err.getvalue().strip()}")
    return wall, cpu, out_csv.read_bytes(), 1


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _clock() -> tuple[float, float]:
    return time.perf_counter(), _cpu()


def _since(start: tuple[float, float]) -> tuple[float, float]:
    return time.perf_counter() - start[0], _cpu() - start[1]


# ---------------------------------------------------------------- checks


def summaries_equal(a, b) -> bool:
    return (
        a.methods == b.methods
        and a.level == b.level
        and a.replications == b.replications
        and a.failures == b.failures
        and all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("coverage", "avg_length", "entry_coverage", "entry_length")
        )
    )


def check_summary(summary, cfg) -> list[str]:
    """Structural checks of one McSummary that hold for any correct float rounding."""
    n, h1, k = len(cfg.methods), cfg.horizon + 1, cfg.dgp.k
    problems = []
    if summary.methods != cfg.methods:
        problems.append(f"methods {summary.methods} != {cfg.methods}")
    if summary.replications + summary.failures != cfg.replications:
        problems.append("replications + failures != requested")
    if summary.coverage.shape != (n, h1) or summary.entry_length.shape != (n, h1, k, k):
        return problems + ["summary arrays have the wrong shape"]
    arrays = (summary.coverage, summary.avg_length, summary.entry_coverage, summary.entry_length)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("non-finite summary value")
    if np.any(summary.coverage < 0) or np.any(summary.coverage > 1):
        problems.append("coverage outside [0, 1]")
    if np.any(summary.entry_length < 0):
        problems.append("negative interval length")
    if np.any(summary.coverage[:, 0] != 1.0) or np.any(summary.avg_length[:, 0] != 0.0):
        problems.append("horizon-0 intervals are not the exact identity")
    return problems


def ls_oracle(lib: dict, values: np.ndarray, p: int, horizon: int, level: float) -> np.ndarray:
    """(H+1, 3, K, K) LS point, lower, upper from irf_jacobian and the inverse moment matrix."""
    model, _ = lib["estimate"].fit_var_ls(values, p)
    k, t = model.k, values.shape[0]
    middle = np.kron(np.linalg.inv(model.moment_matrix), model.sigma_u_hat)
    comp = np.zeros((k * p, k * p))
    comp[:k] = np.hstack(list(model.ar_hat.mats))
    comp[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    z = statistics.NormalDist().inv_cdf((1.0 + level) / 2.0)
    out = np.empty((horizon + 1, 3, k, k))
    power = np.eye(k * p)
    out[0] = np.eye(k)
    for i in range(1, horizon + 1):
        power = power @ comp
        g = lib["delta_infer"].irf_jacobian(model, i)
        var = np.diag(g @ middle @ g.T).reshape(k, k, order="F")  # vec stacks columns
        half = z * np.sqrt(np.maximum(var, 0.0) / t)
        point = power[:k, :k]
        out[i] = (point, point - half, point + half)
    return out


def check_ci_csv(lib: dict, wl: Workload, data: bytes, sample) -> list[str]:
    """Layout, finiteness, ordering, horizon 0, and the LS oracle, on one output CSV."""
    lines = data.decode().splitlines()
    k = sample.k
    if lines[0] != ",".join(lib["cli"].CI_COLUMNS):
        return [f"header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = [
        (m, str(i), str(r), str(c))
        for m in CI_METHODS
        for i in range(wl.horizon + 1)
        for r in range(k)
        for c in range(k)
    ]
    if [tuple(row[:4]) for row in rows] != expected:
        return [f"{len(rows)} rows out of the expected order of {len(expected)}"]
    vals = np.array([[float(v) for v in row[4:]] for row in rows]).reshape(
        len(CI_METHODS), wl.horizon + 1, k, k, 3
    )
    problems = []
    if not np.all(np.isfinite(vals)):
        problems.append("non-finite value")
    if np.any(vals[..., 1] > vals[..., 2]):
        problems.append("lower > upper")
    if not np.all(vals[:, 0] == np.eye(k)[None, :, :, None]):
        problems.append("horizon-0 rows are not the identity")
    want = ls_oracle(lib, sample.values, wl.p, wl.horizon, LEVEL)  # (H+1, 3, K, K)
    got = vals[CI_METHODS.index("LS")].transpose(0, 3, 1, 2)
    scale = np.abs(want).reshape(wl.horizon + 1, -1).max(axis=1)[:, None, None, None]
    if np.any(np.abs(got - want) > 1e-9 * scale):
        problems.append(f"LS differs from the oracle by {np.max(np.abs(got - want) / scale):.2e} relative")
    return problems


def check_outputs(lib: dict, wl: Workload, ctx: SimpleNamespace, ops: list, tally) -> None:
    for op in ops:
        if wl.kind == "mc":
            problems = check_summary(op.out, ctx.cfg)
        else:
            problems = check_ci_csv(lib, wl, op.out, ctx.sample)
        tally.record(f"op seed {op.seed}", problems)


def exception_passes_through(lib: dict) -> bool:
    """A traced call raises the library's own SingularMatrixError unchanged."""
    boot = lib["bootstrap_infer"]
    tracer = Tracer()
    tracer.wrap(boot, "fit_var_ls", "estimate.fit_var_ls")
    try:
        boot.fit_var_ls(np.zeros((40, 2)), 2)
    except lib["errors"].SingularMatrixError:
        return len(tracer.spans) == 1 and tracer.spans[0].error
    finally:
        tracer.unwrap_all()
    return False


# ---------------------------------------------------------------- runs


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def attempt(self, what: str, fn):
        """fn() or None, counting an exception as a failed operation."""
        try:
            return fn()
        except Exception:  # every failure is reported and counted, the run goes on
            self.record(what, [traceback.format_exc()])
            return None


def run_ops(lib, wl, ctx, workers, work, tally, seeds=None, budget=0.0, tracer=None) -> list[Op]:
    """Run operations for ``seeds``, or for fresh seeds while the next is expected to end within ``budget`` s.

    A ``tracer`` gets each operation's index as the identifier of its spans.
    """
    results = []
    start = time.perf_counter()
    before = probe_seconds()
    i = 0
    while True:
        if seeds is None:
            if i and (time.perf_counter() - start) / i * (i + 1) > budget:
                break
            s = op_seed(ctx.seed, i)
        elif i < len(seeds):
            s = seeds[i]
        else:
            break
        if tracer is not None:
            tracer.op = i
        res = tally.attempt(f"op seed {s}", lambda: run_op(lib, wl, ctx, s, workers, work))
        after = probe_seconds()
        if res is not None:
            results.append(Op(s, *res, speed=2 * PROBE_REF_S / (before + after)))
        before = after
        i += 1
    return results


def warm_up(lib, wl, ctx, work, tally) -> None:
    """Untimed pass over every code path; for mc, also workers 1 vs 2."""
    if wl.kind == "ci":
        small = dataclasses.replace(wl, m=20)
        tally.attempt("warm-up", lambda: run_op(lib, small, ctx, op_seed(ctx.seed, 999), 1, work))
        return
    check = dataclasses.replace(ctx.cfg, replications=wl.check_reps, seed=op_seed(ctx.seed, 999))
    experiment = lib["mc_harness"].run_experiment
    pair = tally.attempt(
        "workers 1 vs 2",
        lambda: tuple(experiment(dataclasses.replace(check, workers=w)) for w in (1, 2)),
    )
    if pair is not None:
        tally.record("workers 1 vs 2", [] if summaries_equal(*pair) else ["McSummary differs"])


def median_setup(lib, wl, seed, work, repeats) -> tuple[float, SimpleNamespace]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ctx = set_up(lib, wl, seed, work)
        times.append(time.perf_counter() - start + import_seconds())
    return statistics.median(times), ctx


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quartiles(values: list[float]) -> str:
    return " ".join(f"{q:.4g}" for q in statistics.quantiles(values, n=4)) if len(values) > 1 else ""


def end_to_end(lib, wl, seed, seconds, work, tally, setup_repeats) -> tuple[dict, list[str]]:
    setup_s, ctx = median_setup(lib, wl, seed, work, setup_repeats)
    warm_up(lib, wl, ctx, work, tally)
    ops = run_ops(lib, wl, ctx, wl.workers, work, tally, budget=seconds)
    check_outputs(lib, wl, ctx, ops, tally)
    if not ops:
        return {}, []
    rates = [op.done / op.wall for op in ops]
    cpu_ms = [1e3 * op.cpu / op.units for op in ops]
    metrics = {
        "ref_ops_per_s": (statistics.median(r / op.speed for r, op in zip(rates, ops)), "1/s"),
        "ref_cpu_ms_per_op": (statistics.median(c * op.speed for c, op in zip(cpu_ms, ops)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    units = sum(op.units for op in ops)
    if wl.kind == "mc":
        named = [
            ("reps_per_s", statistics.median(rates), "1/s"),
            ("cpu_ms_per_rep", statistics.median(cpu_ms), "ms"),
            ("failed_reps_share", sum(op.units - op.done for op in ops) / units, "ratio"),
        ]
    else:
        named = [
            ("ci_s", statistics.median(op.wall for op in ops), "s"),
            ("ci_cpu_s", statistics.median(cpu_ms) / 1e3, "s"),
        ]
    info = [
        f"ops {len(ops)} units {units}; unnormalised ops_per_s quartiles {quartiles(rates)}",
        f"machine speed (PROBE_REF_S / probe s) quartiles {quartiles([op.speed for op in ops])}",
    ]
    info += [f"metric {n} {v!r} {u}" for n, v, u in named]
    return metrics, info


def traced(lib, wl, seed, seconds, work, tally) -> tuple[dict, list[str]]:
    ctx = set_up(lib, wl, seed, work)
    warm_up(lib, wl, ctx, work, tally)
    first = run_ops(lib, wl, ctx, wl.workers, work, tally, budget=seconds * 0.4)
    check_outputs(lib, wl, ctx, first, tally)
    seeds = [op.seed for op in first]
    baseline = first if wl.workers == 1 else run_ops(lib, wl, ctx, 1, work, tally, seeds=seeds)

    tracer = Tracer()
    wrapped = wrap_layers(tracer, lib)
    try:
        replay = run_ops(lib, wl, ctx, 1, work, tally, seeds=seeds, tracer=tracer)
    finally:
        tracer.unwrap_all()
    tally.record("traced exception pass-through", [] if exception_passes_through(lib) else ["changed"])

    same = operator.eq if wl.kind == "ci" else summaries_equal
    for what, ref in (("workers 1 replay", baseline), ("traced replay", replay)):
        if ref is not first:
            ok = len(ref) == len(first) and all(same(a.out, b.out) for a, b in zip(first, ref))
            tally.record(f"{what} equals the untraced run", [] if ok else ["outputs differ"])
    if not first or not replay:
        return {}, []

    units = sum(op.units for op in replay)
    base_wall = sum(op.wall * op.speed for op in baseline)
    trace_wall = sum(op.wall * op.speed for op in replay)
    metrics = layer_metrics(tracer.spans, units)
    metrics["mc_harness.cpu_per_wall"] = sum(op.cpu for op in first) / sum(op.wall for op in first)
    metrics["mc_harness.failed_reps_share"] = sum(op.units - op.done for op in first) / sum(
        op.units for op in first
    )
    metrics["trace.overhead_ms_per_op"] = 1e3 * (trace_wall - base_wall) / len(replay)
    metrics["trace.overhead_share"] = (trace_wall - base_wall) / base_wall
    units_of = {f"{layer}.{name}": unit for layer, name, unit, _ in PER_LAYER}
    info = [f"ops {len(replay)} units {units} spans {len(tracer.spans)} bindings {len(wrapped)}"]
    return {n: (v, units_of[n]) for n, v in metrics.items()}, info


def run(wl: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and print its report; returns the result object."""
    lib = import_library()
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_run-") as tmp:
        work = Path(tmp)
        if trace:
            metrics, info = traced(lib, wl, seed, seconds, work, tally)
        else:
            metrics, info = end_to_end(lib, wl, seed, seconds, work, tally, setup_repeats)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {wl.name} seed {seed} seconds {seconds} trace {int(trace)}: {wl.why}")
    for line in info:
        print(line)
    print(f"metric failed_ops_share {tally.failed / max(tally.attempted, 1)!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
