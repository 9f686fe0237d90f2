"""Which library functions are traced, and the per-layer metrics from their spans.

Every public module-level function of a layer module is wrapped at each
layer module that binds it, so a function added later is traced without a
change here. The replication boundary ``mc_harness._run_replication`` and
the two ``IntervalSet`` scoring methods are the only other targets.
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from types import ModuleType

import numpy as np

from tracer import Span, Tracer, self_times

LAYERS = ("dgp_sim", "estimate", "var_core", "delta_infer", "bootstrap_infer", "mc_harness", "cli")

# (layer, metric, unit, better); values are per replication (mc) or per call (ci)
PER_LAYER = (
    ("bootstrap_infer", "resample_calls", "count", "lower"),
    ("bootstrap_infer", "resample_ms", "ms", "lower"),
    ("bootstrap_infer", "boot_ms", "ms", "lower"),
    ("bootstrap_infer", "bootdb_ms", "ms", "lower"),
    ("bootstrap_infer", "guard_calls", "count", "lower"),
    ("bootstrap_infer", "guard_eigs_per_call", "count", "lower"),
    ("bootstrap_infer", "percentile_ms", "ms", "lower"),
    ("bootstrap_infer", "refit_retry_ratio", "ratio", "lower"),
    ("bootstrap_infer", "self_ms", "ms", "lower"),
    ("estimate", "fit_calls", "count", "lower"),
    ("estimate", "fit_ms", "ms", "lower"),
    ("estimate", "fit_useful_ratio", "ratio", "higher"),
    ("estimate", "autocov_ms", "ms", "lower"),
    ("estimate", "self_ms", "ms", "lower"),
    ("var_core", "ma_calls", "count", "lower"),
    ("var_core", "ma_ms", "ms", "lower"),
    ("var_core", "eig_calls", "count", "lower"),
    ("var_core", "eig_ms", "ms", "lower"),
    ("var_core", "self_ms", "ms", "lower"),
    ("delta_infer", "fo_cov_ms", "ms", "lower"),
    ("delta_infer", "sieve_cov_ms", "ms", "lower"),
    ("delta_infer", "delta_ci_ms", "ms", "lower"),
    ("delta_infer", "clamped", "count", "lower"),
    ("delta_infer", "self_ms", "ms", "lower"),
    ("dgp_sim", "simulate_ms", "ms", "lower"),
    ("dgp_sim", "true_irf_ms", "ms", "lower"),
    ("dgp_sim", "self_ms", "ms", "lower"),
    ("mc_harness", "rep_ms_p50", "ms", "lower"),
    ("mc_harness", "rep_ms_p90", "ms", "lower"),
    ("mc_harness", "score_ms", "ms", "lower"),
    ("mc_harness", "cpu_per_wall", "ratio", "lower"),
    ("mc_harness", "failed_reps_share", "ratio", "lower"),
    ("mc_harness", "self_ms", "ms", "lower"),
    ("cli", "read_csv_ms", "ms", "lower"),
    ("cli", "write_csv_ms", "ms", "lower"),
    ("cli", "self_ms", "ms", "lower"),
    ("trace", "overhead_ms_per_op", "ms", "lower"),
    ("trace", "overhead_share", "ratio", "lower"),
)


def _fit_note(args: tuple, kwargs: dict, result) -> dict:
    """Fingerprint of a fit's inputs, so repeated fits of one sample show."""
    y = args[0] if args else kwargs["y"]
    values = np.ascontiguousarray(getattr(y, "values", y), dtype=float)
    rest = args[1:] + tuple(sorted(kwargs.items()))
    return {"key": hash((values.tobytes(), values.shape, rest))}


NOTES = {
    "estimate.fit_var_ls": _fit_note,
    "delta_infer.delta_ci": lambda args, kwargs, result: {"clamped": result.clamped},
}


def wrap_layers(tracer: Tracer, modules: dict[str, ModuleType]) -> list[str]:
    """Wrap every traced binding; returns the span names wrapped."""
    wrapped = []
    for site in LAYERS:
        mod = modules[site]
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or attr.startswith("_"):
                continue
            layer = obj.__module__.rsplit(".", 1)[-1]
            if layer in LAYERS:
                name = f"{layer}.{attr}"
                tracer.wrap(mod, attr, name, NOTES.get(name))
                wrapped.append(f"{site}:{name}")
    extra = (
        (modules["mc_harness"], "_run_replication", "mc_harness._run_replication"),
        (modules["delta_infer"].IntervalSet, "contains", "delta_infer.IntervalSet.contains"),
        (modules["delta_infer"].IntervalSet, "lengths", "delta_infer.IntervalSet.lengths"),
    )
    for owner, attr, name in extra:
        if tracer.wrap(owner, attr, name):
            wrapped.append(name)
    return wrapped


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-unit layer metrics from one traced run of ``units`` replications or calls."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    incl_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        incl_s[span.name] += span.duration
        layer_self[span.name.split(".", 1)[0]] += own

    def per(value: float) -> float:
        return value / units

    def ms(*names: str) -> float:
        return per(1e3 * sum(incl_s[n] for n in names))

    guard = "bootstrap_infer.stationarity_guard"
    guard_eigs = sum(
        1
        for s in spans
        if s.name == "var_core.spectral_radius"
        and s.parent is not None
        and spans[s.parent].name == guard
    )
    resamples = calls["bootstrap_infer.residual_bootstrap_sample"]
    failed_refits = sum(
        1 for s in spans if s.name == "estimate.fit_var_ls" and s.site == "bootstrap_infer" and s.error
    )
    fits = [s for s in spans if s.name == "estimate.fit_var_ls"]
    distinct = {(s.op, s.notes["key"]) for s in fits if not s.error}
    rep_spans = [s for s in spans if s.name == "mc_harness._run_replication"] or [
        s for s in spans if s.name == "cli.main"
    ]
    rep_ms = [1e3 * s.duration for s in rep_spans]
    p90 = statistics.quantiles(rep_ms, n=10)[-1] if len(rep_ms) > 1 else sum(rep_ms)

    out = {
        "bootstrap_infer.resample_calls": per(resamples),
        "bootstrap_infer.resample_ms": ms("bootstrap_infer.residual_bootstrap_sample"),
        "bootstrap_infer.boot_ms": ms("bootstrap_infer.bootstrap_irf_distribution"),
        "bootstrap_infer.bootdb_ms": ms("bootstrap_infer.bias_corrected_bootstrap"),
        "bootstrap_infer.guard_calls": per(calls[guard]),
        "bootstrap_infer.guard_eigs_per_call": guard_eigs / calls[guard] if calls[guard] else 0.0,
        "bootstrap_infer.percentile_ms": ms("bootstrap_infer.percentile_ci"),
        "bootstrap_infer.refit_retry_ratio": (
            resamples / (resamples - failed_refits) if resamples > failed_refits else 0.0
        ),
        "estimate.fit_calls": per(len(fits)),
        "estimate.fit_ms": ms("estimate.fit_var_ls"),
        "estimate.fit_useful_ratio": len(distinct) / len(fits) if fits else 0.0,
        "estimate.autocov_ms": ms("estimate.sample_autocov", "estimate.build_gamma_p"),
        "var_core.ma_calls": per(calls["var_core.ma_from_ar"]),
        "var_core.ma_ms": ms("var_core.ma_from_ar"),
        "var_core.eig_calls": per(calls["var_core.spectral_radius"]),
        "var_core.eig_ms": ms("var_core.spectral_radius"),
        "delta_infer.fo_cov_ms": ms("delta_infer.finite_order_covariances"),
        "delta_infer.sieve_cov_ms": ms("delta_infer.sieve_covariances"),
        "delta_infer.delta_ci_ms": ms("delta_infer.delta_ci"),
        "delta_infer.clamped": per(sum(s.notes.get("clamped", 0) for s in spans)),
        "dgp_sim.simulate_ms": ms("dgp_sim.simulate_varma"),
        "dgp_sim.true_irf_ms": ms("dgp_sim.varma_true_irf"),
        "mc_harness.rep_ms_p50": statistics.median(rep_ms) if rep_ms else 0.0,
        "mc_harness.rep_ms_p90": p90,
        "mc_harness.score_ms": ms("delta_infer.IntervalSet.contains", "delta_infer.IntervalSet.lengths"),
        "cli.read_csv_ms": ms("cli.read_sample_csv"),
        "cli.write_csv_ms": ms("cli.write_interval_csv"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per(1e3 * layer_self[layer])
    return out
