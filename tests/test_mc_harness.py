"""Experiment orchestration: aggregation, determinism, flags."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from argparse import Namespace
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from sievevar import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    SamplePath,
    SingularMatrixError,
    aggregate,
    bootstrap_interval_sets,
    coverage_flags,
    fit_var_ls,
    interval_sets_for_sample,
    irf_covariances,
    ma_from_ar,
    run_experiment,
    simulate_varma,
    varma_true_irf,
)
from sievevar import bootstrap_infer, cli, mc_harness
from sievevar.mc_harness import METHODS, McSummary
from sievevar.streams import substream
from conftest import (
    blas_is_openblas,
    cpu_has,
    pure_ar_spec,
    random_stable_coeffs,
    white_noise_spec,
)


def tiny_config(desk_spec, **overrides):
    base = dict(
        dgp=desk_spec,
        t=120,
        p=2,
        horizon=4,
        level=0.95,
        methods=("LS", "S-LS"),
        replications=8,
        bootstrap_replications=20,
        seed=4242,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAggregate:
    def _records(self, hits_value, length_value, n=3):
        shape = (2, 3, 2, 2)
        return [
            (np.full(shape, hits_value, dtype=bool), np.full(shape, length_value))
            for _ in range(n)
        ]

    def test_all_hits(self):
        s = aggregate(self._records(True, 1.0), ("LS", "BOOT"), 0.95)
        assert np.all(s.coverage == 1.0)

    def test_no_hits(self):
        s = aggregate(self._records(False, 1.0), ("LS", "BOOT"), 0.95)
        assert np.all(s.coverage == 0.0)

    def test_half_hits(self):
        recs = self._records(True, 2.0, n=2) + self._records(False, 4.0, n=2)
        s = aggregate(recs, ("LS", "BOOT"), 0.95)
        assert np.all(s.coverage == 0.5)
        assert np.all(s.avg_length == 3.0)

    def test_constant_lengths_pass_through(self):
        s = aggregate(self._records(True, 0.75), ("LS", "BOOT"), 0.95)
        assert np.all(s.avg_length == 0.75)

    def test_empty_records_rejected(self):
        from sievevar import ExperimentError

        with pytest.raises(ExperimentError):
            aggregate([], ("LS",), 0.95)


class TestRunExperiment:
    def test_deterministic_given_master_seed(self, desk_spec):
        cfg = tiny_config(desk_spec)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.coverage, b.coverage)
        assert np.array_equal(a.avg_length, b.avg_length)
        assert np.array_equal(a.entry_coverage, b.entry_coverage)

    @pytest.mark.parametrize(
        "overrides, workers, chunk",
        [
            (dict(methods=tuple(METHODS)), 4, 2),
            (dict(methods=tuple(METHODS), intercept=True), 4, 2),
            # p = 30: 11 replications in chunks of 4, 4 and 3
            (dict(t=150, p=30, replications=11), 3, 4),
        ],
        ids=["all-methods", "intercept", "p30-uneven-chunks"],
    )
    def test_invariant_to_worker_count(self, desk_spec, overrides, workers, chunk):
        cfg = tiny_config(desk_spec, **overrides)
        serial = run_experiment(cfg)
        cfg = dataclasses.replace(cfg, workers=workers)
        assert mc_harness._chunk_size(cfg) == chunk
        parallel = run_experiment(cfg)
        assert np.array_equal(serial.coverage, parallel.coverage)
        assert np.array_equal(serial.avg_length, parallel.avg_length)
        assert np.array_equal(serial.entry_coverage, parallel.entry_coverage)
        assert np.array_equal(serial.entry_length, parallel.entry_length)

    def test_horizon_zero_exact(self, desk_spec):
        s = run_experiment(tiny_config(desk_spec, methods=("LS", "S-LS", "BOOT")))
        np.testing.assert_array_equal(s.coverage[:, 0], np.ones(3))
        np.testing.assert_array_equal(s.avg_length[:, 0], np.zeros(3))

    def test_single_replication_coverage_fractions(self, desk_spec):
        s = run_experiment(tiny_config(desk_spec, replications=1))
        # with one replication coverage is a multiple of 1/K^2
        assert np.all(np.isin(np.round(s.coverage * 4), np.arange(5)))

    @pytest.mark.parametrize(
        "method, bundle", [("BOOT", ("LS", "S-LS", "BOOT")), ("BOOT-db", ("BOOT", "BOOT-db"))]
    )
    def test_method_results_independent_of_bundle(self, desk_spec, method, bundle):
        joint = run_experiment(tiny_config(desk_spec, methods=bundle))
        solo = run_experiment(tiny_config(desk_spec, methods=(method,)))
        j = joint.methods.index(method)
        np.testing.assert_array_equal(joint.coverage[j], solo.coverage[0])
        np.testing.assert_array_equal(joint.avg_length[j], solo.avg_length[0])
        np.testing.assert_array_equal(joint.entry_coverage[j], solo.entry_coverage[0])
        np.testing.assert_array_equal(joint.entry_length[j], solo.entry_length[0])

    def test_replication_stability_bound(self, desk_spec):
        # doubling R moves coverage by less than 3 binomial standard errors
        base = tiny_config(desk_spec, t=200, replications=40, methods=("LS",), horizon=2)
        s1 = run_experiment(base)
        s2 = run_experiment(dataclasses.replace(base, replications=80))
        bound = 3 * np.sqrt(0.95 * 0.05 / 40)
        assert np.max(np.abs(s1.coverage - s2.coverage)) < bound


MC_SEED = 515


def mc_csvs(
    tmp_path, desk_spec, name, workers, p=2, t=60, intercept=False, methods=("LS", "S-LS", "BOOT")
):
    """``sievevar mc`` result and entry CSV bytes of a 17-replication desk run."""
    cfg = {
        "schema": 1,
        "dgp": cli.varma_spec_to_json(desk_spec),
        "t": t,
        "burn_in": 20,
        "p": p,
        "horizon": 3,
        "methods": list(methods),
        "replications": 17,
        "bootstrap_replications": 10,
        "seed": MC_SEED,
        "intercept": intercept,
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["mc", str(path), "--out", str(out), "--workers", str(workers)]) == 0
    return (out / "mc_results.csv").read_bytes(), (out / "mc_entries.csv").read_bytes()


def record_stack_sizes(monkeypatch):
    """Paths per ``simulate_varma_stack`` call of ``mc_harness``, in call order."""
    sizes = []
    stack = mc_harness.simulate_varma_stack

    def recording(spec, t, burn_in, seeds):
        sizes.append(len(seeds))
        return stack(spec, t, burn_in, seeds)

    monkeypatch.setattr(mc_harness, "simulate_varma_stack", recording)
    return sizes


def record_scored_sizes(monkeypatch):
    """Samples per ``_run_replication`` call of ``mc_harness``, in call order."""
    sizes = []
    score = mc_harness._run_replication

    def recording(cfg, truth, samples, run_seeds):
        sizes.append(len(samples))
        return score(cfg, truth, samples, run_seeds)

    monkeypatch.setattr(mc_harness, "_run_replication", recording)
    return sizes


def chunk_floats(size, p=2, t=60):
    # per replication of mc_csvs: its (1 + 20 + t) K path, with K = 2, its
    # moment matrix and Gamma_p, 2 (Kp)^2, and its (t - p) K residuals
    per_rep = (1 + 20 + t) * 2 + 2 * (2 * p) ** 2 + (t - p) * 2
    return per_rep * size + per_rep - 1


class TestChunks:
    """Replications simulated, fitted and scored in chunks: no chunking or worker count moves a byte."""

    @staticmethod
    def _check_chunkings(tmp_path, desk_spec, monkeypatch, p, t, *options):
        # without failures each pass simulates and scores its chunk in one call each
        simulated, scored = record_stack_sizes(monkeypatch), record_scored_sizes(monkeypatch)
        want = mc_csvs(tmp_path, desk_spec, "default", 1, p, t, *options)
        assert simulated == scored == [17]
        # a budget of 8 replications cuts 17 into three equal chunks
        for size, chunks in ((1, [1] * 17), (3, [3] * 5 + [2]), (8, [6, 6, 5])):
            monkeypatch.setattr(mc_harness, "_CHUNK_FLOATS", chunk_floats(size, p, t))
            simulated.clear()
            scored.clear()
            assert mc_csvs(tmp_path, desk_spec, f"c{size}-w1", 1, p, t, *options) == want
            assert simulated == scored == chunks
            assert mc_csvs(tmp_path, desk_spec, f"c{size}-w2", 2, p, t, *options) == want

    @pytest.mark.parametrize("intercept", [False, True])
    def test_csvs_byte_identical_for_any_chunking(self, desk_spec, tmp_path, monkeypatch, intercept):
        self._check_chunkings(tmp_path, desk_spec, monkeypatch, 2, 60, intercept, tuple(METHODS))

    def test_panelled_grams_byte_identical_for_any_chunking(self, desk_spec, tmp_path, monkeypatch):
        # p = 30 fits and refits a 62-column lag-window Gram, built from panels
        self._check_chunkings(tmp_path, desk_spec, monkeypatch, 30, 150)

    def test_at_least_one_chunk_per_worker(self, desk_spec):
        cfg = tiny_config(desk_spec, replications=11, workers=3)
        assert mc_harness._chunk_size(cfg) == 4
        assert mc_harness._chunk_size(dataclasses.replace(cfg, workers=1)) == 11

    def test_chunk_size_counts_what_a_chunk_keeps(self, desk_spec):
        # tiny_config: a (1 + burn_in + 120) K path, and 2 (Kp)^2 + (T - p) K
        # = 2 * 16 + 118 * 2 = 268 floats of moment matrix, Gamma_p and
        # residuals per replication
        cfg = tiny_config(desk_spec)
        per_rep = (1 + cfg.effective_burn_in + 120) * 2 + 268
        fit = mc_harness._CHUNK_FLOATS // per_rep
        for replications, size in ((5 * fit, fit), (5 * fit + 1, -(-(5 * fit + 1) // 6))):
            cfg = tiny_config(desk_spec, replications=replications)
            assert mc_harness._chunk_size(cfg) == size
        # at 200 replications: counterex-desk-p30 (14 + 214 + 300) 2 + 2 * 60^2
        # + 270 * 2 = 8796 floats, 29 fit the budget; fig2-desk (1 + 201 + 300)
        # 2 + 2 * 20^2 + 290 * 2 = 2384, 109 fit; fig2-desk-t1000 5184, 50 fit;
        # counterex-desk-p10 2436, 107 fit. The chunks of W workers are a
        # multiple of W in number and of equal size, the last possibly shorter.
        for preset, sizes in (
            ("counterex-desk-p30", (29, 25, 23, 25)),
            ("fig2-desk", (100, 100, 67, 50)),
            ("fig2-desk-t1000", (50, 50, 34, 50)),
            ("counterex-desk-p10", (100, 100, 67, 50)),
        ):
            obj = dict(cli.PRESETS[preset](), replications=200)
            cfg = cli.parse_experiment_config(obj, Namespace(workers=1, seed=None))
            for workers, size in enumerate(sizes, start=1):
                assert mc_harness._chunk_size(dataclasses.replace(cfg, workers=workers)) == size

    @pytest.mark.parametrize(
        "preset, per_sample", [("counterex-desk-p30", 280_000), ("fig2-desk-t1000", 185_000)]
    )
    def test_stack_peak_memory(self, preset, per_sample):
        # LS and S-LS on a stack of 10. The covariances build their largest
        # product one block of horizons at a time, which sets the peak of a
        # counterex-desk-p30 stack: about 191 KB per sample, 227 KB with two
        # such products and 361 KB with whole-stack products. The fit copies
        # one sample's lag windows at a time and Gamma_p is gathered from
        # its autocovariances: a fig2-desk-t1000 stack peaks at about 85 KB
        # per sample, 152 KB with Gamma_p from a Gram of the zero-padded
        # sample and 220 KB with a copy of the whole stack's windows.
        obj = dict(cli.PRESETS[preset](), methods=["LS", "S-LS"])
        cfg = cli.parse_experiment_config(obj, Namespace(workers=1, seed=None))
        truth = varma_true_irf(cfg.dgp, cfg.horizon)
        seeds = [substream(cfg.seed, r) for r in range(10)]
        samples = mc_harness.simulate_varma_stack(
            cfg.dgp, cfg.t, cfg.effective_burn_in, [substream(s, 0) for s in seeds]
        )
        mc_harness._run_replication(cfg, truth, samples, seeds)  # caches and first-call state
        tracemalloc.start()
        try:
            mc_harness._run_replication(cfg, truth, samples, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * per_sample


class TestFailedReplications:
    """A replication whose sample fails is retried on its (r, 1) stream in the chunk's second pass."""

    @staticmethod
    def _failing(monkeypatch, seed, paths):
        # the stacked step of a pass raises whenever its stack holds a bad seed
        bad = {substream(seed, *path).spawn_key for path in paths}
        calls = []
        stacked = mc_harness._interval_stacks

        def flaky(fits, samples, horizon, level, methods, m, rep_seeds):
            keys = [rep_seed.spawn_key for rep_seed in rep_seeds]
            calls.append(keys)
            if bad.intersection(keys):
                raise SingularMatrixError("forced failure")
            return stacked(fits, samples, horizon, level, methods, m, rep_seeds)

        monkeypatch.setattr(mc_harness, "_interval_stacks", flaky)
        return calls

    def test_failed_member_rescored_on_retry_stream(self, desk_spec, monkeypatch):
        cfg = tiny_config(desk_spec, methods=("LS", "BOOT"), replications=6)
        truth = varma_true_irf(cfg.dgp, cfg.horizon)
        chunk = range(6)
        want = mc_harness._run_chunk(cfg, truth, chunk)
        calls = self._failing(monkeypatch, cfg.seed, [(3,)])
        got = mc_harness._run_chunk(cfg, truth, chunk)

        # the pass's stack raises, its members are scored again one at a
        # time, and the one that still raises is retried alone
        seed = substream(cfg.seed, 3, 1)
        keys = [substream(cfg.seed, r).spawn_key for r in chunk]
        assert calls == [keys] + [[key] for key in keys] + [[seed.spawn_key]]
        y = simulate_varma(cfg.dgp, cfg.t, cfg.effective_burn_in, substream(seed, 0))
        sets = interval_sets_for_sample(y, cfg.p, cfg.horizon, cfg.level, cfg.methods, 20, seed)
        for j, method in enumerate(cfg.methods):
            iv = sets[method]
            assert np.array_equal(got[3][0][j], (iv.lowers <= truth) & (truth <= iv.uppers))
            assert np.array_equal(got[3][1][j], iv.uppers - iv.lowers)
        for r in chunk:
            if r != 3:
                assert all(np.array_equal(a, b) for a, b in zip(got[r], want[r]))

    def test_retries_of_a_chunk_share_one_stack_for_any_chunking(
        self, desk_spec, tmp_path, monkeypatch
    ):
        # workers 1 only: the patched scorer would not reach spawned pool workers
        calls = self._failing(monkeypatch, MC_SEED, [(3,), (5,)])
        sizes = record_stack_sizes(monkeypatch)
        want = mc_csvs(tmp_path, desk_spec, "default", 1)
        assert sizes == [17, 2]
        assert calls[-1] == [substream(MC_SEED, r, 1).spawn_key for r in (3, 5)]
        assert want[0].splitlines()[1].endswith(b",17,0")
        for size, chunks in ((1, [1] * 19), (3, [3, 3, 2, 3, 3, 3, 2]), (8, [6, 2, 6, 5])):
            monkeypatch.setattr(mc_harness, "_CHUNK_FLOATS", chunk_floats(size))
            sizes.clear()
            assert mc_csvs(tmp_path, desk_spec, f"c{size}", 1) == want
            assert sizes == chunks

    def test_retry_success_is_no_failure(self, desk_spec, monkeypatch):
        cfg = tiny_config(desk_spec, replications=6)
        self._failing(monkeypatch, cfg.seed, [(2,)])
        s = run_experiment(cfg)
        assert (s.replications, s.failures) == (6, 0)

    def test_failures_counted_against_budget(self, desk_spec, monkeypatch):
        cfg = tiny_config(desk_spec, methods=("LS",), horizon=2, replications=100)
        self._failing(monkeypatch, cfg.seed, [(41,), (41, 1)])
        s = run_experiment(cfg)
        assert (s.replications, s.failures) == (99, 1)
        assert 1 <= mc_harness.FAILURE_BUDGET * cfg.replications
        self._failing(monkeypatch, cfg.seed, [(41,), (41, 1), (7,), (7, 1)])
        with pytest.raises(ExperimentError, match="2 of 100 replications failed"):
            run_experiment(cfg)


def records_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def one_sample_record(cfg, truth, y, seed):
    """Hits and lengths of sample ``y`` from ``interval_sets_for_sample``, the `ci` path."""
    sets = interval_sets_for_sample(
        y, cfg.p, cfg.horizon, cfg.level, cfg.methods, cfg.bootstrap_replications, seed, cfg.intercept
    )
    lowers = np.stack([sets[m].lowers for m in cfg.methods])
    uppers = np.stack([sets[m].uppers for m in cfg.methods])
    return (lowers <= truth) & (truth <= uppers), uppers - lowers


class TestStackFailures:
    """Real failures inside a stack: a member's fit is singular, or its S-LS Gamma_p is."""

    # p = 2: the constant variable's two lags are one regressor, so the stack's
    # fit raises; p = 1: the fit stands, but the demeaned constant variable
    # leaves Gamma_p singular, and the stacked S-LS covariance raises
    CASES = {
        2: ("LS", "S-LS", "BOOT"),
        1: ("LS", "S-LS"),
    }
    MESSAGES = {
        2: "numerical failure: singular regressor moment matrix (condition number ",
        1: "numerical failure: Gamma plug-in is not positive-definite (condition number ",
    }

    @staticmethod
    def _constant_member(monkeypatch, member):
        """Make ``member``'s first variable constant in the first simulated stack; returns the stack sizes."""
        simulate = mc_harness.simulate_varma_stack
        sizes = []

        def patched(spec, t, burn_in, seeds):
            samples = simulate(spec, t, burn_in, seeds)
            if not sizes:
                samples[member, :, 0] = 1.5
            sizes.append(len(seeds))
            return samples

        monkeypatch.setattr(mc_harness, "simulate_varma_stack", patched)
        return sizes

    @pytest.mark.parametrize("p", sorted(CASES))
    def test_member_alone_fails_and_is_retried(self, desk_spec, monkeypatch, p):
        cfg = tiny_config(desk_spec, p=p, methods=self.CASES[p], replications=6)
        truth = varma_true_irf(cfg.dgp, cfg.horizon)
        # a run scores the six replications as one chunk
        assert mc_harness._chunk_size(cfg) == 6
        want = mc_harness._run_chunk(cfg, truth, range(6))
        sizes = self._constant_member(monkeypatch, 3)
        got = mc_harness._run_chunk(cfg, truth, range(6))

        assert sizes == [6, 1]
        retry = substream(cfg.seed, 3, 1)
        y = simulate_varma(cfg.dgp, cfg.t, cfg.effective_burn_in, substream(retry, 0)).values
        assert records_equal(got[3], one_sample_record(cfg, truth, y, retry))
        for r in (0, 1, 2, 4, 5):
            assert records_equal(got[r], want[r])
            y = simulate_varma(cfg.dgp, cfg.t, cfg.effective_burn_in, substream(cfg.seed, r, 0))
            assert records_equal(got[r], one_sample_record(cfg, truth, y.values, substream(cfg.seed, r)))

    @pytest.mark.parametrize("p", sorted(CASES))
    def test_stack_and_member_raise_and_ci_exits_3(self, desk_spec, tmp_path, capsys, p):
        cfg = tiny_config(desk_spec, p=p, methods=self.CASES[p], replications=4)
        truth = varma_true_irf(cfg.dgp, cfg.horizon)
        seeds = [substream(cfg.seed, r) for r in range(4)]
        samples = mc_harness.simulate_varma_stack(
            cfg.dgp, cfg.t, cfg.effective_burn_in, [substream(s, 0) for s in seeds]
        )
        samples[2, :, 0] = 1.5
        # the fit (p = 2) or a later stacked step (p = 1) raises, and the sample raises alone too
        with pytest.raises(SingularMatrixError):
            mc_harness._run_replication(cfg, truth, samples, seeds)
        with pytest.raises(SingularMatrixError):
            mc_harness._run_replication(cfg, truth, samples[2:3], seeds[2:3])

        data, out = tmp_path / "y.csv", tmp_path / "ci.csv"
        cli.write_sample_csv(str(data), SamplePath(2, cfg.t, samples[2]))
        argv = ["ci", str(data), "--p", str(p), "--H", str(cfg.horizon), "--M", "20"]
        argv += ["--methods", ",".join(cfg.methods), "--seed", "5", "--out", str(out)]
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith(self.MESSAGES[p])
        assert not out.exists()


class TestIntervalSetsForSample:
    def test_all_methods_present(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 8)
        sets = interval_sets_for_sample(
            y, 2, 4, 0.95, ("LS", "S-LS", "BOOT", "BOOT-db"), 20, 5
        )
        assert set(sets) == {"LS", "S-LS", "BOOT", "BOOT-db"}
        for method, iv in sets.items():
            assert iv.method == method
            assert iv.points.shape == (5, 2, 2)

    def test_sample_fitted_once_and_refit_per_draw(self, desk_spec, monkeypatch):
        # one fit of the sample for all methods; BOOT refits M draws and
        # BOOT-db 2 M, all in stacked solves and none through fit_var_ls.
        # BOOT-db's bias stage is BOOT's draws, so both together refit 2 M
        calls = {}

        def counting(module, attr, key, size=lambda *args: 1):
            fit = getattr(module, attr)

            def counted(*args, **kwargs):
                calls[key] += size(*args)
                return fit(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)

        counting(mc_harness, "fit_var_fits", "sample", lambda samples, *_: len(samples))
        counting(bootstrap_infer, "fit_var_ls", "per_draw")
        counting(bootstrap_infer, "fit_var_ls_stack", "stacked", lambda samples, *_: len(samples))
        y = simulate_varma(desk_spec, 150, 200, 8)
        for bundle, refits in (
            (("BOOT",), 20),
            (("BOOT-db",), 2 * 20),
            (("BOOT", "BOOT-db"), 2 * 20),
            (tuple(METHODS), 2 * 20),
        ):
            calls.update(sample=0, stacked=0, per_draw=0)
            interval_sets_for_sample(y, 2, 4, 0.95, bundle, 20, 5)
            assert calls == {"sample": 1, "stacked": refits, "per_draw": 0}, bundle

    @pytest.mark.parametrize("intercept", [False, True])
    def test_bootstrap_methods_bit_identical_in_any_bundle(self, desk_spec, intercept):
        # BOOT and BOOT-db read one fitted-model stage, drawn on the same
        # stream whichever asks; alone, as a pair or beside LS and S-LS,
        # each interval keeps its bits
        y = simulate_varma(desk_spec, 150, 200, 8)
        values = y.values + (4.0 if intercept else 0.0)
        bundles = (
            ("BOOT",),
            ("BOOT-db",),
            ("LS",),
            ("S-LS",),
            ("BOOT", "BOOT-db"),
            ("BOOT-db", "LS", "BOOT", "S-LS"),
        )
        for p, m in ((3, 7), (3, 20), (10, 7), (10, 20)):
            model, resid = fit_var_ls(values, p, intercept=intercept)
            fit = (model.ar_hat.mats, model.intercept, resid)
            runs = [
                interval_sets_for_sample(values, p, 5, 0.9, bundle, m, 5, intercept=intercept)
                for bundle in bundles
            ]
            want = {
                method: bootstrap_interval_sets(*fit, values, 5, m, 0.9, [method], 5)[method]
                for method in ("BOOT", "BOOT-db")
            }
            for bundle, sets in zip(bundles, runs):
                assert tuple(sets) == bundle
                for method, iv in sets.items():
                    alone = runs[bundles.index((method,))][method]
                    ref = want.get(method, (alone.points, alone.lowers, alone.uppers))
                    for got, expected in zip((iv.points, iv.lowers, iv.uppers), ref):
                        np.testing.assert_array_equal(got, expected)

    def test_one_dimensional_sample_is_one_column(self):
        # every method reads a 1-D sample as one variable
        y = np.random.default_rng(3).normal(size=100)
        flat = interval_sets_for_sample(y, 1, 4, 0.95, tuple(METHODS), 20, 1)
        column = interval_sets_for_sample(y[:, np.newaxis], 1, 4, 0.95, tuple(METHODS), 20, 1)
        for method in METHODS:
            for name in ("points", "lowers", "uppers"):
                np.testing.assert_array_equal(
                    getattr(flat[method], name), getattr(column[method], name)
                )

    @pytest.mark.parametrize("intercept", [False, True])
    def test_delta_methods_expand_the_fit_without_a_bootstrap(
        self, desk_spec, monkeypatch, intercept
    ):
        # LS and S-LS centre on the fitted IRFs, expanded alone, and never
        # enter the bootstrap
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("bootstrap ran")

        monkeypatch.setattr(mc_harness, "bootstrap_interval_sets", no_bootstrap)
        values = simulate_varma(desk_spec, 150, 200, 8).values + (4.0 if intercept else 0.0)
        sets = interval_sets_for_sample(values, 3, 5, 0.9, ("LS", "S-LS"), 20, 5, intercept)
        model, _ = fit_var_ls(values, 3, intercept=intercept)
        want = ma_from_ar(model.ar_hat.mats, 5)
        for iv in sets.values():
            np.testing.assert_array_equal(iv.points, want)

    def test_unknown_method_rejected_before_bootstrap(self, desk_spec, monkeypatch):
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("bootstrap ran")

        monkeypatch.setattr(mc_harness, "bootstrap_interval_sets", no_bootstrap)
        y = simulate_varma(desk_spec, 150, 200, 8)
        with pytest.raises(ConfigError, match="'FOO'"):
            interval_sets_for_sample(y, 2, 4, 0.95, ("BOOT", "FOO"), 20, 5)

    def test_one_table_entry_adds_a_delta_method(self, desk_spec, monkeypatch, tmp_path):
        # a delta method built like LS needs its METHODS entry and nothing else
        monkeypatch.setitem(mc_harness.METHODS, "LS-copy", mc_harness.METHODS["LS"])
        mc_harness.check_design(2, 4, 0.95, ("LS", "LS-copy"), 20)
        y = simulate_varma(desk_spec, 150, 200, 8)
        sets = interval_sets_for_sample(y, 2, 4, 0.95, ("LS", "LS-copy", "BOOT"), 20, 5)
        boot = interval_sets_for_sample(y, 2, 4, 0.95, ("BOOT",), 20, 5)["BOOT"]
        assert tuple(sets) == ("LS", "LS-copy", "BOOT")
        assert sets["LS-copy"].method == "LS-copy"
        for name in ("points", "lowers", "uppers"):
            np.testing.assert_array_equal(getattr(sets["LS-copy"], name), getattr(sets["LS"], name))
            np.testing.assert_array_equal(getattr(sets["BOOT"], name), getattr(boot, name))

        cli.write_sample_csv(str(tmp_path / "y.csv"), y)
        out = tmp_path / "ci.csv"
        argv = ["ci", str(tmp_path / "y.csv"), "--p", "2", "--H", "4", "--out", str(out)]
        assert cli.main(argv + ["--methods", "LS,LS-copy"]) == 0
        rows = [line.split(",", 1) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        ls = [rest for method, rest in rows if method == "LS"]
        copy = [rest for method, rest in rows if method == "LS-copy"]
        assert len(copy) == 5 * 2 * 2 and copy == ls


def invariance_sample():
    """A K=3 VAR(2) sample of T=150 with correlated innovations."""
    rng = np.random.default_rng(707)
    ar = random_stable_coeffs(rng, 3, 2, 0.8)
    sigma = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 0.5]])
    return simulate_varma(pure_ar_spec(ar, sigma), 150, 100, 708).values


def all_intervals(y, intercept=False):
    sets = interval_sets_for_sample(y, 2, 6, 0.9, tuple(METHODS), 30, 709, intercept=intercept)
    return {m: np.stack([iv.points, iv.lowers, iv.uppers]) for m, iv in sets.items()}


def assert_same_intervals(got, want, rel=1e-9):
    # rounding only: the tolerance scales with the largest entry of each method
    for method, arrays in want.items():
        err = np.abs(got[method] - arrays).max()
        assert err <= rel * np.abs(arrays).max(), (method, err)


class TestIntervalInvariance:
    """Invariances of every method's intervals that the theory guarantees."""

    @pytest.mark.parametrize("c", [3.7, 1e-3])
    def test_common_rescaling_leaves_intervals_unchanged(self, c):
        y = invariance_sample()
        assert_same_intervals(all_intervals(c * y), all_intervals(y))

    def test_permutation_maps_intervals(self):
        y = invariance_sample()
        perm = [2, 0, 1]
        # y_t -> P y_t maps Phi_i to P Phi_i P'
        want = {m: a[:, :, perm][:, :, :, perm] for m, a in all_intervals(y).items()}
        assert_same_intervals(all_intervals(y[:, perm]), want)

    @pytest.mark.parametrize("method", tuple(METHODS))
    def test_mean_shift_with_intercept_leaves_intervals_unchanged(self, method):
        y = invariance_sample()
        shifted = y + np.array([5.0, -3.0, 0.5])
        got, want = all_intervals(shifted, True), all_intervals(y, True)
        assert_same_intervals({method: got[method]}, {method: want[method]})


class TestFlags:
    def _summary(self, *coverage_rows, methods=("S-LS",), level=0.95):
        cov = np.array(coverage_rows)
        shape = cov.shape + (1, 1)
        return McSummary(
            methods=methods,
            level=level,
            coverage=cov,
            avg_length=np.zeros_like(cov),
            entry_coverage=cov.reshape(shape),
            entry_length=np.zeros(shape),
            replications=100,
        )

    def test_under_and_over_detection(self):
        s = self._summary([1.0, 0.95, 0.80, 0.995])
        flags = coverage_flags(s)
        assert ("S-LS", 2, "under") in flags
        assert ("S-LS", 3, "over") in flags
        assert ("S-LS", 0, "over") in flags  # degenerate horizon-0 intervals

    @pytest.mark.parametrize("level", [0.95, 0.99])
    def test_thresholds_strict_and_flags_in_method_horizon_order(self, level):
        under, over = level - 0.1, min(1.0, level + 0.04)
        s = self._summary(
            [under, over, np.nextafter(under, 0.0), np.nextafter(over, 0.0)],
            [np.nextafter(over, 2.0), under, over, 0.0],
            methods=("LS", "S-LS"),
            level=level,
        )
        assert coverage_flags(s) == [
            ("LS", 2, "under"),
            ("S-LS", 0, "over"),
            ("S-LS", 3, "under"),
        ]


class TestConfigValidation:
    def test_unknown_method_rejected(self, desk_spec):
        with pytest.raises(ConfigError, match="unknown methods"):
            tiny_config(desk_spec, methods=("LS", "WILD"))

    def test_empty_methods_rejected(self, desk_spec):
        with pytest.raises(ConfigError):
            tiny_config(desk_spec, methods=())

    def test_bad_level_rejected(self, desk_spec):
        with pytest.raises(ConfigError):
            tiny_config(desk_spec, level=1.5)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_sample_no_fit_could_use_rejected(self, desk_spec, intercept):
        # p = 2, K = 2: t = 6 leaves 4 rows for 4 regressors, t = 7 5 rows for 5 with an intercept
        t = 6 + intercept
        with pytest.raises(ConfigError, match=rf"^t = {t} leaves {t - 2} rows for {t - 2} regressors at p = 2"):
            tiny_config(desk_spec, t=t, intercept=intercept)
        assert tiny_config(desk_spec, t=t + 1, intercept=intercept).t == t + 1

    def test_white_noise_dgp_accepted(self):
        cfg = tiny_config(white_noise_spec(2), p=1, horizon=1, methods=("LS",))
        s = run_experiment(cfg)
        assert s.coverage.shape == (1, 2)


def _threads():
    return len(os.listdir("/proc/self/task"))


def _replicate_and_count_threads():
    """This process's threads before and after p = 10 and p = 30 replications, a ci-k4 bootstrap and a Kp = 120 covariance."""
    before = _threads()
    for preset, overrides in (
        ("fig2-desk", {}),
        ("fig2-desk", {"intercept": True}),
        ("counterex-desk-p30", {}),
        ("counterex-desk-p30", {"intercept": True}),
        ("counterex-desk-p30", {"t": 3000}),
    ):
        obj = dict(cli.PRESETS[preset](), replications=1, **overrides)
        cfg = cli.parse_experiment_config(obj, Namespace(workers=None, seed=None))
        truth = varma_true_irf(cfg.dgp, cfg.horizon)
        mc_harness._run_chunk(cfg, truth, range(1))
    # a K = 4, p = 8 fit: a 36-column Gram
    spec = pure_ar_spec(random_stable_coeffs(np.random.default_rng(8), 4, 1, 0.8))
    fit_var_ls(simulate_varma(spec, 1000, 100, 8), 8)
    # the bootstrap of a `sievevar ci` call at K = 4, T = 600, p = 6
    y = simulate_varma(spec, 600, 100, 9).values
    model, resid = fit_var_ls(y, 6)
    bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 24, 64, 0.95, ("BOOT", "BOOT-db"), 9)
    # the triangular inverse at K = 4, p = 30; a K = 4, p = 30 fit itself
    # still threads in its solve, so the Gamma is given, without a product
    lags = np.arange(120)
    gamma = 0.5 ** np.abs(np.subtract.outer(lags, lags))
    irf_covariances(ma_from_ar(np.zeros((30, 4, 4)), 24), gamma, np.eye(4))
    return before, _threads()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not blas_is_openblas(),
    reason="counts threads in /proc/self/task, and the threading sizes are OpenBLAS's",
)
def test_forked_worker_starts_no_blas_thread():
    # a forked worker holds one thread until a BLAS call above OpenBLAS's
    # threading sizes starts the library's thread server in it
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_replicate_and_count_threads).result(timeout=300) == (1, 1)


_PROBE_ON_KERNELS = """
import json, multiprocessing
from concurrent.futures import ProcessPoolExecutor
import conftest, test_mc_harness
corename, counts = conftest.openblas_corename(), None
if corename in ("Haswell", "Zen"):
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        counts = pool.submit(test_mc_harness._replicate_and_count_threads).result(timeout=300)
print(json.dumps([corename, counts]))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not blas_is_openblas() or not cpu_has("avx2", "fma"),
    reason="counts threads in /proc/self/task, and OpenBLAS's Haswell kernels need AVX2 and FMA",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_forked_worker_starts_no_blas_thread_on_other_kernels(coretype):
    # OpenBLAS picks its kernels when it loads, so the probe runs in a fresh
    # interpreter; AVX2-only Intel and AMD Zen machines get these kernels,
    # whose threading sizes differ from those of the CPU running the suite
    done = run_python(_PROBE_ON_KERNELS, OPENBLAS_CORETYPE=coretype)
    assert done.returncode == 0, done.stderr
    corename, counts = json.loads(done.stdout.splitlines()[-1])
    if counts is None:
        pytest.skip(f"this OpenBLAS ignores OPENBLAS_CORETYPE={coretype} (kernels {corename})")
    assert counts == [1, 1]


def p30_config(workers, replications=10):
    """A counterex-desk-p30 run of ``replications`` on ``workers`` processes, the bench's op."""
    obj = dict(cli.PRESETS["counterex-desk-p30"](), replications=replications)
    return cli.parse_experiment_config(obj, Namespace(workers=workers, seed=None))


def worker_pids():
    """Pids of this process's live pool workers, sorted."""
    return sorted(p.pid for p in multiprocessing.active_children())


def alive(pid):
    return Path(f"/proc/{pid}").exists()


def parent_pid(_):
    return os.getppid()


def assert_same_summary(got, want):
    assert (got.replications, got.failures) == (want.replications, want.failures)
    for name in ("coverage", "avg_length", "entry_coverage", "entry_length"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def run_python(code, **env):
    """A fresh interpreter's run of ``code`` under ``env``, with this package and this test module importable."""
    here = Path(__file__).parent
    path = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=300,
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads worker pids from /proc")
class TestWorkerPool:
    """One worker pool per process: reused by calls of one count, replaced on another."""

    def test_calls_of_one_count_reuse_the_workers(self, desk_spec):
        cfg = tiny_config(desk_spec, workers=2)
        want = run_experiment(dataclasses.replace(cfg, workers=1))
        assert_same_summary(run_experiment(cfg), want)
        pids = worker_pids()
        assert len(pids) == 2
        assert_same_summary(run_experiment(cfg), want)
        assert worker_pids() == pids

    def test_a_run_starts_no_more_workers_than_chunks(self):
        # R = 2 at workers 3 is two chunks of one replication, on two
        # workers; R = 1 at workers 2 is one chunk, run in this process
        assert_same_summary(run_experiment(p30_config(3, 2)), run_experiment(p30_config(1, 2)))
        pids = worker_pids()
        assert len(pids) == 2
        assert_same_summary(run_experiment(p30_config(2, 1)), run_experiment(p30_config(1, 1)))
        assert worker_pids() == pids

    def test_new_count_replaces_the_workers(self, desk_spec, monkeypatch):
        # the old pool's workers and threads are gone before the new pool starts
        at_start = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                at_start.append((worker_pids(), threading.active_count()))
                super().__init__(*args, **kwargs)

        cfg = tiny_config(desk_spec, workers=2)
        run_experiment(cfg)
        old, threads = worker_pids(), threading.active_count()
        monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", Recording)
        run_experiment(dataclasses.replace(cfg, workers=3))
        new = worker_pids()
        assert len(new) == 3 and not set(old) & set(new)
        assert not any(alive(pid) for pid in old)
        assert len(at_start) == 1
        assert at_start[0][0] == [] and at_start[0][1] < threads

    def test_new_methods_table_replaces_the_workers(self, desk_spec, monkeypatch):
        # an entry added after the pool forked reaches a fresh pool's workers
        cfg = tiny_config(desk_spec, workers=2)
        run_experiment(cfg)
        old = worker_pids()
        monkeypatch.setitem(mc_harness.METHODS, "LS-copy", mc_harness.METHODS["LS"])
        got = run_experiment(dataclasses.replace(cfg, methods=("LS", "LS-copy")))
        assert not set(old) & set(worker_pids())
        assert got.coverage[0].tobytes() == got.coverage[1].tobytes()
        assert got.avg_length[0].tobytes() == got.avg_length[1].tobytes()

    def test_worker_dead_between_calls_costs_no_run(self, desk_spec):
        cfg = tiny_config(desk_spec, workers=2)
        run_experiment(cfg)
        old = worker_pids()
        os.kill(old[0], signal.SIGKILL)
        # the pool reaps its dead worker once it sees the pool broken
        deadline = time.monotonic() + 10
        while alive(old[0]) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert_same_summary(run_experiment(cfg), run_experiment(dataclasses.replace(cfg, workers=1)))
        new = worker_pids()
        assert len(new) == 2 and not set(old) & set(new)

    @pytest.mark.parametrize("reused", [False, True])
    def test_pool_broken_by_its_own_run_raises(self, reused):
        # a worker that exits mid-task breaks a fresh pool and the fresh
        # pool a reused one is retried on; the next call starts afresh
        if reused:
            assert mc_harness._pool_map(2, abs, [-1, 2]) == [1, 2]
        with pytest.raises(BrokenProcessPool):
            mc_harness._pool_map(2, os._exit, [3, 3])
        assert mc_harness._pool is None
        assert mc_harness._pool_map(2, abs, [-4]) == [4]

    def test_threads_of_two_counts_take_turns(self, desk_spec):
        # runs on 2 and 3 workers from two threads at once: no run may find
        # the pool shut down under it, and every run gives the serial bytes
        cfg = tiny_config(desk_spec, workers=1)
        want = run_experiment(cfg)
        got, errors = [], []

        def runs(workers):
            try:
                for _ in range(4):
                    got.append(run_experiment(dataclasses.replace(cfg, workers=workers)))
            except Exception as exc:  # reported below: a thread's error is lost otherwise
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=runs, args=(w,)) for w in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(got) == 8
        for summary in got:
            assert_same_summary(summary, want)

    def test_interpreter_exits_and_leaves_no_worker(self):
        # two calls on one pool; concurrent.futures' exit handler ends it
        code = (
            "from sievevar import run_experiment\n"
            "from test_mc_harness import p30_config, worker_pids\n"
            "cfg = p30_config(2)\n"
            "run_experiment(cfg)\n"
            "run_experiment(cfg)\n"
            "print(*worker_pids())\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert not any(alive(pid) for pid in pids)

    def test_workers_fork_under_another_default_start_method(self):
        # Python 3.14 makes forkserver the default on Linux; its workers are
        # children of the server and hold none of this process's state, such
        # as a METHODS entry added before the pool started
        code = (
            "import multiprocessing, os\n"
            "multiprocessing.set_start_method('forkserver', force=True)\n"
            "from sievevar import mc_harness\n"
            "from test_mc_harness import parent_pid\n"
            "print(os.getpid(), *mc_harness._pool_map(2, parent_pid, range(4)))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        pid, *parents = [int(pid) for pid in done.stdout.split()]
        assert parents == [pid] * 4

    @pytest.mark.parametrize(
        "platform",
        [
            "sys.platform = 'darwin'",
            "multiprocessing.get_all_start_methods = lambda: ['spawn']",
        ],
        ids=["macos", "no-fork"],
    )
    def test_workers_spawn_where_the_platform_defaults_to_spawn(self, platform):
        # macOS has fork but defaults to spawn, and Windows has only spawn;
        # each task carries the config and the true responses, so spawned
        # workers give the bytes of one process
        code = (
            "import multiprocessing, sys\n"
            "import numpy\n"
            f"real = sys.platform\n{platform}\n"
            "from sievevar import mc_harness, run_experiment\n"
            "sys.platform = real\n"
            "from test_mc_harness import assert_same_summary, p30_config\n"
            "assert mc_harness._POOL_CONTEXT is None\n"
            "multiprocessing.set_start_method('spawn', force=True)\n"
            "want = run_experiment(p30_config(1, 4))\n"
            "assert_same_summary(run_experiment(p30_config(2, 4)), want)\n"
            "assert mc_harness._pool[1]._mp_context.get_start_method() == 'spawn'\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr

    def test_forked_child_runs_on_its_own_pool(self):
        # the parent's pool threads do not run in a forked child, so a
        # child that used the parent's pool would wait on it for ever
        code = (
            "import os, sys, time, traceback\n"
            "from sievevar import mc_harness, run_experiment\n"
            "from test_mc_harness import assert_same_summary, p30_config\n"
            "want = run_experiment(p30_config(1, 4))\n"
            "run_experiment(p30_config(2, 4))\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    code = 1\n"
            "    try:\n"
            "        assert_same_summary(run_experiment(p30_config(2, 4)), want)\n"
            "        mc_harness._pool[1].shutdown(wait=True)\n"
            "        code = 0\n"
            "    except BaseException:\n"
            "        traceback.print_exc()\n"
            "    finally:\n"
            "        os._exit(code)\n"
            "deadline = time.monotonic() + 60\n"
            "while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:\n"
            "    time.sleep(0.05)\n"
            "if not done[0]:\n"
            "    os.kill(pid, 9)\n"
            "    os.waitpid(pid, 0)\n"
            "    sys.exit('the forked child hung')\n"
            "sys.exit(os.waitstatus_to_exitcode(done[1]))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not blas_is_openblas(),
    reason="counts threads in /proc/<pid>/task, and the threading sizes are OpenBLAS's",
)
def test_reused_workers_stay_on_one_thread():
    # a BLAS thread server started in a reused worker would spin through every later call
    cfg = p30_config(2)
    run_experiment(cfg)
    pids = worker_pids()
    run_experiment(cfg)
    assert worker_pids() == pids
    assert [len(os.listdir(f"/proc/{pid}/task")) for pid in pids] == [1, 1]
