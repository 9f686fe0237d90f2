"""Experiment orchestration: aggregation, determinism, flags."""

import dataclasses

import numpy as np
import pytest

from sievevar import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    bias_corrected_bootstrap,
    bootstrap_irf_distribution,
    coverage_flags,
    fit_var_ls,
    interval_sets_for_sample,
    ma_from_ar,
    percentile_ci,
    run_experiment,
    simulate_varma,
    white_noise_spec,
)
from sievevar import bootstrap_infer, mc_harness
from sievevar.mc_harness import VALID_METHODS, McSummary
from sievevar.streams import substream


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

    def test_invariant_to_worker_count(self, desk_spec):
        cfg = tiny_config(desk_spec, methods=("LS", "S-LS", "BOOT", "BOOT-db"))
        serial = run_experiment(cfg)
        parallel = run_experiment(dataclasses.replace(cfg, workers=4))
        assert np.array_equal(serial.coverage, parallel.coverage)
        assert np.array_equal(serial.avg_length, parallel.avg_length)
        assert np.array_equal(serial.entry_length, parallel.entry_length)

    def test_horizon_zero_exact(self, desk_spec):
        s = run_experiment(tiny_config(desk_spec, methods=("LS", "S-LS", "BOOT")))
        np.testing.assert_array_equal(s.coverage[:, 0], np.ones(3))
        np.testing.assert_array_equal(s.avg_length[:, 0], np.zeros(3))

    def test_single_replication_coverage_fractions(self, desk_spec):
        s = run_experiment(tiny_config(desk_spec, replications=1))
        # with one replication coverage is a multiple of 1/K^2
        assert np.all(np.isin(np.round(s.coverage * 4), np.arange(5)))

    def test_method_results_independent_of_bundle(self, desk_spec):
        joint = run_experiment(
            tiny_config(desk_spec, methods=("LS", "S-LS", "BOOT"))
        )
        solo = run_experiment(tiny_config(desk_spec, methods=("BOOT",)))
        j = joint.methods.index("BOOT")
        np.testing.assert_array_equal(joint.coverage[j], solo.coverage[0])
        np.testing.assert_array_equal(joint.avg_length[j], solo.avg_length[0])

    def test_replication_stability_bound(self, desk_spec):
        # doubling R moves coverage by less than 3 binomial standard errors
        base = tiny_config(desk_spec, t=200, replications=40, methods=("LS",), horizon=2)
        s1 = run_experiment(base)
        s2 = run_experiment(dataclasses.replace(base, replications=80))
        bound = 3 * np.sqrt(0.95 * 0.05 / 40)
        assert np.max(np.abs(s1.coverage - s2.coverage)) < bound


class TestIntervalSetsForSample:
    def test_all_methods_present(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 8)
        sets = interval_sets_for_sample(
            y, 2, 4, 0.95, ("LS", "S-LS", "BOOT", "BOOT-db"), 20, 5
        )
        assert set(sets) == {"LS", "S-LS", "BOOT", "BOOT-db"}
        for method, iv in sets.items():
            assert iv.method == method
            assert iv.horizon == 4

    def test_sample_fitted_once_and_refit_per_draw(self, desk_spec, monkeypatch):
        # one fit of the sample for all methods; BOOT refits M draws and
        # BOOT-db 2 M, all in stacked solves and none through fit_var_ls
        calls = {"sample": 0, "stacked": 0, "per_draw": 0}

        def counting(module, attr, key, size=lambda *args: 1):
            fit = getattr(module, attr)

            def counted(*args, **kwargs):
                calls[key] += size(*args)
                return fit(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)

        counting(mc_harness, "fit_var_ls", "sample")
        counting(bootstrap_infer, "fit_var_ls", "per_draw")
        counting(bootstrap_infer, "fit_var_ls_stack", "stacked", lambda samples, *_: len(samples))
        y = simulate_varma(desk_spec, 150, 200, 8)
        interval_sets_for_sample(y, 2, 4, 0.95, VALID_METHODS, 20, 5)
        assert calls == {"sample": 1, "stacked": 3 * 20, "per_draw": 0}

    @pytest.mark.parametrize("intercept", [False, True])
    def test_bootstrap_methods_bit_identical_in_any_bundle(self, desk_spec, intercept):
        # BOOT and BOOT-db share one pass when requested together; alone,
        # as a pair or beside LS and S-LS, each interval keeps its bits
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
        runs = [
            interval_sets_for_sample(values, 3, 5, 0.9, bundle, 20, 5, intercept=intercept)
            for bundle in bundles
        ]
        model, resid = fit_var_ls(values, 3, intercept=intercept)
        draws = bootstrap_irf_distribution(model, resid, values, 5, 20, substream(5, 10))
        want = {
            "BOOT": percentile_ci(draws, 0.9, points=ma_from_ar(model.ar_hat, 5), t=150),
            "BOOT-db": bias_corrected_bootstrap(
                model, resid, values, 5, 20, 0.9, substream(5, 11)
            ),
        }
        for bundle, sets in zip(bundles, runs):
            assert tuple(sets) == bundle
            for method, iv in sets.items():
                ref = want.get(method) or runs[bundles.index((method,))][method]
                for name in ("points", "lowers", "uppers"):
                    np.testing.assert_array_equal(getattr(iv, name), getattr(ref, name))

    def test_unknown_method_rejected_before_bootstrap(self, desk_spec, monkeypatch):
        def no_bootstrap(*args, **kwargs):
            raise AssertionError("bootstrap ran")

        monkeypatch.setattr(mc_harness, "bootstrap_interval_sets", no_bootstrap)
        y = simulate_varma(desk_spec, 150, 200, 8)
        with pytest.raises(ConfigError, match="'FOO'"):
            interval_sets_for_sample(y, 2, 4, 0.95, ("BOOT", "FOO"), 20, 5)


class TestFlags:
    def _summary(self, coverage_row):
        cov = np.array([coverage_row])
        shape = (1, len(coverage_row), 1, 1)
        return McSummary(
            methods=("S-LS",),
            level=0.95,
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

    def test_vacuous_thresholds_empty(self):
        s = self._summary([1.0, 0.5, 0.0])
        assert coverage_flags(s, under_threshold=0.0, over_threshold=1.0) == []


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

    def test_white_noise_dgp_accepted(self):
        cfg = tiny_config(white_noise_spec(2), p=1, horizon=1, methods=("LS",))
        s = run_experiment(cfg)
        assert s.coverage.shape == (1, 2)
