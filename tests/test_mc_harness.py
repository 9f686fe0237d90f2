"""Experiment orchestration: aggregation, determinism, flags."""

import dataclasses

import numpy as np
import pytest

from sievevar import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    coverage_flags,
    interval_sets_for_sample,
    run_experiment,
    simulate_varma,
    white_noise_spec,
)
from sievevar import bootstrap_infer, mc_harness
from sievevar.mc_harness import VALID_METHODS, McSummary


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
        # one fit of the sample for all methods; BOOT refits M times and
        # BOOT-db 2 M times
        calls = {mc_harness: 0, bootstrap_infer: 0}

        def counting(module):
            fit = module.fit_var_ls

            def counted(*args, **kwargs):
                calls[module] += 1
                return fit(*args, **kwargs)

            return counted

        for module in calls:
            monkeypatch.setattr(module, "fit_var_ls", counting(module))
        y = simulate_varma(desk_spec, 150, 200, 8)
        interval_sets_for_sample(y, 2, 4, 0.95, VALID_METHODS, 20, 5)
        assert calls == {mc_harness: 1, bootstrap_infer: 3 * 20}


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
