"""CLI contract: exit codes, CSV layouts, warnings, SVG structure."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sievevar import NonFiniteError, spectral_radius, companion_form
from sievevar import cli
from sievevar.cli import main
from sievevar.svgchart import render_mc_chart


def run_cli(*argv):
    return main(list(argv))


def desk_config(tmp_path, t=100, seed=42, a1=None):
    a1 = [[0.5, 0.1], [0.2, 0.4]] if a1 is None else a1
    cfg = {
        "schema": 1,
        "dgp": {
            "k": 2,
            "ar": [a1],
            "ma": [[[0.3, 0.0], [0.1, 0.2]]],
            "sigma_u": [[1.0, 0.0], [0.0, 1.0]],
        },
        "t": t,
        "seed": seed,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_header_and_t_rows(self, tmp_path):
        cfg = desk_config(tmp_path, t=50)
        out = tmp_path / "sample.csv"
        assert run_cli("simulate", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y1,y2"
        assert len(lines) == 51

    def test_same_seed_identical_files(self, tmp_path):
        cfg = desk_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", str(cfg), "--out", str(out1))
        run_cli("simulate", str(cfg), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_unstable_spec_exits_2_naming_radius(self, tmp_path, capsys):
        a1 = [[1.2, 0.0], [0.0, 0.5]]
        cfg = desk_config(tmp_path, a1=a1)
        out = tmp_path / "sample.csv"
        assert run_cli("simulate", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        radius = spectral_radius(companion_form(np.array([a1])))
        assert f"{radius:.6f}" in err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("simulate", str(bad), "--out", str(tmp_path / "x.csv")) == 2

    def test_wrong_schema_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert run_cli("simulate", str(bad), "--out", str(tmp_path / "x.csv")) == 2

    def test_missing_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIEVEVAR_SEED", raising=False)
        cfg_obj = json.loads(desk_config(tmp_path).read_text())
        del cfg_obj["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg_obj))
        assert run_cli("simulate", str(path), "--out", str(tmp_path / "x.csv")) == 2

    def test_env_seed_used_flag_wins(self, tmp_path, monkeypatch):
        cfg_obj = json.loads(desk_config(tmp_path).read_text())
        del cfg_obj["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg_obj))
        env_out = tmp_path / "env.csv"
        flag_out = tmp_path / "flag.csv"
        seeded_out = tmp_path / "seeded.csv"
        monkeypatch.setenv("SIEVEVAR_SEED", "42")
        run_cli("simulate", str(path), "--out", str(env_out))
        run_cli("simulate", str(path), "--out", str(flag_out), "--seed", "43")
        monkeypatch.delenv("SIEVEVAR_SEED")
        run_cli("simulate", str(path), "--out", str(seeded_out), "--seed", "42")
        assert env_out.read_bytes() == seeded_out.read_bytes()
        assert flag_out.read_bytes() != env_out.read_bytes()


@pytest.fixture
def sample_csv(tmp_path):
    cfg = desk_config(tmp_path, t=150, seed=7)
    out = tmp_path / "sample.csv"
    run_cli("simulate", str(cfg), "--out", str(out))
    return out


class TestCi:
    def test_extrapolation_warning_exactly_once(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "ci.csv"
        code = run_cli(
            "ci", str(sample_csv), "--p", "3", "--H", "8",
            "--methods", "LS,S-LS", "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("extrapolation") == 1

    def test_no_warning_within_p(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "ci.csv"
        run_cli(
            "ci", str(sample_csv), "--p", "4", "--H", "4",
            "--methods", "LS,S-LS", "--out", str(out),
        )
        assert "extrapolation" not in capsys.readouterr().err

    def test_column_layout_and_horizon_zero(self, sample_csv, tmp_path):
        out = tmp_path / "ci.csv"
        run_cli(
            "ci", str(sample_csv), "--p", "2", "--H", "3",
            "--methods", "LS,S-LS,BOOT", "--seed", "5", "--M", "20",
            "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "method,horizon,row,col,point,lower,upper"
        # methods in requested order, horizons ascending, entries row-major
        assert lines[1].startswith("LS,0,0,0,")
        assert len(lines) == 1 + 3 * 4 * 4
        for line in lines[1:]:
            parts = line.split(",")
            if parts[1] == "0":
                expected = "1.0" if parts[2] == parts[3] else "0.0"
                assert parts[4] == parts[5] == parts[6] == expected

    def test_singular_data_exits_3(self, tmp_path):
        data = tmp_path / "flat.csv"
        col = [str(float(v)) for v in np.sin(np.arange(30.0))]
        data.write_text("\n".join(f"{v},{v}" for v in col) + "\n")
        out = tmp_path / "ci.csv"
        assert run_cli("ci", str(data), "--p", "1", "--H", "2", "--out", str(out)) == 3

    def test_non_finite_bootstrap_exits_3(self, sample_csv, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NonFiniteError("BOOT draw 0: bootstrap pseudo-sample is not finite")

        monkeypatch.setattr(cli, "interval_sets_for_sample", explode)
        out = tmp_path / "ci.csv"
        code = run_cli("ci", str(sample_csv), "--p", "2", "--H", "3", "--methods", "BOOT",
                       "--seed", "5", "--out", str(out))
        assert code == 3
        assert "numerical failure: BOOT draw 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_data_exits_2(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert run_cli("ci", str(data), "--p", "1", "--H", "2", "--out", str(tmp_path / "o.csv")) == 2


@pytest.mark.parametrize(
    "command, change",
    [
        ("mc", {"p": 0}),
        ("mc", {"bootstrap_replications": 1}),
        ("ci", ["--p", "0"]),
        ("ci", ["--M", "1", "--methods", "BOOT"]),
        ("ci", ["--M", "1", "--methods", "LS,BOOT-db"]),
        ("ci", ["--level", "1.5"]),
        ("ci", ["--H", "-1"]),
    ],
)
def test_invalid_sizes_exit_2_before_fitting(command, change, sample_csv, tmp_path, capsys):
    if command == "mc":
        cfg = json.loads(desk_config(tmp_path).read_text())
        cfg.update(p=2, horizon=3, methods=["LS", "BOOT"], replications=2, bootstrap_replications=5)
        cfg.update(change)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        argv = ["mc", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["ci", str(sample_csv), "--p", "2", "--H", "3", "--seed", "5",
                "--out", str(tmp_path / "ci.csv"), *change]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "ci.csv").exists() and not (tmp_path / "out").exists()


class TestMc:
    def test_small_config_outputs(self, tmp_path, desk_spec):
        cfg = {
            "schema": 1,
            "dgp": {
                "k": 2,
                "ar": [desk_spec.ar.mats[0].tolist()],
                "ma": [desk_spec.ma.mats[0].tolist()],
                "sigma_u": desk_spec.sigma_u.tolist(),
            },
            "t": 100,
            "p": 2,
            "horizon": 3,
            "level": 0.95,
            "methods": ["LS", "S-LS"],
            "replications": 4,
            "bootstrap_replications": 10,
            "seed": 99,
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert run_cli("mc", str(path), "--out", str(out_dir)) == 0
        results = (out_dir / "mc_results.csv").read_text().splitlines()
        assert results[0] == "method,horizon,coverage,avg_length,replications,failures"
        assert len(results) == 1 + 2 * 4
        entries = (out_dir / "mc_entries.csv").read_text().splitlines()
        assert entries[0] == "method,horizon,row,col,coverage,avg_length"
        assert len(entries) == 1 + 2 * 4 * 4

    def test_preset_and_config_mutually_exclusive(self, tmp_path):
        assert run_cli("mc", "--out", str(tmp_path / "o")) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli("mc", "--preset", "nope", "--out", str(tmp_path / "o")) == 2

    def test_fig2_desk_preset_shape(self):
        from sievevar.cli import PRESETS, parse_experiment_config, build_parser

        obj = PRESETS["fig2-desk"]()
        args = build_parser().parse_args(["mc", "--preset", "fig2-desk", "--out", "x"])
        cfg = parse_experiment_config(obj, args)
        assert cfg.t == 300 and cfg.p == 10 and cfg.horizon == 30
        assert cfg.replications == 200
        assert cfg.methods == ("LS", "S-LS", "BOOT", "BOOT-db")

    def test_counterexample_preset_builds_planted_lags(self):
        from sievevar.cli import PRESETS, parse_varma_spec

        spec = parse_varma_spec(PRESETS["counterex-desk-p10"]()["dgp"])
        assert spec.p == 14
        assert np.all(spec.ar.mats[5] == 0.0)
        spec.validate()


class TestSpecJsonRoundTrip:
    def test_varma_spec_round_trip(self, desk_spec):
        from sievevar.cli import parse_varma_spec, varma_spec_to_json

        back = parse_varma_spec(varma_spec_to_json(desk_spec))
        assert back.k == desk_spec.k
        np.testing.assert_array_equal(back.ar.mats, desk_spec.ar.mats)
        np.testing.assert_array_equal(back.ma.mats, desk_spec.ma.mats)
        np.testing.assert_array_equal(back.sigma_u, desk_spec.sigma_u)


def synthetic_results(tmp_path, methods=("LS", "S-LS", "BOOT", "BOOT-db"), h=12):
    path = tmp_path / "mc_results.csv"
    rows = ["method,horizon,coverage,avg_length,replications,failures"]
    rng = np.random.default_rng(3)
    for m in methods:
        for i in range(h + 1):
            cov = 0.9 + 0.08 * rng.random()
            rows.append(f"{m},{i},{cov},{0.5 * 0.8 ** i},100,0")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestPlot:
    def test_wellformed_svg_with_threshold_and_series(self, tmp_path):
        results = synthetic_results(tmp_path)
        out = tmp_path / "chart.svg"
        assert run_cli("plot", str(results), "--p", "10", "--out", str(out)) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        lines = [e for e in root.iter(f"{ns}line") if e.get("class") == "threshold"]
        assert len(lines) == 1
        panels = [e for e in root.iter(f"{ns}g") if e.get("id", "").startswith("panel-")]
        assert len(panels) == 2
        for panel in panels:
            series = [e for e in panel.iter(f"{ns}polyline") if e.get("class") == "series"]
            assert len(series) == 4

    def test_nominal_rule_present(self, tmp_path):
        svg = render_mc_chart(
            [{"method": "LS", "horizon": 0, "coverage": 1.0, "avg_length": 0.0},
             {"method": "LS", "horizon": 1, "coverage": 0.95, "avg_length": 0.4}],
            p=1,
            level=0.95,
        )
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert any(e.get("class") == "nominal" for e in root.iter(f"{ns}line"))

    def test_empty_results_exit_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("method,horizon,coverage,avg_length,replications,failures\n")
        assert run_cli("plot", str(path), "--p", "5", "--out", str(tmp_path / "c.svg")) == 2

    def test_missing_columns_exit_2(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("method,horizon,coverage\nLS,0,1.0\n")
        assert run_cli("plot", str(path), "--p", "5", "--out", str(tmp_path / "c.svg")) == 2


class TestDiag:
    def test_report_and_json(self, capsys):
        assert run_cli("diag", "--p", "10", "--T", "300") == 0
        out = capsys.readouterr().out
        assert "p^3 / T" in out
        blob = json.loads(out.strip().splitlines()[-1])
        assert blob["ratio_p3_t"] == pytest.approx(10 / 3)

    def test_alpha_and_tail(self, capsys):
        assert run_cli(
            "diag", "--p", "3", "--T", "100", "--alpha", "0.5", "--C", "1.0"
        ) == 0
        out = capsys.readouterr().out
        blob = json.loads(out.strip().splitlines()[-1])
        assert blob["tail_norm"] == pytest.approx(1.25)
