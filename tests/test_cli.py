"""CLI contract: exit codes, CSV layouts, warnings, SVG structure.

``tests/data/chart_golden.svg`` pins the bytes of ``render_mc_chart`` for
the rows of ``golden_chart``. Regenerate it only for an intended change of
output, with

    PYTHONPATH=src python tests/test_cli.py
"""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from sievevar import NonFiniteError, __version__, spectral_radius, companion_form
from sievevar import cli
from sievevar.cli import main
from sievevar import svgchart
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
        for p, horizon, span in (("3", "8", "horizons 4...8"), ("2", "3", "horizon 3")):
            code = run_cli(
                "ci", str(sample_csv), "--p", p, "--H", horizon,
                "--methods", "LS,S-LS", "--out", str(out),
            )
            assert code == 0
            err = capsys.readouterr().err
            assert err.count("extrapolation") == 1
            assert f"warning: sieve intervals for {span} exceed the fitted order p={p};" in err

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

    @pytest.mark.parametrize("rows, fits", [(9, False), (10, True)])
    def test_sample_without_residual_degree_of_freedom_exits_3(self, sample_csv, tmp_path, capsys, rows, fits):
        # a header line, then T rows; K = 2, p = 3: T - p must exceed Kp = 6
        data = tmp_path / "short.csv"
        data.write_text("".join(sample_csv.read_text().splitlines(keepends=True)[: rows + 1]))
        out = tmp_path / "ci.csv"
        code = run_cli("ci", str(data), "--p", "3", "--H", "2", "--methods", "LS,S-LS", "--out", str(out))
        assert (code, out.exists()) == ((0, True) if fits else (3, False))
        if not fits:
            assert "sample too small: t = 9 leaves 6 rows for 6 regressors at p = 3" in capsys.readouterr().err

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

    def test_first_row_mixing_numbers_and_text_exits_2(self, tmp_path, capsys):
        data = tmp_path / "mixed.csv"
        data.write_text("1,2x\n3,4\n5,6\n")
        out = tmp_path / "o.csv"
        assert run_cli("ci", str(data), "--p", "1", "--H", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}:1: ")
        assert not out.exists()

    def test_first_row_without_numbers_is_a_header(self, tmp_path):
        rows = "1,2\n3,5\n4,1\n"
        for header in ("y1,y2\n", "a,b\n", ""):
            (tmp_path / "data.csv").write_text(header + rows)
            sample = cli.read_sample_csv(str(tmp_path / "data.csv"))
            np.testing.assert_array_equal(sample.values, [[1, 2], [3, 5], [4, 1]])


BOOTSTRAP_M = "bootstrap replications must be >= 2 for a bootstrap method"


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("mc", {"p": 0}, "p must be >= 1"),
        ("mc", {"bootstrap_replications": 1}, BOOTSTRAP_M),
        ("mc", {"t": 0}, "t must be >= 1"),
        ("mc", {"burn_in": -3}, "burn_in must be >= 0"),
        ("mc", {"workers": -2}, "workers must be >= 1"),
        ("mc", ["--workers", "0"], "workers must be >= 1"),
        ("ci", ["--p", "0"], "p must be >= 1"),
        ("ci", ["--M", "1", "--methods", "BOOT"], BOOTSTRAP_M),
        ("ci", ["--M", "1", "--methods", "LS,BOOT-db"], BOOTSTRAP_M),
        ("ci", ["--level", "1.5"], "level must be in (0, 1)"),
        ("ci", ["--H", "-1"], "horizon must be >= 0"),
        ("ci", ["--methods", "LS,LS"], "methods must not repeat, got ['LS', 'LS']"),
        (
            "ci",
            ["--methods", "LS,FOO"],
            "unknown methods ['FOO']; valid: ['LS', 'S-LS', 'BOOT', 'BOOT-db']",
        ),
        ("mc", {"methods": ["LS", "BOOT", "LS"]}, "methods must not repeat, got ['LS', 'BOOT', 'LS']"),
        (
            "mc",
            {"t": 6},
            "t = 6 leaves 4 rows for 4 regressors at p = 2, so no sample could be fitted",
        ),
        (
            "mc",
            {"t": 24, "p": 10},
            "t = 24 leaves 14 rows for 20 regressors at p = 10, so no sample could be fitted",
        ),
    ],
)
def test_invalid_sizes_exit_2_before_fitting(command, change, message, sample_csv, tmp_path, capsys):
    if command == "mc":
        cfg = json.loads(desk_config(tmp_path).read_text())
        cfg.update(p=2, horizon=3, methods=["LS", "BOOT"], replications=2, bootstrap_replications=5)
        flags = change if isinstance(change, list) else []
        cfg.update({} if flags else change)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        argv = ["mc", str(path), "--out", str(tmp_path / "out"), *flags]
    else:
        argv = ["ci", str(sample_csv), "--p", "2", "--H", "3", "--seed", "5",
                "--out", str(tmp_path / "ci.csv"), *change]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ci.csv").exists() and not (tmp_path / "out").exists()


A1 = [[0.5, 0.1], [0.2, 0.4]]


@pytest.mark.parametrize(
    "command, dgp, change, field",
    [
        ("simulate", {"counterexample": {"base": A1, "plan": [[0, 1.0]]}}, {}, "plan lags"),
        ("simulate", {"counterexample": {"base": A1, "plan": [[1, 1.0], [1, 0.5]]}}, {}, "plan lags"),
        ("simulate", {"sigma_u": [[1, "x"], [0, 1]]}, {}, "dgp.sigma_u"),
        ("simulate", {"k": "two"}, {}, "dgp.k"),
        ("simulate", {}, {"t": "many"}, "t"),
        ("mc", {"k": "two"}, {}, "dgp.k"),
        ("simulate", {}, {"t": 0}, "t"),
        ("simulate", {}, {"burn_in": -3}, "burn_in"),
        ("simulate", {}, {"t": 50.7}, "t"),
        ("simulate", {}, {"burn_in": 2.5}, "burn_in"),
        ("simulate", {"k": 2.9}, {}, "dgp.k"),
        ("simulate", {"k": True}, {}, "dgp.k"),
        ("simulate", {"counterexample": {"base": A1, "plan": [[1.5, 1.0]]}}, {}, "plan lag"),
        ("simulate", {}, {"seed": 7.9}, "config seed"),
        ("mc", {}, {"p": 2.9}, "p"),
        ("mc", {}, {"p": True}, "p"),
        ("mc", {}, {"seed": 7.9}, "config seed"),
        ("mc", {}, {"seed": "7"}, "config seed"),
        ("mc", {}, {"intercept": "false"}, "intercept"),
        ("mc", {}, {"intercept": 0}, "intercept"),
        ("mc", {}, {"horizon": 3.5}, "horizon"),
        ("mc", {}, {"replications": "2"}, "replications"),
        ("mc", {}, {"bootstrap_replications": 10.5}, "bootstrap_replications"),
        ("mc", {}, {"burn_in": 1e-3}, "burn_in"),
        ("mc", {}, {"workers": 1.5}, "workers"),
        ("mc", {}, {"t": None}, "t"),
        ("mc", {}, {"level": "0.9"}, "level"),
        ("mc", {}, {"level": [0.9]}, "level"),
        ("simulate", {"counterexample": {"base": A1, "plan": [[1, "0.2"]]}}, {}, "plan scale"),
        ("mc", {"counterexample": {"base": A1, "plan": [[1, True]]}}, {}, "plan scale"),
        ("mc", {}, {"label": 5}, "label"),
        ("mc", {}, {"methods": "LS"}, "methods"),
        ("simulate", {"ar": [[["0.5", 0], [0, 0.4]]]}, {}, "dgp.ar"),
        ("mc", {"ar": [[[0.5, 0], [0, True]]]}, {}, "dgp.ar"),
        ("simulate", {"ma": [[[0.3, False], [0.1, 0.2]]]}, {}, "dgp.ma"),
        ("simulate", {"ma": [[[0.3, None], [0.1, 0.2]]]}, {}, "dgp.ma"),
        ("simulate", {"sigma_u": [["1", 0], [0, 1]]}, {}, "dgp.sigma_u"),
        ("mc", {"sigma_u": [[1, 0], [0, True]]}, {}, "dgp.sigma_u"),
        ("simulate", {"counterexample": {"base": [["0.5", 0.1], A1[1]]}}, {}, "counterexample.base"),
        ("mc", {"counterexample": {"base": [A1[0], [True, 0.4]]}}, {}, "counterexample.base"),
    ],
    ids=[
        "plan-lag-0", "plan-lag-twice", "sigma-u-text", "k-text", "t-text", "mc-k-text",
        "t-0", "burn-in-negative", "t-fraction", "burn-in-fraction", "k-fraction", "k-bool",
        "plan-lag-fraction", "seed-fraction", "mc-p-fraction", "mc-p-bool",
        "mc-seed-fraction", "mc-seed-text", "mc-intercept-text", "mc-intercept-int",
        "mc-horizon-fraction", "mc-replications-text", "mc-m-fraction", "mc-burn-in-fraction",
        "mc-workers-fraction", "mc-t-null", "mc-level-text", "mc-level-list",
        "plan-scale-text", "mc-plan-scale-bool", "mc-label-number", "mc-methods-text",
        "ar-text", "mc-ar-bool", "ma-bool", "ma-null", "sigma-u-number-text", "mc-sigma-u-bool",
        "base-text", "mc-base-bool",
    ],
)
def test_unconvertible_config_values_exit_2(command, dgp, change, field, tmp_path, capsys):
    cfg = json.loads(desk_config(tmp_path).read_text())
    cfg["dgp"].update(dgp)
    cfg.update(p=2, horizon=3, methods=["LS"], replications=2)
    cfg.update(change)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(command, str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{field} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize(
    "where, key",
    [
        ("config", "intercpt"),
        ("config", "bootstrap_replication"),
        ("dgp", "sigma"),
        ("counterexample", "plans"),
    ],
)
def test_unknown_config_key_exits_2_naming_it(command, where, key, tmp_path, capsys):
    # each would otherwise run with a default: no intercept, M = 300, identity Sigma_u
    cfg = json.loads(desk_config(tmp_path).read_text())
    cfg.update(p=2, horizon=3, methods=["LS"], replications=2)
    if where == "counterexample":
        cfg["dgp"]["counterexample"] = {"base": A1}
    table = {"config": cfg, "dgp": cfg["dgp"], "counterexample": cfg["dgp"].get("counterexample")}
    table[where][key] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(command, str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown key {key!r} in ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_every_preset_loads_as_a_config_file(name, tmp_path):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(cli.PRESETS[name]()))
    obj = cli.load_config(str(path))
    args = cli.build_parser().parse_args(["mc", str(path), "--out", "x"])
    assert cli.parse_experiment_config(obj, args).label == obj["label"]


def test_integral_floats_read_as_whole_numbers(tmp_path):
    cfg = json.loads(desk_config(tmp_path).read_text())
    csvs = []
    for name, values in (("ints", {"t": 40, "burn_in": 10}), ("floats", {"t": 40.0, "burn_in": 10.0})):
        cfg.update(values, seed=float(cfg["seed"]) if name == "floats" else cfg["seed"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", str(path), "--out", str(tmp_path / f"{name}.csv")) == 0
        csvs.append((tmp_path / f"{name}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_module_entry_point(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "sievevar.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    version = run("--version")
    assert version.returncode == 0 and version.stdout.strip() == f"sievevar {__version__}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 2}))
    failed = run("mc", str(bad), "--out", str(tmp_path / "out"))
    assert failed.returncode == 2
    assert failed.stderr.startswith("error: config schema must be 1")
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils would load all four, about 13 ms of every start-up
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, sievevar.cli\n"
        "print([m for m in ('urllib.request', 'http.client', 'ssl', 'email') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def blas_thread_runs(work: Path) -> None:
    """Write, under ``work``, `mc` on fig2-desk and counterex-desk-p30 at R = 4 and a bootstrap `ci`."""
    desk = cli.PRESETS["fig2-desk"]()
    configs = {
        "desk": desk,
        "desk4": dict(desk, replications=4),
        "cex4": dict(cli.PRESETS["counterex-desk-p30"](), replications=4),
    }
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    for name in ("desk4", "cex4"):
        assert main(["mc", str(work / f"{name}.json"), "--out", str(work / name)]) == 0
    assert main(["simulate", str(work / "desk.json"), "--out", str(work / "desk.csv")]) == 0
    assert main(["ci", str(work / "desk.csv"), "--p", "10", "--H", "30", "--methods", "BOOT,BOOT-db",
                 "--seed", "7", "--out", str(work / "both.csv")]) == 0


def test_one_blas_thread_gives_the_same_bytes(tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so a fresh interpreter
    here = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    runs = {name: tmp_path / name for name in ("default", "one")}
    for work in runs.values():
        work.mkdir()
    code = "import sys, test_cli; test_cli.blas_thread_runs(test_cli.Path(sys.argv[1]))"
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code, str(runs["one"])],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    blas_thread_runs(runs["default"])
    csvs = {
        name: {path.relative_to(work).as_posix(): path.read_bytes() for path in sorted(work.rglob("*.csv"))}
        for name, work in runs.items()
    }
    assert len(csvs["default"]) == 6
    assert csvs["one"] == csvs["default"]


# run in a fresh interpreter, in which any import of scipy fails
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")

sys.meta_path.insert(0, NoScipy())
from sievevar.cli import PRESETS, main

work = sys.argv[1]
desk = PRESETS["fig2-desk"]()
json.dump(desk, open(f"{work}/desk.json", "w"))
json.dump(dict(desk, replications=2), open(f"{work}/desk2.json", "w"))
codes = [
    main(["simulate", f"{work}/desk.json", "--out", f"{work}/desk.csv"]),
    main(["ci", f"{work}/desk.csv", "--p", "10", "--H", "12", "--methods", "LS,S-LS,BOOT,BOOT-db",
          "--M", "20", "--seed", "3", "--out", f"{work}/ci.csv"]),
    main(["mc", f"{work}/desk2.json", "--out", f"{work}/mc"]),
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_runs_without_scipy(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "scipy": []}
    assert (tmp_path / "ci.csv").is_file() and (tmp_path / "mc" / "mc_results.csv").is_file()


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

    @pytest.mark.parametrize(
        "dgp, message",
        [
            ({"ar": [[[1.2, 0.0], [0.0, 0.5]]]}, "companion spectral radius 1.200000"),
            ({"sigma_u": [[1.0, 0.0], [0.0, -1.0]]}, "sigma_u is not positive-definite"),
        ],
    )
    def test_invalid_dgp_exits_2_and_writes_nothing(self, tmp_path, capsys, dgp, message):
        cfg = json.loads(desk_config(tmp_path).read_text())
        cfg["dgp"].update(dgp)
        cfg.update(p=2, horizon=3, methods=["LS"], replications=2)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("mc", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_failed_experiment_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise cli.ExperimentError("2 of 2 replications failed (budget 1%)")

        monkeypatch.setattr(cli, "run_experiment", fail)
        cfg = json.loads(desk_config(tmp_path).read_text())
        cfg.update(p=2, horizon=3, methods=["LS"], replications=2)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("mc", str(path), "--out", str(tmp_path / "new" / "out")) == 3
        assert "replications failed" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

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


# values whose text form is easy to get wrong: a sum off its decimal, a
# signed zero, the smallest subnormal, a huge value and whole numbers
AWKWARD = [0.1 + 0.2, -0.0, 5e-324, 1e300, 2.0, -3.0, 1.0, 0.0]


class TestWriters:
    """Every CSV cell is ``repr(float(x))``, rows method -> horizon -> row -> col."""

    @staticmethod
    def lines(method, arrays, tail=()):
        """Expected rows, from explicit loops over horizon, then row and col."""
        cells = lambda at: [repr(float(a[at])) for a in arrays]  # noqa: E731
        if arrays[0].ndim == 1:
            return [
                ",".join([method, str(i), *cells(i), *map(str, tail)])
                for i in range(len(arrays[0]))
            ]
        h1, k = arrays[0].shape[:2]
        return [
            ",".join([method, str(i), str(r), str(c), *cells((i, r, c))])
            for i in range(h1)
            for r in range(k)
            for c in range(k)
        ]

    def test_interval_csv_bytes_and_order(self, tmp_path):
        from sievevar.delta_infer import IntervalSet

        sets = []
        for method, vals in (("LS", AWKWARD), ("BOOT", AWKWARD[::-1])):
            pts = np.array(vals).reshape(2, 2, 2)
            sets.append(IntervalSet(method, pts, -np.abs(pts), np.abs(pts)))
        path = tmp_path / "ci.csv"
        cli.write_interval_csv(str(path), sets)
        want = [",".join(cli.CI_COLUMNS)]
        for iv in sets:
            want += self.lines(iv.method, (iv.points, iv.lowers, iv.uppers))
        assert path.read_text() == "\n".join(want) + "\n"
        lines = path.read_text().splitlines()
        assert lines[1] == "LS,0,0,0,0.30000000000000004,-0.30000000000000004,0.30000000000000004"
        assert lines[2] == "LS,0,0,1,-0.0,-0.0,0.0"
        assert lines[3] == "LS,0,1,0,5e-324,-5e-324,5e-324"
        assert lines[4] == "LS,0,1,1,1e+300,-1e+300,1e+300"
        assert lines[5] == "LS,1,0,0,2.0,-2.0,2.0"
        assert lines[9] == "BOOT,0,0,0,0.0,-0.0,0.0"

    def test_mc_csv_bytes_and_order(self, tmp_path):
        from sievevar.mc_harness import McSummary

        entries = np.resize(AWKWARD, (2, 3, 2, 2))
        summary = McSummary(
            methods=("S-LS", "BOOT-db"),
            level=0.95,
            coverage=entries[:, :, 0, 0],
            avg_length=entries[:, :, 1, 1],
            entry_coverage=entries,
            entry_length=entries[..., ::-1],
            replications=7,
            failures=1,
        )
        results, per_entry = tmp_path / "mc_results.csv", tmp_path / "mc_entries.csv"
        cli.write_mc_results_csv(str(results), summary)
        cli.write_mc_entries_csv(str(per_entry), summary)
        want_results = [",".join(cli.MC_RESULT_COLUMNS)]
        want_entries = [",".join(cli.MC_ENTRY_COLUMNS)]
        for j, method in enumerate(summary.methods):
            want_results += self.lines(
                method, (summary.coverage[j], summary.avg_length[j]), (7, 1)
            )
            want_entries += self.lines(
                method, (summary.entry_coverage[j], summary.entry_length[j])
            )
        assert results.read_text() == "\n".join(want_results) + "\n"
        assert per_entry.read_text() == "\n".join(want_entries) + "\n"
        assert results.read_text().splitlines()[1] == "S-LS,0,0.30000000000000004,1e+300,7,1"
        assert per_entry.read_text().splitlines()[2] == "S-LS,0,0,1,-0.0,0.30000000000000004"


@pytest.mark.parametrize("command", ["ci", "simulate", "plot", "mc"])
def test_unwritable_output_exits_2_naming_it(command, sample_csv, tmp_path, capsys):
    # a path under a missing directory, or for mc an existing file
    out = tmp_path / "missing" / "x.out"
    if command == "ci":
        argv = ["ci", str(sample_csv), "--p", "2", "--H", "3", "--methods", "LS"]
    elif command == "simulate":
        argv = ["simulate", str(desk_config(tmp_path))]
    elif command == "plot":
        argv = ["plot", str(synthetic_results(tmp_path)), "--p", "10"]
    else:
        cfg = json.loads(desk_config(tmp_path).read_text())
        cfg.update(p=2, horizon=3, methods=["LS"], replications=2)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        argv = ["mc", str(path)]
        out = tmp_path / "taken"
        out.write_text("")
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()
    if command == "mc":
        assert out.read_text() == ""


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


CHART_GOLDEN = Path(__file__).parent / "data" / "chart_golden.svg"


def golden_chart() -> str:
    """``sievevar plot``'s output for fixed rows: five methods, one with markup in
    its name, horizons 0..30, one coverage above 1 and one length of 0."""
    rng = np.random.default_rng(36)
    rows = [
        {
            "method": m,
            "horizon": h,
            "coverage": 0.8 + 0.19 * rng.random(),
            "avg_length": (0.2 + rng.random()) * 0.9**h,
        }
        for m in ("LS", "S-LS", "BOOT", "BOOT-db", 'a&b "q"')
        for h in range(31)
    ]
    rows[3]["coverage"] = 1.04  # LS at horizon 3
    rows[31 + 5]["avg_length"] = 0.0  # S-LS at horizon 5
    return render_mc_chart(rows, p=10, level=0.95, title='<b>desk</b> & "p = 10"') + "\n"


class TestPlot:
    def test_chart_matches_golden_bytes(self):
        assert golden_chart().encode("utf-8") == CHART_GOLDEN.read_bytes()

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

    TRICKY = ("LS", "a&b", "<x>", 'q"uote', "it's", "both \" and '", "tab\there", "line\nbreak\r")

    def test_escaping_matches_saxutils(self, monkeypatch):
        from xml.sax import saxutils

        for text in self.TRICKY:
            assert svgchart._escape(text) == saxutils.escape(text)
            assert svgchart._quoteattr(text) == saxutils.quoteattr(text)
        rows = [
            {"method": m, "horizon": h, "coverage": 0.9, "avg_length": 0.5}
            for m in self.TRICKY
            for h in (0, 1)
        ]
        svg = render_mc_chart(rows, p=1, level=0.95, title="<T&C's \"chart\">")
        monkeypatch.setattr(svgchart, "_escape", saxutils.escape)
        monkeypatch.setattr(svgchart, "_quoteattr", saxutils.quoteattr)
        assert render_mc_chart(rows, p=1, level=0.95, title="<T&C's \"chart\">") == svg

    def test_empty_results_exit_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("method,horizon,coverage,avg_length,replications,failures\n")
        assert run_cli("plot", str(path), "--p", "5", "--out", str(tmp_path / "c.svg")) == 2

    def test_missing_columns_exit_2(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("method,horizon,coverage\nLS,0,1.0\n")
        assert run_cli("plot", str(path), "--p", "5", "--out", str(tmp_path / "c.svg")) == 2

    # (row, message, flags): a bad row is named by file and line, a bad flag by its name
    MALFORMED = [
        ("LS,1,abc,0.1,1,0", "could not convert string to float: 'abc'", ()),
        ("LS,1,0.9", "expected 6 fields", ()),
        ("LS,1,0.9,0.1,1,0,7", "expected 6 fields", ()),
        ("LS,1.5,0.9,0.1,1,0", "invalid literal for int() with base 10: '1.5'", ()),
        ("LS,1,nan,0.1,1,0", "coverage and avg_length must be finite", ()),
        ("LS,1,0.9,inf,1,0", "coverage and avg_length must be finite", ()),
        ("LS,-1,0.9,0.1,1,0", "horizon must be >= 0", ()),
        ("LS,1,1.5,0.1,1,0", "coverage must be in [0, 1]", ()),
        ("LS,1,-0.1,0.1,1,0", "coverage must be in [0, 1]", ()),
        ("LS,1,0.9,-0.3,1,0", "avg_length must be >= 0", ()),
        ("LS,0,0.9,0.1,1,0", "repeats method LS at horizon 0", ()),
        ("LS,1,0.9,0.1,1,0", "--level must be in (0, 1)", ("--level", "1.5")),
    ]

    @pytest.mark.parametrize(
        "row, message, flags",
        MALFORMED,
        ids=[" ".join(flags) or f"{row}-{message}" for row, message, flags in MALFORMED],
    )
    def test_malformed_row_exits_2_naming_file_and_line(
        self, tmp_path, capsys, row, message, flags
    ):
        path = tmp_path / "bad.csv"
        header = ",".join(cli.MC_RESULT_COLUMNS)
        path.write_text(f"{header}\nLS,0,1.0,0.0,1,0\n{row}\n")
        out = tmp_path / "c.svg"
        assert run_cli("plot", str(path), "--p", "5", "--out", str(out), *flags) == 2
        where = f"{path}:3: " if not flags else ""
        assert capsys.readouterr().err == f"error: {where}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("p", ["-3", "0"])
    def test_order_below_one_exits_2_before_reading_the_file(self, tmp_path, capsys, p):
        # the results file does not exist, so a check made after reading
        # would report that instead
        out = tmp_path / "c.svg"
        missing = tmp_path / "missing.csv"
        assert run_cli("plot", str(missing), "--p", p, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --p must be >= 1\n"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--p 0 --T 10", "--p must be >= 1"),
            ("--p 3 --T 1", "--T must be >= 2"),
            ("--p 3 --T 100 --alpha 0", "--alpha must be in (0, 1)"),
            ("--p 3 --T 100 --alpha 1.5", "--alpha must be in (0, 1)"),
            ("--p 3 --T 100 --alpha nan", "--alpha must be in (0, 1)"),
            ("--p 3 --T 100 --alpha 0.5 --C -1", "--C must be a finite number >= 0"),
            ("--p 3 --T 100 --alpha 0.5 --C inf", "--C must be a finite number >= 0"),
            ("--p 3 --T 100 --C 1", "--C needs --alpha"),
        ],
    )
    def test_invalid_flags_exit_2_before_any_report(self, capsys, flags, message):
        assert run_cli("diag", *flags.split()) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


if __name__ == "__main__":
    CHART_GOLDEN.write_bytes(golden_chart().encode("utf-8"))
