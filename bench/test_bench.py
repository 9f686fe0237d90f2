"""Tests of the benchmark itself: span arithmetic, metric names, tiny runs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "mc-desk": dict(
        reps_per_op=1,
        overrides=(("t", 60), ("p", 2), ("horizon", 3), ("bootstrap_replications", 10)),
    ),
    "mc-counterex": dict(reps_per_op=2, check_reps=2, overrides=(("t", 80), ("p", 3), ("horizon", 3))),
    "mc-counterex-w2": dict(reps_per_op=2, check_reps=2, overrides=(("t", 80), ("p", 3), ("horizon", 3))),
    "ci-k4": dict(t=100, p=2, horizon=3, m=20),
}


def test_self_time_of_nested_spans():
    spans = [
        Span("root", "m", 0.0, 10.0),
        Span("a", "m", 1.0, 4.0, parent=0),
        Span("b", "m", 5.0, 9.0, parent=0),
        Span("c", "m", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", "m", 0.0, 10.0), Span("a", "m", 1.0, 4.0, parent=0), Span("b", "m", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_wrapped_exception_is_the_original_object():
    class Boom(Exception):
        pass

    raised = Boom("singular")

    def fail():
        raise raised

    owner = type("mod", (), {"fail": staticmethod(fail)})
    tracer = Tracer()
    assert tracer.wrap(owner, "fail", "m.fail")
    with pytest.raises(Boom) as info:
        owner.fail()
    assert info.value is raised
    assert [s.error for s in tracer.spans] == [True]
    tracer.unwrap_all()
    assert owner.__dict__["fail"].__func__ is fail


def test_metric_names_are_valid_and_match_run_py():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == [(f"{layer}.{name}", unit, better) for layer, name, unit, better in layers.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, capsys):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    result = run.run(wl, seed=5, seconds=0.01, trace=trace, setup_repeats=1)
    assert result["correct"], capsys.readouterr().err
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_ls_oracle_catches_a_wrong_interval():
    lib = run.import_library()
    wl = dataclasses.replace(run.WORKLOADS["ci-k4"], **TINY["ci-k4"])
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_run-") as tmp:
        ctx = run.set_up(lib, wl, 5, Path(tmp))
        *_, good, _ = run.run_op(lib, wl, ctx, 7, 1, Path(tmp))
    assert run.check_ci_csv(lib, wl, good, ctx.sample) == []
    lines = good.decode().splitlines()
    row = lines[20].split(",")  # an LS row at horizon 1
    assert row[:2] == ["LS", "1"]
    row[5] = repr(float(row[5]) - 1e-6)
    bad = "\n".join(lines[:20] + [",".join(row)] + lines[21:]) + "\n"
    assert any("oracle" in p for p in run.check_ci_csv(lib, wl, bad.encode(), ctx.sample))


def test_fails_without_a_source_tree():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_run-") as tmp:
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc-desk", "--seed", "1", "--seconds", "1"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert done.returncode != 0
    assert done.stdout == ""
