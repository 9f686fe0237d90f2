"""Golden-output regression test for `sievevar mc`.

``tests/data/mc_golden/`` holds both CSVs of three runs at R = 4, written
by ``golden_mc_run``: the ``counterex-desk-p30`` preset without and with an
intercept, and the ``fig2-desk`` preset. The key columns must match exactly
and every float, coverage included, to a relative tolerance of 1e-10, so
that builds on other BLAS libraries still pass. Regenerate the files only
for an intended change of output, with

    PYTHONPATH=src python tests/test_mc_golden.py
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sievevar.cli import MC_ENTRY_COLUMNS, MC_RESULT_COLUMNS, PRESETS, main

GOLDEN = Path(__file__).parent / "data" / "mc_golden"
# run name: (preset, intercept)
RUNS = {
    "counterex-desk-p30": ("counterex-desk-p30", False),
    "counterex-desk-p30-intercept": ("counterex-desk-p30", True),
    "fig2-desk": ("fig2-desk", False),
}
REPLICATIONS = 4
# file: (columns, key columns); the other columns are floats
FILES = {
    "mc_results.csv": (MC_RESULT_COLUMNS, ("method", "horizon", "replications", "failures")),
    "mc_entries.csv": (MC_ENTRY_COLUMNS, ("method", "horizon", "row", "col")),
}
RTOL = 1e-10


def golden_mc_run(name: str, work: Path) -> Path:
    """Write run ``name``'s `sievevar mc` CSVs into a directory under ``work``."""
    preset, intercept = RUNS[name]
    cfg = dict(PRESETS[preset](), replications=REPLICATIONS, intercept=intercept)
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = work / name
    assert main(["mc", str(path), "--out", str(out)]) == 0
    return out


def _read(path: Path) -> tuple[list[tuple[str, ...]], np.ndarray]:
    columns, keys = FILES[path.name]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == columns
        rows = list(reader)
    floats = [c for c in columns if c not in keys]
    return (
        [tuple(row[c] for c in keys) for row in rows],
        np.array([[float(row[c]) for c in floats] for row in rows]),
    )


def _accepted(values: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Rows of ``values`` within the tolerance of ``want``'s rows.

    Horizon 0 lengths sit at zero, so the tolerance also scales with the
    largest entry of each column.
    """
    atol = RTOL * np.abs(want).max(axis=0)
    return np.all(np.abs(values - want) <= RTOL * np.abs(want) + atol, axis=1)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_mc_output_matches_golden(name, tmp_path):
    out = golden_mc_run(name, tmp_path)
    for file in FILES:
        keys, values = _read(out / file)
        want_keys, want = _read(GOLDEN / name / file)
        assert keys == want_keys, file
        assert _accepted(values, want).all(), file


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            out = golden_mc_run(name, Path(tmp))
            for file in FILES:
                new, old = out / file, GOLDEN / name / file
                lines = new.read_bytes().decode("utf-8").splitlines(keepends=True)
                if old.exists():
                    # keep each checked-in row that the test accepts, so that a
                    # regeneration diff shows only the rows an intended change moved
                    keys, values = _read(new)
                    old_keys, want = _read(old)
                    old_lines = old.read_bytes().decode("utf-8").splitlines(keepends=True)[1:]
                    if keys == old_keys:
                        for n, ok in enumerate(_accepted(values, want)):
                            if ok:
                                lines[n + 1] = old_lines[n]
                old.parent.mkdir(parents=True, exist_ok=True)
                old.write_bytes("".join(lines).encode("utf-8"))
    sys.exit(0)
