"""Golden-output regression test for `sievevar ci`, plus the public namespace.

``tests/data/ci_golden.csv`` holds the output of the pipeline in
``golden_ci_csv``: a simulated K=2 sample, then `sievevar ci` with p=3,
H=8, M=50 and all four methods at a fixed seed. The key columns must match
exactly and the floats to a relative tolerance of 1e-10, so that builds on
other BLAS libraries still pass. Regenerate the file only for an intended
change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np

import sievevar
from sievevar.cli import CI_COLUMNS, main

GOLDEN = Path(__file__).parent / "data" / "ci_golden.csv"
KEY_COLUMNS = ("method", "horizon", "row", "col")
FLOAT_COLUMNS = ("point", "lower", "upper")
RTOL = 1e-10


def golden_ci_csv(work: Path) -> Path:
    """Simulate the K=2 sample and write its `sievevar ci` output under ``work``."""
    cfg = {
        "schema": 1,
        "dgp": {
            "k": 2,
            "ar": [[[0.5, 0.1], [0.2, 0.4]]],
            "ma": [[[0.3, 0.0], [0.1, 0.2]]],
            "sigma_u": [[1.0, 0.3], [0.3, 1.0]],
        },
        "t": 200,
        "seed": 20261018,
    }
    (work / "sim.json").write_text(json.dumps(cfg))
    assert main(["simulate", str(work / "sim.json"), "--out", str(work / "y.csv")]) == 0
    out = work / "irf_ci.csv"
    argv = [
        "ci", str(work / "y.csv"), "--p", "3", "--H", "8", "--M", "50",
        "--methods", "LS,S-LS,BOOT,BOOT-db", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    return out


def _read(path: Path) -> tuple[list[tuple[str, ...]], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CI_COLUMNS
        rows = list(reader)
    keys = [tuple(row[c] for c in KEY_COLUMNS) for row in rows]
    return keys, np.array([[float(row[c]) for c in FLOAT_COLUMNS] for row in rows])


def test_ci_output_matches_golden(tmp_path):
    keys, values = _read(golden_ci_csv(tmp_path))
    want_keys, want = _read(GOLDEN)
    assert keys == want_keys
    # horizon 0 and off-diagonal entries sit at zero, so the tolerance also
    # scales with the largest entry of each column
    atol = RTOL * np.abs(want).max(axis=0)
    assert np.all(np.abs(values - want) <= RTOL * np.abs(want) + atol)


def test_public_names_resolve():
    missing = [name for name in sievevar.__all__ if not hasattr(sievevar, name)]
    assert not missing


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_bytes(golden_ci_csv(Path(tmp)).read_bytes())
    sys.exit(0)
