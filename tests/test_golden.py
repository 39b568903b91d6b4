"""Golden outputs: every configs/*.json rerun through the CLI against its
recorded tables in tests/golden/<config>/.

The goldens were written by `tuntime run configs/<config>.json --out
tests/golden/<config>` (run_info.json, which holds wall-clock data, is not
kept).  Headers, row counts, flag columns and text cells must match exactly
and manifest.json must parse to the same object.  Numeric cells must agree to
1e-12 relative; a cell that is rounding noise next to its column (the
integral causality margin is ~1e-32 fs beside margins of fs) is held to
1e-12 of the column's largest magnitude instead.  Bytes are not compared:
BLAS threading moves the last digit of the packet tables, and the
central-difference columns (phase, BL and packet-averaged phase times)
amplify any change in a table's rounding by about E/(2h) = 5e5, so a product
that rounds differently moves them by ~1e-10 relative.

A failing config lists every moved numeric column with its count of moved
cells, of cells beyond tolerance and its largest relative move, so that a
change that moves a golden can account for every digit.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from tuntime.cli import FLAGS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def _read(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def test_every_config_has_a_golden():
    assert CONFIGS == sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


@pytest.mark.parametrize("config", CONFIGS)
def test_config_reproduces_golden(config, tmp_path):
    assert main(["run", str(ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / config).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir() if p.name != "run_info.json") == expected

    moved = []  # (file, column, cells moved, cells out of tolerance, largest relative move)
    for name in expected:
        if name == "manifest.json":
            assert (json.loads((tmp_path / name).read_text())
                    == json.loads((GOLDEN / config / name).read_text()))
            continue
        header, rows = _read(tmp_path / name)
        g_header, g_rows = _read(GOLDEN / config / name)
        assert header == g_header, name
        assert len(rows) == len(g_rows), name
        for col, title in enumerate(header):
            got = [row[col] for row in rows]
            want = [row[col] for row in g_rows]
            if title in FLAGS or any(_number(c) is None for c in want):
                assert got == want, (name, title)
                continue
            want_f = [_number(c) for c in want]
            scale = max((abs(v) for v in want_f if math.isfinite(v)), default=0.0)
            n_moved = n_bad = 0
            largest = 0.0
            for i, (g, w) in enumerate(zip(got, want_f)):
                g = _number(g)
                assert g is not None, (name, title, i)
                if math.isnan(w):
                    assert math.isnan(g), (name, title, i)
                elif g != w:
                    n_moved += 1
                    n_bad += not math.isclose(g, w, rel_tol=REL, abs_tol=REL * scale)
                    largest = max(largest, abs(g - w) / abs(w) if w else math.inf)
            if n_moved:
                moved.append((name, title, n_moved, n_bad, largest))
    report = "\n".join(f"{name} {title}: {n} cells moved, {bad} beyond {REL:g}, "
                       f"largest relative move {largest:.2g}"
                       for name, title, n, bad, largest in moved)
    assert not any(bad for *_, bad, _ in moved), "moved columns:\n" + report
