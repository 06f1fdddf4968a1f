"""The table scripts run end to end at small sizes: every Bott sum of
`scripts/bott_table.py` equals its expected value, and every space of
`scripts/derham_table.py` passes the de Rham comparison."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rows(script: str, *args) -> list:
    """The lines a table script prints, after a successful run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bott_table_totals_match_their_expected_values():
    _, _, *rows = _rows("bott_table.py", "--max-degree", "2")
    # P^1: two degrees, the tangent bundle and the degenerate variant;
    # P^2: two degrees and the tangent bundle
    assert len(rows) == 7
    for row in rows:
        *_, total, expected = row.split()
        assert total == expected, row


def test_derham_table_rows_all_read_yes():
    _, *rows = _rows("derham_table.py", "--max-dim", "2", "--weight-cap", "3")
    # the simplices of dimension 0..2, the circle and two points
    assert len(rows) == 5
    for row in rows:
        assert row.split()[-1] == "yes", row
