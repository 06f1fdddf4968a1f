"""`scripts/regen_data.py --check` keeps the shipped data and their
generators (and the input checks the generators pass) in step."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "regen_data.py"
DATA = ROOT / "src" / "adelweil" / "data"


def _snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in directory.iterdir()}


def test_shipped_data_match_their_generators():
    before = _snapshot(DATA)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    n = len(list(DATA.glob("*.json")))
    assert proc.stdout == f"{n} of {n} data files match their generators\n"
    assert _snapshot(DATA) == before


def test_check_reports_drift_and_writes_nothing(tmp_path, monkeypatch,
                                                capsys):
    spec = importlib.util.spec_from_file_location("regen_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    data = tmp_path / "src" / "adelweil" / "data"
    shutil.copytree(DATA, data)
    n = len(list(data.glob("*.json")))
    edited = data / "delta1.json"
    edited.write_text(edited.read_text().replace('"01"', '"10"'))
    (data / "extra.json").write_text("{}\n")
    (data / "p1-o1.json").unlink()
    before = _snapshot(data)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "DATA", data)
    assert module.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "drift: src/adelweil/data/delta1.json",
        "drift: src/adelweil/data/extra.json",
        "drift: src/adelweil/data/p1-o1.json",
        # n generated files and the extra one; three of them drift
        f"{n - 2} of {n + 1} data files match their generators",
    ]
    assert _snapshot(data) == before
