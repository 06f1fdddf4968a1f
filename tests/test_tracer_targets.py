"""The benchmark tracer wraps package names; each must keep existing.

`perfbench/tracer.py` replaces every target by reading
`owner.__dict__[attr]`, so a refactor that drops or moves a wrapped
name would crash every traced benchmark child.  These tests fail first.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
GOLDEN = ROOT / "tests" / "golden"

# what a traced cli child of perfbench/child.py does: src first on the
# path, adelweil.cli and nothing else imported from the package, the
# wrappers installed through sys.modules, then main(argv) with stdout
# captured
TRACED_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import adelweil.cli
sys.path.insert(0, sys.argv[2])
from tracer import Tracer
Tracer().install()
for argv in json.loads(sys.argv[3]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = adelweil.cli.main(argv)
    print(json.dumps([code, buf.getvalue()]))
"""

TRACED_RUNS = [(["derham", "boundary-delta2.json"], "derham-boundary.txt"),
               (["verify-all"], "verify-all.txt")]


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for mod_name, path, *_ in targets:
        module = importlib.import_module(f"adelweil.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in owner.__dict__, f"adelweil.{mod_name}.{path}"


def test_traced_cli_child_matches_the_goldens():
    argvs = [argv for argv, _ in TRACED_RUNS]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(ROOT / "src"),
         str(TRACER.parent), json.dumps(argvs)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == len(TRACED_RUNS)
    for (code, stdout), (argv, golden) in zip(runs, TRACED_RUNS):
        assert code == 0, argv
        assert stdout.encode() == (GOLDEN / golden).read_bytes(), argv
