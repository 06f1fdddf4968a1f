"""Every function of the package runs on its real traffic, or says why not.

A child interpreter runs the battery under `sys.setprofile`, started
before `adelweil` is imported, so that no cache filled by another test
hides a call.  The battery:
- 95 CLI argvs: `verify-all` plain and `--json`; `residue` plain,
  `--json`, `--stability` and `--precision 6` on the three fractions;
  `bott` plain, `--stability` and `--json`, and `chern` on four chains,
  for each of the eight scenarios; `chern` on the Whitney scenario;
  `derham` plain, `--json`, `--weight-cap 2` and `--weight-cap 0` on the
  six spaces;
- `bott` with `--poly`, the one route to `parse_invariant_text`.  Of
  these 96 argvs, 83 exit 0, 12 exit 3 (`chern` on the P^2 scenarios,
  which carry no chart) and 1 exits 5 (the boundary of the 2-simplex at
  cap 0);
- `scripts/regen_data.py --check`, through its `main`, and the two table
  scripts at small sizes.

A function of src/adelweil/*.py is keyed by the line of its first
decorator, the line `co_firstlineno` reports (`ast` gives the `def`
line).  It passes when the battery enters it, when a rule allows it, or
when ALLOWED names it, or a class or function around it, with a reason.
The rules allow:
- the names in `adelweil.__all__` themselves, not the methods of an
  exported class;
- dunder methods;
- every name the benchmark reads (the tracer's TARGETS, and what
  perfbench/child.py reads off the package), and whatever is defined
  inside one.
An ALLOWED entry is listed only if it carries one of the paper's
applications, a failure-only branch, or a read of the benchmark that
the rules cannot see (a method called on an object it built), and it
must excuse a function the battery does not enter.
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from test_tracer_targets import _targets

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "adelweil"
CHILD = ROOT / "perfbench" / "child.py"

ALLOWED = {
    ("exactalg", "series_invert"):
        "Gauss-Bonnet and the transformation law invert series",
    ("residues", "coordinate_change_check"):
        "the transformation law of the local invariants",
    ("residues", "_const_term"):
        "simple_zero_invariant, the closed form at a simple zero",
    ("scenarios", "_divisors"):
        "the curve adelic integral on a section with a nonzero rational "
        "root; the shipped sections vanish only at 0",
    ("sullivan", "_hits_as_family_cocycle"):
        "runs only when a de Rham comparison fails within the cap",
    ("simplicial", "DeltaMorphism"):
        "pullback_along's argument type; the tracer reads pullback_along",
    ("exactalg", "TruncatedSeries"):
        "Gauss-Bonnet and the transformation law expand in series",
    ("exactalg", "MultiPoly.coefficient"):
        "simple_zero_invariant reads the linear terms of the field",
    ("dgforms", "DGContext.dt"):
        "the forms workload of perfbench/child.py builds connections "
        "with it",
    ("dgforms", "DiffForm.degree"):
        "transgression, which only the forms workload runs, checks that "
        "its entries are 1-forms",
    ("sullivan", "SullivanComplex.dim"):
        "the tracer's _family_dims hook reads the family dimensions",
}

CHAINS = ("x0", "x0,p0", "x0,p0,q1", "q1,inf")


def battery() -> dict:
    """Run the traffic; return the exit codes of the CLI argvs and of
    the scripts."""
    from adelweil import cli

    argvs = [["verify-all"], ["verify-all", "--json"]]
    for name in cli.FRACTION_FILES:
        argvs += [["residue", name, *flags] for flags in
                  ([], ["--json"], ["--stability"], ["--precision", "6"])]
    for name in cli.SCENARIO_FILES:
        argvs += [["bott", name, *flags]
                  for flags in ([], ["--stability"], ["--json"])]
        argvs += [["chern", name, "--chain", chain] for chain in CHAINS]
    argvs.append(["chern", cli.WHITNEY_FILE])
    for name in cli.SSET_FILES:
        argvs += [["derham", name, *flags] for flags in
                  ([], ["--json"], ["--weight-cap", "2"],
                   ["--weight-cap", "0"])]
    argvs.append(["bott", "p2-o1.json", "--poly", "c1^2"])

    import bott_table
    import derham_table
    import regen_data

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = {"cli": [cli.main(argv) for argv in argvs],
                 "scripts": [regen_data.main(["--check"])]}
        sys.argv = ["bott_table.py", "--max-degree", "2"]
        codes["scripts"].append(bott_table.main())
        sys.argv = ["derham_table.py", "--max-dim", "2", "--weight-cap", "3"]
        codes["scripts"].append(derham_table.main())
    return codes


def _entered() -> tuple:
    """(exit codes, {(module, first line)} entered) from a child run."""
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["codes"], {tuple(key) for key in out["entered"]}


def _functions() -> dict:
    """{(module, first line): dotted name} of every def in the package."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list],
                            default=child.lineno)
                out[module, first] = prefix + child.name
                walk(child, module, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PKG.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def _child_reads() -> set:
    """(module, dotted name) of what perfbench/child.py imports from the
    package, and of the attributes it reads off those imports."""
    tree = ast.parse(CHILD.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                node.module.startswith("adelweil"):
            module = node.module.partition(".")[2]
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    (module, alias.name) if module else (alias.name, "")
    out = {entry for entry in bound.values() if entry[1]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in bound:
            module, name = bound[node.value.id]
            out.add((module, f"{name}.{node.attr}" if name else node.attr))
    return out


def _exported() -> set:
    """(module, name) of each name in `adelweil.__all__`."""
    import adelweil

    return {(getattr(adelweil, name).__module__.rpartition(".")[2], name)
            for name in adelweil.__all__}


def _benchmark_reads() -> set:
    return {(module, path) for module, path, *_ in _targets()} \
        | _child_reads()


def _covering(allowed, module: str, name: str):
    """The entry of `allowed` that names `name` or a definition around
    it, if any."""
    parts = name.split(".")
    for k in range(1, len(parts) + 1):
        if (module, ".".join(parts[:k])) in allowed:
            return module, ".".join(parts[:k])
    return None


def _dunder(name: str) -> bool:
    last = name.rpartition(".")[2]
    return last.startswith("__") and last.endswith("__")


def test_every_function_is_reached_or_allowed():
    codes, entered = _entered()
    assert Counter(codes["cli"]) == {0: 83, 3: 12, 5: 1}
    assert codes["scripts"] == [0, 0, 0]
    exported, read = _exported(), _benchmark_reads()
    unreached, excused = [], set()
    for (module, line), name in sorted(_functions().items()):
        if (module, line) in entered or _dunder(name) or \
                (module, name) in exported or _covering(read, module, name):
            continue
        entry = _covering(ALLOWED, module, name)
        if entry:
            excused.add(entry)
        else:
            unreached.append(f"{module}.py:{line} {name}")
    assert unreached == [], "reached by nothing and allowed by nothing"
    assert set(ALLOWED) - excused == set(), "stale allowlist entries"


if __name__ == "__main__":
    # the child: profile the battery from before adelweil is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    codes = battery()
    sys.setprofile(None)
    print(json.dumps({"codes": codes, "entered": sorted(
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in entered if Path(code.co_filename).parent == PKG)}))
