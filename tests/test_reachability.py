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

What the battery prints is a golden: tests/golden/battery.txt holds, for
each run, a header line `==> <run>: exit <code>`, its stdout, and its
stderr with each line marked `2> `.  The test compares the file byte for
byte with the same child run and names the first run that differs.
Regenerate it with `python tests/test_reachability.py --write`.

A function of src/adelweil/*.py is keyed by the line of its first
decorator, the line `co_firstlineno` reports (`ast` gives the `def`
line).  It passes when the battery enters it, when a rule allows it, or
when ALLOWED names it, or a class or function around it, with a reason.
The rules allow:
- the names in `adelweil.__all__` themselves, not the methods of an
  exported class;
- dunder methods themselves: a function nested in a dunder method must
  be reached or listed, as a method of an exported class must;
- every name the benchmark reads: the tracer's TARGETS and whatever is
  defined inside one, and what perfbench/child.py reads off the package,
  not the methods of a class it imports.
An ALLOWED entry is listed only if it carries one of the paper's
applications, a failure-only branch, or a read of the benchmark that
the rules cannot see (a method called on an object it built), and it
must excuse a function the battery does not enter.

Options are checked statically, with no child run.  An option is a
defaulted parameter of a def in src/adelweil/*.py.  It passes when some
call in src/adelweil, scripts/ or perfbench/ passes it, by keyword, by
position or through a `*`/`**` splat, or when OPTIONS_ALLOWED names it
with a reason; tests/ does not count, since an option only tests set
is a configuration no traffic runs.  The callee is matched by name
alone: a call of `name` or `x.name` counts for every def called
`name`, and a class name calls its `__init__`.  A method's self or cls
takes no positional argument; a staticmethod's first parameter does.
A stale OPTIONS_ALLOWED entry fails too.
"""

import ast
import contextlib
import difflib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_tracer_targets import _targets

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "adelweil"
CHILD = ROOT / "perfbench" / "child.py"
GOLDEN = ROOT / "tests" / "golden" / "battery.txt"
HEADER = "==> "
CALLERS = (PKG, ROOT / "scripts", ROOT / "perfbench")

# {(module, dotted def name, parameter): reason} for options no caller
# outside tests/ sets
OPTIONS_ALLOWED: dict = {}

ALLOWED = {
    ("scenarios", "_divisors"):
        "the curve adelic integral on a section with a nonzero rational "
        "root; the shipped sections vanish only at 0",
    ("sullivan", "_hits_as_family_cocycle"):
        "runs only when a de Rham comparison fails within the cap",
    ("simplicial", "DeltaMorphism"):
        "pullback_along's argument type; the tracer reads pullback_along",
    ("exactalg", "TruncatedSeries"):
        "perfbench/tracer.py wraps __mul__/__rmul__; tests/series_oracles.py "
        "builds on it (ROADMAP 9)",
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


def battery() -> list:
    """Run the traffic; return (header, stdout, stderr) of each CLI argv
    and of each script, the header naming the run and its exit code."""
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

    def captured(name, fn):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fn()
        return f"{name}: exit {code}", out.getvalue(), err.getvalue()

    def script(module, *args):
        sys.argv = [f"{module.__name__}.py", *args]
        return module.main()

    runs = [captured("adelweil " + " ".join(argv), lambda a=argv: cli.main(a))
            for argv in argvs]
    runs.append(captured("scripts/regen_data.py --check",
                         lambda: regen_data.main(["--check"])))
    runs.append(captured("scripts/bott_table.py --max-degree 2",
                         lambda: script(bott_table, "--max-degree", "2")))
    runs.append(captured(
        "scripts/derham_table.py --max-dim 2 --weight-cap 3",
        lambda: script(derham_table, "--max-dim", "2", "--weight-cap", "3")))
    return runs


def _sections(runs) -> list:
    """The golden's text of each run: its header line, its stdout, and its
    stderr with each line marked `2> `."""
    return [f"{HEADER}{header}\n{out}" + "".join(
        f"2> {line}" for line in err.splitlines(keepends=True))
        for header, out, err in runs]


@pytest.fixture(scope="module")
def child() -> tuple:
    """(runs, {(module, first line)} entered) from one child run."""
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["runs"], {tuple(key) for key in out["entered"]}


def test_battery_output_matches_the_golden(child):
    got, expect = "".join(_sections(child[0])), GOLDEN.read_bytes().decode()
    if got == expect:
        return
    split = re.compile(f"(?m)^(?={re.escape(HEADER)})").split
    first = next((e or g for g, e in zip(split(got) + [""],
                                         split(expect) + [""]) if g != e), "")
    named = first.partition("\n")[0]
    diff = "".join(difflib.unified_diff(
        expect.splitlines(keepends=True), got.splitlines(keepends=True),
        str(GOLDEN.relative_to(ROOT)), "this run"))
    pytest.fail(f"first run that differs: {named}\n(regenerate with python "
                f"tests/test_reachability.py --write)\n{diff}")


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


def _signatures(modules: dict) -> dict:
    """{called name: [(module, dotted name, positional parameters,
    defaulted parameters)]} of every def in `modules`, {module: source}.
    """
    out = {}

    def walk(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                static = any(isinstance(d, ast.Name) and
                             d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls and not static:
                    positional = positional[1:]
                entry = (module, prefix + child.name, tuple(positional),
                         tuple(defaulted))
                out.setdefault(child.name, []).append(entry)
                if cls and child.name == "__init__":
                    out.setdefault(cls, []).append(entry)
                walk(child, module, prefix + child.name + ".", None)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".", child.name)
            else:
                walk(child, module, prefix, cls)

    for module, source in modules.items():
        walk(ast.parse(source), module, "", None)
    return out


def _options(package: dict, callers) -> tuple:
    """(every option, the options no call sets), each as (module,
    dotted def name, parameter).  `package` is {module: source}; only
    the calls in the `callers` sources count.
    """
    signatures = _signatures(package)
    every = {(module, name, param)
             for entries in signatures.values()
             for module, name, _, defaulted in entries for param in defaulted}
    passed = set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            called = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            for module, name, positional, defaulted in \
                    signatures.get(called, ()):
                got = set()
                for k, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        got.update(positional[k:])
                        break
                    got.update(positional[k:k + 1])
                for keyword in call.keywords:
                    got.update(defaulted if keyword.arg is None
                               else (keyword.arg,))
                passed.update((module, name, param) for param in got)
    return every, every - passed


RULES_PACKAGE = """
def f(a, b=1, *, c=2): ...
def h(a=0, *, k=0): ...
def m(p=0, q=0): ...
class K:
    def __init__(self, x, y=0): ...
    def m(self, p, q=0): ...
    @classmethod
    def make(cls, u=0, v=0): ...
    @staticmethod
    def s(w=0, z=0): ...
"""

RULES_CALLS = """
f(1, c=3)
h(**kw)
K(1, 2)
K.make(*args)
K.s(1)
obj.m(0, 1)
g(b=1, y=1)
"""


def test_option_rules_read_calls():
    # no files: keyword, position and both splats; self and cls take no
    # argument, a staticmethod's first parameter does, a class name calls
    # its __init__, and `m` sets q of both defs of that name
    every, unset = _options({"mod": RULES_PACKAGE}, [RULES_CALLS])
    assert every == {
        ("mod", "f", "b"), ("mod", "f", "c"), ("mod", "h", "a"),
        ("mod", "h", "k"), ("mod", "m", "p"), ("mod", "m", "q"),
        ("mod", "K.__init__", "y"), ("mod", "K.m", "q"),
        ("mod", "K.make", "u"), ("mod", "K.make", "v"),
        ("mod", "K.s", "w"), ("mod", "K.s", "z")}
    assert unset == {("mod", "f", "b"), ("mod", "K.s", "z")}
    # only calls in the caller sources count, and a def is no call; a
    # keyword sets nothing on a name no def has (`g`)
    assert _options({"mod": RULES_PACKAGE + RULES_CALLS}, [])[1] == every
    assert _options({"mod": RULES_PACKAGE},
                    [RULES_PACKAGE + RULES_CALLS])[1] == unset


def test_every_option_is_set_by_a_caller_or_allowed():
    package = {path.stem: path.read_text()
               for path in sorted(PKG.glob("*.py"))}
    callers = [path.read_text() for folder in CALLERS
               for path in sorted(folder.glob("*.py"))]
    every, unset = _options(package, callers)
    assert every, "no options found in the package"
    unexcused = [f"{module}.py {name}({param}=)" for module, name, param
                 in sorted(unset - set(OPTIONS_ALLOWED))]
    assert not unexcused, \
        f"{len(unexcused)} of {len(every)} options set by no caller " \
        "outside tests/ and allowed by nothing:\n" + "\n".join(unexcused)
    assert set(OPTIONS_ALLOWED) - unset == set(), "stale allowlist entries"


def test_rules_read_dotted_names():
    # no child run: a dunder is a dunder method itself, and an entry
    # covers its own name and whatever is defined inside it
    assert _dunder("RingMatrix.__repr__") and _dunder("__getattr__")
    assert not _dunder("RingMatrix.__repr__.show")
    assert not _dunder("RingMatrix.render") and not _dunder("_dunder")
    allowed = {("exactalg", "QMatrix.rref"), ("residues", "_local_residue")}
    for name in ("QMatrix.rref", "QMatrix.rref.inner"):
        assert _covering(allowed, "exactalg", name) == \
            ("exactalg", "QMatrix.rref")
    assert _covering(allowed, "residues", "_local_residue.coords") == \
        ("residues", "_local_residue")
    for module, name in (("exactalg", "QMatrix"),
                         ("exactalg", "QMatrix.solve"),
                         ("exactalg", "QMatrix.rrefs"),
                         ("residues", "QMatrix.rref")):
        assert _covering(allowed, module, name) is None


def test_every_function_is_reached_or_allowed(child):
    entered = child[1]
    named = _exported() | _child_reads()
    traced = {(module, path) for module, path, *_ in _targets()}
    unreached, excused = [], set()
    for (module, line), name in sorted(_functions().items()):
        if (module, line) in entered or _dunder(name) or \
                (module, name) in named or _covering(traced, module, name):
            continue
        entry = _covering(ALLOWED, module, name)
        if entry:
            excused.add(entry)
        else:
            unreached.append(f"{module}.py:{line} {name}")
    assert unreached == [], "reached by nothing and allowed by nothing"
    assert set(ALLOWED) - excused == set(), "stale allowlist entries"


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    if sys.argv[1:] == ["--write"]:
        # regenerate the battery golden
        GOLDEN.write_text("".join(_sections(battery())))
        sys.exit(0)
    # the child: profile the battery from before adelweil is imported
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    runs = battery()
    sys.setprofile(None)
    print(json.dumps({"runs": runs, "entered": sorted(
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in entered if Path(code.co_filename).parent == PKG)}))
