import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adelweil import errors
from adelweil.cli import main, resolve_input
from adelweil.parsing import MAX_CHAIN, MAX_RANK
from adelweil.simplicial import (
    MAX_DIMENSION, boundary_simplex_sset, standard_simplex_sset,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def check_golden(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    expect = (GOLDEN / name).read_text()
    assert out == expect


# a cold process, without site hooks that load modules of their own:
# which modules `import adelweil.cli` loads, then one residue report
FOOTPRINT_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import adelweil.cli
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
adelweil.cli.main(["residue", "fraction-cusp.json"])
"""


def test_import_loads_only_what_a_run_uses():
    # dataclasses pulls in inspect, and hashlib OpenSSL; a digest loads
    # hashlib when a report computes one
    unused = ["dataclasses", "inspect", "hashlib", "_hashlib"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT_CHILD,
         str(Path(__file__).resolve().parent.parent / "src"), *unused],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, report = proc.stdout.split("\n", 1)
    assert loaded == "[]"
    assert "input: fraction-cusp.json sha256=2e6e35f2b3ca" in report


def test_residue_report_text(capsys):
    check_golden(capsys, ["residue", "fraction-cusp.json"],
                 "residue-cusp.txt")


def test_residue_report_json(capsys):
    check_golden(capsys, ["residue", "fraction-weighted-model.json",
                          "--json"], "residue-weighted.json")
    payload = json.loads((GOLDEN / "residue-weighted.json").read_text())
    assert payload["status"] == "PASS"
    assert payload["items"][0]["value"] == "-1"


def test_bott_report(capsys):
    check_golden(capsys, ["bott", "p2-tangent.json"], "bott-p2-tangent.txt")


def test_bott_with_explicit_polynomial(capsys):
    code, out, _ = run(capsys, ["bott", "p1-o2.json", "--poly", "c1"])
    assert code == 0
    assert "total: value=2 expected=2 [ok]" in out


def test_bott_with_uncalibrated_polynomial(capsys):
    # a different invariant computes fine but is not checked against
    # the shipped expectation
    code, out, _ = run(capsys, ["bott", "p2-tangent.json", "--poly",
                                "c1^2"])
    assert code == 0
    assert "expected" not in out


def test_chern_components_on_a_chain(capsys):
    check_golden(capsys, ["chern", "p1-o1.json", "--chain", "x0,p0"],
                 "chern-p1-o1.txt")
    out = (GOLDEN / "chern-p1-o1.txt").read_text()
    assert "component 1: value=1/f d f" in out


def test_chern_on_a_flat_chain(capsys):
    code, out, _ = run(capsys, ["chern", "p1-o1.json", "--chain", "q1,p0"])
    assert code == 0
    assert "component 1: value=0" in out


def test_chern_whitney_series(capsys):
    check_golden(capsys, ["chern", "p1-whitney.json"], "chern-whitney.txt")


def test_derham_report(capsys):
    check_golden(capsys, ["derham", "boundary-delta2.json"],
                 "derham-boundary.txt")


def test_verify_all_battery(capsys):
    check_golden(capsys, ["verify-all"], "verify-all.txt")


@pytest.mark.parametrize("name, corrupt, label", [
    ("fraction-plane.json", lambda d: d.update(expected="2"),
     "residue fraction-plane.json"),
    ("p1-o1.json", lambda d: d["zeros"][0].update({"lambda": [["-2"]]}),
     "bott p1-o1"),
], ids=["fraction-expected", "scenario-lambda"])
def test_verify_all_fails_on_a_corrupted_file(capsys, tmp_path, monkeypatch,
                                              name, corrupt, label):
    # inputs resolve from the working directory before the shipped data
    data = json.loads(Path(resolve_input(name)).read_text())
    corrupt(data)
    (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["verify-all"])
    assert code == 2
    expect = [line.replace("[ok]", "[FAIL]")
              if line.startswith(f"{label}:") else line
              for line in (GOLDEN / "verify-all.txt").read_text().splitlines()]
    expect[-1] = "status: FAIL"
    assert out.splitlines() == expect
    assert sum("FAIL" in line for line in expect) == 2


@pytest.mark.parametrize("edge, faces, message", [
    ("02", ["1", "0"], "face 0 of '02' is '1' with vertices [1], not [2]"),
    ("12", ["2", "2"], "face 1 of '12' is '2' with vertices [2], not [1]"),
])
def test_verify_all_rejects_faces_that_disagree_with_vertices(
        capsys, tmp_path, monkeypatch, edge, faces, message):
    # the simplicial identities still hold and the ranks stay 1,1,0, so
    # only the vertex tuples tell that the file is not the shipped circle
    name = "boundary-delta2.json"
    data = json.loads(Path(resolve_input(name)).read_text())
    data["faces"][edge] = faces
    (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["verify-all"])
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_renumbered_standard_simplex_keeps_its_ranks(capsys, tmp_path):
    # vertex numbers are labels: 5, 6, 7 in place of 0, 1, 2
    data = json.loads(Path(resolve_input("delta2.json")).read_text())
    data["vertices"] = {sid: [v + 5 for v in vs]
                        for sid, vs in data["vertices"].items()}
    path = tmp_path / "delta2-renumbered.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["derham", str(path)])
    assert code == 0, err
    _, shipped, _ = run(capsys, ["derham", "delta2.json"])
    # past the command and input lines: name, ranks, checks, status
    assert out.splitlines()[2:] == shipped.splitlines()[2:]


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("vertices"),
    lambda d: d.update(vertices={
        sid: [(3, 5, 8)[v] for v in vs]
        for sid, vs in d["vertices"].items()}),
], ids=["no-vertices", "renumbered-3-5-8"])
def test_standard_simplex_report_ignores_the_vertices(capsys, tmp_path,
                                                      edit):
    # the family solve reads positions off the faces, never off the
    # vertex numbers, so the vertex numbers, or their absence, leave
    # every line but the input alone
    data = json.loads(Path(resolve_input("delta2.json")).read_text())
    edit(data)
    path = tmp_path / "delta2-edited.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["derham", str(path)])
    assert code == 0, err
    _, shipped, _ = run(capsys, ["derham", "delta2.json"])

    def past_input(text):
        return [line for line in text.splitlines()
                if not line.startswith("input:")]
    assert past_input(out) == past_input(shipped)
    assert out != shipped


def test_one_error_class_per_exit_code():
    # main returns the exit_code of what it catches: every class but the
    # base carries one, and nothing in the package raises the base
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)}
    assert {name: getattr(cls, "exit_code", None)
            for name, cls in classes.items()} == {
        "EngineError": None, "ParseError": 3, "CapError": 5,
        "CheckFailed": 2, "NotAUnit": 3}
    bare = [f"{path.name}:{k}"
            for path in sorted(Path(errors.__file__).parent.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"raise\s+EngineError\b", line)]
    assert bare == []


def test_missing_input_exits_3(capsys):
    code, _, err = run(capsys, ["residue", "no-such-file.json"])
    assert code == 3 and "no such input" in err


def test_malformed_json_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, ["residue", str(bad)])
    assert code == 3


@pytest.mark.parametrize("command", ["residue", "bott", "derham", "chern"])
@pytest.mark.parametrize("content", [
    b'{"name": "caf\xe9"}',
    b"[" * 200_000 + b"]" * 200_000,
], ids=["not-utf8", "nested-200000"])
def test_unreadable_json_exits_3(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, [command, str(bad)])
    assert code == 3
    assert "error:" in err and "Traceback" not in err


def test_bad_polynomial_text_exits_3(capsys):
    code, _, _ = run(capsys, ["bott", "p1-o1.json", "--poly", "c1$"])
    assert code == 3


def test_degree_mismatch_exits_3(capsys):
    # the invariant does not apply to the scenario: no check runs
    assert run(capsys, ["bott", "p1-o2.json", "--poly", "c1^2"]) == \
        (3, "", "error: invariant degree 2 against dimension 1\n")


@pytest.mark.parametrize("argv, message, whitney_chain", [
    (["chern", "p1-o1.json"], "needs --chain", None),
    (["chern", "p1-whitney.json", "--chain", "x0"],
     "--chain applies to chart scenarios only", None),
    (["residue", "fraction-cusp.json", "--precision", "0"],
     "--precision must be at least 1, not 0", None),
    (["residue", "fraction-cusp.json", "--precision", "-3"],
     "--precision must be at least 1, not -3", None),
    (["chern", "p1-o1.json", "--chain", ","], "--chain names no point",
     None),
    (["chern", "p1-o1.json", "--chain", "x0,x0"],
     "--chain repeats a label: x0, x0", None),
    (["chern", "p1-whitney.json"], "whitney chain names no point", []),
    (["chern", "p1-whitney.json"],
     "whitney chain repeats a label: x0, p0, x0", ["x0", "p0", "x0"]),
    (["bott", "p1-o1.json", "--poly", ""], "empty expression", None),
], ids=["chart-without-chain", "whitney-with-chain", "precision-0",
        "precision-negative", "empty-chain", "repeated-chain",
        "empty-whitney-chain", "repeated-whitney-chain", "empty-poly"])
def test_options_that_cannot_apply_exit_3(capsys, tmp_path, monkeypatch,
                                          argv, message, whitney_chain):
    # nothing is checked on a misused option or chain: exit 3, never 2
    if whitney_chain is not None:
        data = json.loads(Path(resolve_input(argv[1])).read_text())
        data["whitney"]["chain"] = whitney_chain
        (tmp_path / argv[1]).write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert message in err


def test_unknown_chain_label_exits_3(capsys):
    assert run(capsys, ["chern", "p1-o1.json", "--chain", "x0,zz"]) == \
        (3, "", "error: no frame at 'zz' in p1-o1\n")


def test_positive_dimensional_ideal_exits_5(capsys, tmp_path):
    data = {"vars": ["f1", "f2"], "numerator": "1",
            "denominators": ["f1*f2", "f2"]}
    path = tmp_path / "thick.json"
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, ["residue", str(path)])
    assert code == 5


def test_failed_expectation_exits_2(capsys, tmp_path):
    data = {"vars": ["f"], "numerator": "-f", "denominators": ["f^2"],
            "expected": "7"}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["residue", str(path)])
    assert code == 2
    assert "[FAIL]" in out and "status: FAIL" in out


CHART = {"vars": ["f"], "rank": 1, "frames": {"x0": [["1"]]},
         "points": {"x0": None}}
NO_ZEROS = {"name": "bad", "n": 1, "r": 1, "zeros": []}


def _edited(name, edit):
    """A shipped file's data after `edit` changes it in place."""
    data = json.loads(Path(resolve_input(name)).read_text())
    edit(data)
    return data


@pytest.mark.parametrize("command, data", [
    ("bott", {"name": "bad", "n": 1, "r": 1, "zeros": [1, 2]}),
    ("residue", {"vars": ["f"], "numerator": "(" * 5000 + "f" + ")" * 5000,
                 "denominators": ["f"]}),
    ("chern", dict(NO_ZEROS, chart=dict(CHART, frames=[]))),
    ("bott", dict(NO_ZEROS, chart=dict(CHART, points=[]))),
    ("chern", dict(NO_ZEROS, r=2, whitney={
        "sub": CHART, "quot": CHART, "mixing": [], "chain": ["x0"]})),
    ("chern", dict(NO_ZEROS, r=2, whitney={
        "sub": dict(CHART, rank=5), "quot": CHART, "mixing": {},
        "chain": ["x0"]})),
    ("chern", dict(NO_ZEROS, r=2, whitney={
        "sub": CHART, "quot": CHART, "mixing": {}, "chain": [["x0"]]})),
    # past the interpreter's limit of 4300 digits per integer string
    ("residue", {"vars": ["f"], "numerator": "9" * 5000,
                 "denominators": ["f"]}),
    ("derham", {"name": "bad", "simplices": {"0": float("inf")}}),
    ("derham", _edited("delta1.json", lambda d: d["simplices"].update(
        {k: 1.5 for k, v in d["simplices"].items() if v == 1}))),
    ("derham", _edited("delta1.json", lambda d: d["simplices"].update(
        {k: True for k, v in d["simplices"].items() if v == 1}))),
    ("derham", _edited("delta1.json", lambda d: d["vertices"].update(
        {k: [True] for k, v in d["vertices"].items() if v == [1]}))),
    ("bott", _edited("p1-o1.json", lambda d: d.update(r=True))),
    ("bott", _edited("p1-o1.json", lambda d: d.update(n=True))),
    ("bott", _edited("p1-o1.json", lambda d: d.update(n=1.0))),
    ("bott", _edited("p1-o1.json", lambda d: d["curve"].update(degree=True))),
], ids=["non-object-zeros", "deep-nesting", "list-frames", "list-points",
        "list-mixing", "rank-shape", "list-chain", "huge-integer",
        "infinite-dimension", "float-dimension", "boolean-dimension",
        "boolean-vertex", "boolean-rank", "boolean-n", "float-n",
        "boolean-curve-degree"])
def test_hostile_input_exits_3(capsys, tmp_path, command, data):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    code, _, err = run(capsys, [command, str(path)])
    assert time.perf_counter() - started < 5
    assert code == 3
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, data, message", [
    ("residue", {"vars": ["f", "f"], "numerator": "1",
                 "denominators": ["f", "f"]},
     "fraction: variables repeat a name: f, f"),
    ("residue", {"vars": [], "numerator": "1", "denominators": []},
     "fraction names no variable"),
    ("bott", dict(NO_ZEROS, chart=dict(CHART, vars=["f", "f"])),
     "chart: variables repeat a name: f, f"),
    ("bott", _edited("p1-o1.json", lambda d: d.update(n=0)),
     "scenario: 'n' must be at least 1, not 0"),
    ("bott", _edited("p1-o1.json", lambda d: d.update(n=2)),
     "zero p0: 1 coordinates, not n = 2"),
], ids=["repeated-vars", "no-vars", "repeated-chart-vars", "n-0",
        "coords-not-n"])
def test_malformed_variable_lists_exit_3(capsys, tmp_path, command, data,
                                         message):
    # refused as input, before any engine runs: exit 3, never 2 or 5
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert run(capsys, [command, str(path)]) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("name, edit, message", [
    ("p1-o1.json", lambda d: d.update(r=0),
     "scenario: 'r' must be at least 1, not 0"),
    ("p1-o1.json", lambda d: d["zeros"][0]["a"].append("f"),
     "zero p0: 2 components, not n = 1"),
    ("p1-o1.json", lambda d: d["zeros"][0].update(a=[]),
     "zero p0: 0 components, not n = 1"),
    ("p1-o1.json", lambda d: d["zeros"][0]["lambda"][0].append("1"),
     "zero p0: 'lambda' must be 1 x 1"),
    ("p2-tangent.json", lambda d: d["zeros"][0]["lambda"][1].pop(),
     "zero p0: 'lambda' must be 2 x 2"),
    ("p1-o1.json", lambda d: d["zeros"][1].update(label="p0"),
     "scenario: zeros repeat the label 'p0'"),
    ("p1-o1.json", lambda d: d.update(name=5),
     "scenario: 'name' must be a string"),
    ("p1-o1.json", lambda d: d.update(expected_poly=5),
     "scenario: 'expected_poly' must be a string"),
    ("p1-o1.json", lambda d: d["chart"]["lift"][0].append("0"),
     "chart 'lift' must be 1 x 1"),
    ("p1-o1.json", lambda d: d["chart"]["a"].append("f"),
     "chart: 'a' has 2 components for 1 variables"),
], ids=["r-0", "a-longer", "a-empty", "lambda-shape", "lambda-ragged",
        "repeated-label", "numeric-name", "numeric-expected-poly",
        "chart-lift-shape", "chart-a-longer"])
def test_malformed_scenarios_exit_3(capsys, tmp_path, name, edit, message):
    # refused as input, before any engine runs: exit 3, never 2; a
    # repeated label would drop a zero, a numeric expected_poly the check
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_edited(name, edit)))
    assert run(capsys, ["bott", str(path)]) == (3, "", f"error: {message}\n")


def test_singular_frame_exits_3(capsys, tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(_edited(
        "p1-o1.json", lambda d: d["chart"]["frames"].update(p0=[["0"]]))))
    assert run(capsys, ["chern", str(path), "--chain", "x0,p0"]) == \
        (3, "", "error: frame at 'p0' is not invertible\n")


def _fraction(numerator):
    return {"vars": ["f1", "f2"], "numerator": numerator,
            "denominators": ["f1", "f2"]}


@pytest.mark.parametrize("data, flags, message", [
    (None, ["--precision", "100000"], "truncation 100000 has 5000050000 "),
    (_fraction("(f1 + f2 + 1)^300"), [], "degree 300 "),
    (_fraction("(f1 + f2 + 1)^30 * (f1 + f2 + 1)^30"), [], "degree 60 "),
    ({"vars": ["f1", "f2", "f3"], "numerator": "(f1 + f2 + f3 + 1)^32",
      "denominators": ["f1", "f2", "f3"]}, [], "up to 6545 terms "),
    # each summand passes alone; together they are past the budget
    ({"vars": ["f1", "f2", "f3"],
      "numerator": " + ".join(f"(f1 + f2 + f3 + {k})^20"
                              for k in range(1, 11)),
      "denominators": ["f1", "f2", "f3"]}, [],
     "expansions of one expression have up to 5313 terms "),
], ids=["precision", "power", "product", "terms", "sum"])
def test_resource_caps_exit_5(capsys, tmp_path, data, flags, message):
    path = "fraction-cusp.json"
    if data is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
    started = time.perf_counter()
    code, _, err = run(capsys, ["residue", str(path)] + flags)
    assert time.perf_counter() - started < 5
    assert code == 5
    assert message in err and "Traceback" not in err


def _identity(rank):
    return [["1" if i == j else "0" for j in range(rank)]
            for i in range(rank)]


def _widened_p1_o1(rank):
    """p1-o1.json with its chart widened to `rank`: an upper triangular
    x0 frame with diagonal (f, 1, .., 1) and f + i + j above it, so the
    bundle is O(1) plus a trivial one; identity frames elsewhere and the
    lift -I."""
    def edit(data):
        chart = data["chart"]
        x0 = _identity(rank)
        x0[0][0] = "f"
        for i in range(rank):
            for j in range(i + 1, rank):
                x0[i][j] = f"f + {i + j}"
        chart["frames"] = {lab: _identity(rank) for lab in chart["frames"]}
        chart["frames"]["x0"] = x0
        chart["lift"] = [["-" + x if x == "1" else x for x in row]
                         for row in _identity(rank)]
        chart["rank"] = rank
    return _edited("p1-o1.json", edit)


@pytest.mark.parametrize("chain", ["x0,p0,q1", "x0,p0"])
def test_widened_line_bundle_keeps_its_chern_components(capsys, tmp_path,
                                                        chain):
    # c1 is that of the rank-1 file and every higher component is 0
    path = tmp_path / "p1-o1-rank-7.json"
    path.write_text(json.dumps(_widened_p1_o1(7)))
    _, base, _ = run(capsys, ["chern", "p1-o1.json", "--chain", chain])
    started = time.perf_counter()
    code, out, err = run(capsys, ["chern", str(path), "--chain", chain])
    assert time.perf_counter() - started < 5
    assert code == 0, err
    components = [line for line in out.splitlines()
                  if line.startswith("component")]
    assert components == [line for line in base.splitlines()
                          if line.startswith("component")] + \
        [f"component {k}: value=0" for k in range(2, 8)]


def _whitney_of_ranks(sub, quot):
    return dict(NO_ZEROS, r=2, whitney={
        "sub": dict(CHART, rank=sub, frames={"x0": _identity(sub)}),
        "quot": dict(CHART, rank=quot, frames={"x0": _identity(quot)}),
        "mixing": {}, "chain": ["x0"]})


@pytest.mark.parametrize("argv, data, where", [
    (["chern", "--chain", "x0,p0"], _widened_p1_o1(2 * MAX_RANK), "chart"),
    (["bott"], _edited("p1-o1.json", lambda d: d.update(r=2 * MAX_RANK)),
     "scenario"),
    (["chern"], _whitney_of_ranks(MAX_RANK, MAX_RANK), "whitney extension"),
], ids=["chart", "scenario", "whitney"])
def test_ranks_past_the_cap_exit_5(capsys, tmp_path, argv, data, where):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    code, _, err = run(capsys, [argv[0], str(path)] + argv[1:])
    assert time.perf_counter() - started < 5
    assert code == 5
    assert f"{where} has rank {2 * MAX_RANK}, past the cap of {MAX_RANK}" \
        in err and "Traceback" not in err


def test_the_rank_cap_admits_its_own_rank(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_whitney_of_ranks(MAX_RANK // 2,
                                                 MAX_RANK // 2)))
    code, _, err = run(capsys, ["chern", str(path)])
    assert code == 0, err


@pytest.mark.parametrize("space, cap", [
    ("boundary-delta2.json", "-1"),
    ("boundary-delta2.json", "30"),
    # a standard simplex is held to the same cap
    ("delta3.json", "30"),
], ids=["-1", "30", "delta3-30"])
def test_out_of_range_weight_cap_exits_5(capsys, space, cap):
    started = time.perf_counter()
    code, _, err = run(capsys, ["derham", space, "--weight-cap", cap])
    assert time.perf_counter() - started < 5
    assert code == 5
    assert f"weight cap {cap} " in err and "Traceback" not in err


@pytest.mark.parametrize("space, cap, code, message", [
    (boundary_simplex_sset(4), "10", 0, None),
    (boundary_simplex_sset(4), "11", 5,
     "weight 11 has 13120 labels, past the cap of 12000"),
    (boundary_simplex_sset(5), None, 5,
     "weight 8 has 37550 labels, past the cap of 12000"),
    (boundary_simplex_sset(6), None, 5,
     "weight 9 has 322308 labels, past the cap of 12000"),
    # a standard simplex counts its labels like any other space; the
    # 3-simplex is the shipped delta3.json
    (standard_simplex_sset(3), None, 0, None),
    (standard_simplex_sset(3), "19", 5,
     "weight 19 has 13201 labels, past the cap of 12000"),
    (standard_simplex_sset(4), "9", 5,
     "weight 9 has 13441 labels, past the cap of 12000"),
    (standard_simplex_sset(5), None, 5,
     "weight 9 has 77505 labels, past the cap of 12000"),
    (standard_simplex_sset(6), None, 5,
     "weight 10 has 627199 labels, past the cap of 12000"),
], ids=["bd4-cap10", "bd4-cap11", "bd5", "bd6", "delta3", "delta3-cap19",
        "delta4-cap9", "delta5", "delta6"])
def test_family_label_cap(capsys, tmp_path, space, cap, code, message):
    # the boundary of the 4-simplex at cap 10 is the largest admitted
    path = tmp_path / f"{space.name}.json"
    path.write_text(json.dumps(space.to_json()))
    flags = [] if cap is None else ["--weight-cap", cap]
    started = time.perf_counter()
    got, _, err = run(capsys, ["derham", str(path)] + flags)
    assert got == code, err
    if message is not None:
        assert time.perf_counter() - started < 5
        assert message in err and "Traceback" not in err


def _chain_file(tmp_path, D):
    # one simplex per dimension: every face of s_m is s_(m-1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "name": "chain", "simplices": {f"s{m}": m for m in range(D + 1)},
        "faces": {f"s{m}": [f"s{m - 1}"] * (m + 1)
                  for m in range(1, D + 1)}}))
    return path


def test_one_simplex_per_dimension_is_solved_face_by_face(capsys, tmp_path):
    # every face of the 22-simplex is the one stored simplex of its
    # dimension, on C(23, k) vertex subsets; the solve takes one block of
    # equations per face map, never one per subset
    path = _chain_file(tmp_path, 22)
    started = time.perf_counter()
    code, out, err = run(capsys, ["derham", str(path), "--weight-cap", "1"])
    assert time.perf_counter() - started < 5
    assert code == 0, err
    assert out.endswith("status: PASS\n")


def test_a_class_above_the_cap_is_refused_before_the_solve(capsys,
                                                          tmp_path):
    # the dimension-25 chain has a degree-25 class; at cap 2 its family
    # complex (11,726 labels) is within the budget, but no family of
    # weight 2 reaches degree 25, so the refusal comes first
    path = _chain_file(tmp_path, 25)
    started = time.perf_counter()
    code, out, err = run(capsys, ["derham", str(path), "--weight-cap", "2"])
    assert time.perf_counter() - started < 1
    assert code == 5 and out == ""
    assert err == ("error: a degree-25 cochain class is hit by no family "
                   "of weight at most 2; its Whitney form, which hits it, "
                   "has weight 25\n")


def test_simplex_dimension_cap(capsys, tmp_path):
    # O(m^2) simplicial identities per m-simplex: past the cap, the set
    # is refused before they are checked
    path = _chain_file(tmp_path, 400)
    started = time.perf_counter()
    code, _, err = run(capsys, ["derham", str(path), "--weight-cap", "0"])
    assert time.perf_counter() - started < 5
    assert code == 5, err
    assert (f"has dimension {MAX_DIMENSION + 1}, "
            f"past the cap of {MAX_DIMENSION}") in err
    code, _, err = run(capsys, ["derham", str(_chain_file(
        tmp_path, MAX_DIMENSION)), "--weight-cap", "0"])
    assert code == 0, err


def _low_cap_runs():
    for n in (2, 3, 4, 5):
        caps = [str(cap) for cap in range(n + 1)] + [None]  # 0 .. L + 1
        yield from ((n, cap) for cap in caps)


@pytest.mark.parametrize("n, cap", _low_cap_runs())
def test_low_caps_exit_0_or_5(capsys, tmp_path, n, cap):
    # a cap too low to reach a cohomology class is a cap error, never a
    # failed comparison: the class's Whitney form names the weight needed
    path = tmp_path / f"boundary-delta{n}.json"
    path.write_text(json.dumps(boundary_simplex_sset(n).to_json()))
    flags = [] if cap is None else ["--weight-cap", cap]
    started = time.perf_counter()
    code, _, err = run(capsys, ["derham", str(path)] + flags)
    assert time.perf_counter() - started < 5
    assert code in (0, 5), err
    assert "Traceback" not in err
    # the top class of the boundary of the n-simplex lies in degree
    # n - 1, where every family and its Whitney form have weight n - 1
    if cap is not None and int(cap) < n - 1:
        assert code == 5
        assert f"its Whitney form, which hits it, has weight {n - 1}" in err


def test_weight_cap_0_on_the_shipped_circle_exits_5(capsys):
    code, _, err = run(capsys, ["derham", "boundary-delta2.json",
                                "--weight-cap", "0"])
    assert code == 5
    assert "a degree-1 cochain class is hit by no family of weight at " \
        "most 0" in err


def _long_chart(length):
    """p1-o1.json with frames 1 + k f at labels c0, c1, .."""
    def edit(data):
        labels = [f"c{k}" for k in range(length)]
        data["chart"]["frames"] = {lab: [[f"1 + {k}*f"]]
                                   for k, lab in enumerate(labels)}
        data["chart"]["points"] = {lab: None for lab in labels}
    return _edited("p1-o1.json", edit)


def _long_whitney(length):
    """p1-whitney.json with its chain grown to `length` labels."""
    def edit(data):
        w = data["whitney"]
        labels = [f"c{k}" for k in range(length)]
        for part in ("sub", "quot"):
            w[part]["frames"] = {lab: [[f"1 + {k}*f"]]
                                 for k, lab in enumerate(labels)}
            w[part]["points"] = {lab: None for lab in labels}
        w["mixing"] = {lab: [[f"{k}*f"]] for k, lab in enumerate(labels)}
        w["chain"] = labels
    return _edited("p1-whitney.json", edit)


@pytest.mark.parametrize("length", [MAX_CHAIN, MAX_CHAIN + 1])
@pytest.mark.parametrize("kind", ["chart", "whitney"])
def test_chain_length_cap(capsys, tmp_path, kind, length):
    path = tmp_path / "long.json"
    chain = ",".join(f"c{k}" for k in range(length))
    if kind == "chart":
        path.write_text(json.dumps(_long_chart(length)))
        argv, where = ["chern", str(path), "--chain", chain], "--chain"
    else:
        path.write_text(json.dumps(_long_whitney(length)))
        argv, where = ["chern", str(path)], "whitney chain"
    started = time.perf_counter()
    code, _, err = run(capsys, argv)
    assert time.perf_counter() - started < 5
    if length == MAX_CHAIN:
        assert code == 0, err
    else:
        assert code == 5
        assert f"{where} has {length} labels, past the cap of {MAX_CHAIN}" \
            in err and "Traceback" not in err


def test_a_colength_repeating_at_the_cap_runs(capsys, tmp_path):
    # (f1^23, f2) first repeats at T = 24, the residue engine's cap
    path = tmp_path / "long-colength.json"
    path.write_text(json.dumps({
        "vars": ["f1", "f2"], "numerator": "f1^22",
        "denominators": ["f1^23", "f2"], "expected": "1"}))
    code, out, err = run(capsys, ["residue", str(path)])
    assert code == 0, err
    assert "value=1" in out


def test_packaged_data_resolves_by_bare_name():
    path = resolve_input("p1-o1.json")
    assert Path(path).is_file()


@pytest.mark.parametrize("argv", [
    ["derham", "delta1.json", "--precision", "3"],
    ["derham", "delta1.json", "--stability"],
    ["bott", "p1-o1.json", "--precision", "3"],
    ["chern", "p1-o1.json", "--chain", "x0,p0", "--stability"],
    ["verify-all", "--precision", "3"],
    ["derham", "delta1.json", "--no-such-flag"],
])
def test_flags_a_subcommand_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--json", "residue", "fraction-cusp.json"],
    ["residue", "fraction-cusp.json", "--json"],
])
def test_json_flag_before_or_after_the_subcommand(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["status"] == "PASS"


def test_stability_flag_is_accepted(capsys):
    code, out, _ = run(capsys, ["residue", "fraction-cusp.json",
                                "--stability"])
    assert code == 0 and "value=4" in out
    code, out, _ = run(capsys, ["bott", "p1-o2.json", "--stability"])
    assert code == 0 and "total: value=2 expected=2 [ok]" in out
