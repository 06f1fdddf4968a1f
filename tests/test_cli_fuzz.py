"""Mutated shipped inputs end in a documented exit code, in bounded time.

Each example loads one shipped JSON file, applies a few mutations (a
value replaced by a wrong type, a huge integer, a nested list or a
hostile expression string; a key or item deleted; a value wrapped in a
list), writes the result and runs `cli.main` on it in process.  The
exit code must be 0, 2, 3, 4 or 5; any exception other than SystemExit
fails the example, and so does one that runs past 5 s.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil.cli import (
    FRACTION_FILES, SCENARIO_FILES, SSET_FILES, WHITNEY_FILE, main,
    resolve_input,
)

COMMANDS = (
    [(name, ["bott"]) for name in SCENARIO_FILES]
    + [(name, ["derham"]) for name in SSET_FILES]
    + [(name, ["residue"]) for name in FRACTION_FILES]
    + [(WHITNEY_FILE, ["chern"]),
       ("p1-o1.json", ["chern", "--chain", "x0,p0"])]
)

EXPRESSIONS = st.one_of(
    st.text(alphabet="fy12+-*/^() 09", max_size=24),
    st.sampled_from([
        "f^40", "(f1 + f2 + 1)^33", "(y1 + y2 + 1)^30 * (y1 + y2 + 1)^30",
        "1/0", "f1**2", ")(", "", "-", "f" * 200, "9" * 5000,
        "(" * 300 + "f" + ")" * 300, "1/" + "7" * 400,
    ]))

REPLACEMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=40),
    st.sampled_from([10 ** 30, -10 ** 400, 2 ** 64, 1.5, float("inf")]),
    st.builds(list), st.builds(dict), st.builds(lambda: {"f": ["f"]}),
    st.recursive(st.integers(min_value=-2, max_value=2),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    EXPRESSIONS,
)


def _paths(node, prefix=()):
    """Every key/index path into a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, draw):
    paths = list(_paths(data))
    if not paths:
        return draw(REPLACEMENTS)
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "delete", "nest"]))
    if action == "delete":
        del parent[key]
    elif action == "nest":
        parent[key] = [parent[key]]
    else:
        parent[key] = draw(REPLACEMENTS)
    return data


@settings(max_examples=100, deadline=5000)
@given(st.sampled_from(COMMANDS), st.integers(min_value=1, max_value=3),
       st.data())
def test_mutated_inputs_exit_with_a_documented_code(command, count, data):
    name, argv = command
    payload = json.loads(Path(resolve_input(name)).read_text())
    for _ in range(count):
        payload = _mutate(payload, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([argv[0], str(path)] + argv[1:])
            except SystemExit as exc:
                code = exc.code
        elapsed = time.perf_counter() - started
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < 5, elapsed
