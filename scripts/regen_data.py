"""Regenerate the JSON files shipped under src/adelweil/data.

Scenario and space files are serialized from the in-package generators,
so editing a generator and rerunning this script keeps the shipped data
in sync.  Fraction files are small enough to keep literal.

    python scripts/regen_data.py            # rewrite every shipped file
    python scripts/regen_data.py --check    # compare only; exit 1 on drift
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from adelweil.scenarios import (                                   # noqa: E402
    projective_space_scenario, scenario_to_json, whitney_scenario,
)
from adelweil.simplicial import (                                  # noqa: E402
    boundary_simplex_sset, disjoint_points, standard_simplex_sset,
)

DATA = ROOT / "src" / "adelweil" / "data"

SCENARIOS = (
    ("p1-o1-degenerate",
     lambda: projective_space_scenario(1, (-1, 0), 1,
                                       degenerate_variant=True)),
    ("p1-o1", lambda: projective_space_scenario(1, (-1, 0), 1)),
    ("p1-o2", lambda: projective_space_scenario(1, (-1, 0), 2)),
    ("p1-o3", lambda: projective_space_scenario(1, (-1, 0), 3)),
    ("p1-tangent", lambda: projective_space_scenario(1, (-1, 0), "tangent")),
    ("p2-o1", lambda: projective_space_scenario(2, (-1, 0, 1), 1)),
    ("p2-o2", lambda: projective_space_scenario(2, (-1, 0, 1), 2)),
    ("p2-tangent",
     lambda: projective_space_scenario(2, (-1, 0, 1), "tangent")),
    ("p1-whitney", whitney_scenario),
)

SSETS = (
    ("delta0", lambda: standard_simplex_sset(0)),
    ("delta1", lambda: standard_simplex_sset(1)),
    ("delta2", lambda: standard_simplex_sset(2)),
    ("delta3", lambda: standard_simplex_sset(3)),
    ("boundary-delta2", lambda: boundary_simplex_sset(2)),
    ("two-points", lambda: disjoint_points(2)),
)

FRACTIONS = (
    ("fraction-weighted-model", {
        "vars": ["f"],
        "numerator": "-f",
        "denominators": ["f^2"],
        "expected": "-1",
        "provenance": "weighted model of a double zero on a curve",
    }),
    ("fraction-plane", {
        "vars": ["f1", "f2"],
        "numerator": "1",
        "denominators": ["f1", "f2"],
        "expected": "1",
        "provenance": "normalization at a simple zero in the plane",
    }),
    ("fraction-cusp", {
        "vars": ["f1", "f2"],
        "numerator": "4*f1*f2",
        "denominators": ["f1^2 - f2^3", "f2^2"],
        "expected": "4",
        "provenance": "Jacobian determinant over a length-four quotient",
    }),
)


def payloads():
    """(file name, exact text) of every shipped file, built in memory."""
    for name, make in SCENARIOS:
        scn = make()
        assert scn.name == name, (scn.name, name)
        yield name, scenario_to_json(scn)
    for name, make in SSETS:
        yield name, make().to_json()
    yield from FRACTIONS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Rewrite src/adelweil/data from the generators.")
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; byte-compare every payload with the shipped "
             "file and exit 1 if any differs, is missing or is extra")
    args = parser.parse_args(argv)
    texts = {f"{name}.json": json.dumps(payload, indent=2) + "\n"
             for name, payload in payloads()}
    if args.check:
        shipped = {path.name for path in DATA.glob("*.json")}
        names = sorted(texts.keys() | shipped)
        drift = [name for name in names
                 if name not in texts or name not in shipped
                 or (DATA / name).read_bytes() != texts[name].encode()]
        for name in drift:
            print(f"drift: {(DATA / name).relative_to(ROOT)}")
        print(f"{len(names) - len(drift)} of {len(names)} data files match "
              "their generators")
        return 1 if drift else 0
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        path = DATA / name
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
