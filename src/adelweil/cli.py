"""Command line front end.

Subcommands: residue, bott, derham, chern, verify-all.  Inputs are JSON
files, either paths or bare names of files shipped in the data
directory.  Exit codes: 0 all checks passed, 2 a check failed, 3 input
could not be parsed or does not apply, 5 a search or size cap was hit.
`main` returns the `exit_code` of the error it catches (see
errors.py); argparse's own usage errors exit 2 before any check runs.
"""

import argparse
import sys
from pathlib import Path

from .adelic import (
    Chain, localization_check, mixed_connection, whitney_check,
)
from .errors import EngineError, ParseError
from .exactalg import parse_rational
from .parsing import (
    chain_from_labels, fraction_from_json, load_json, parse_invariant_text,
    scenario_from_json, sset_from_json,
)
from .report import Report
from .residues import residue_general
from .scenarios import bott_sum, curve_adelic_integral
from .simplicial import fiber_integrate
from .sullivan import verify_de_rham

SCENARIO_FILES = (
    "p1-o1-degenerate.json", "p1-o1.json", "p1-o2.json", "p1-o3.json",
    "p1-tangent.json", "p2-o1.json", "p2-o2.json", "p2-tangent.json",
)
SSET_FILES = ("delta0.json", "delta1.json", "delta2.json", "delta3.json",
              "boundary-delta2.json", "two-points.json")
FRACTION_FILES = ("fraction-weighted-model.json", "fraction-plane.json",
                  "fraction-cusp.json")
WHITNEY_FILE = "p1-whitney.json"
LOCALIZATION_CHAIN = ("q1", "inf")


def resolve_input(name: str) -> str:
    if Path(name).is_file():
        return name
    # the shipped data sits next to this module
    packaged = Path(__file__).parent / "data" / name
    if packaged.is_file():
        return str(packaged)
    raise ParseError(f"no such input file {name!r}")


def _ranks(values) -> str:
    return ",".join(str(v) for v in values)


def _matrix_text(m) -> str:
    rows = [", ".join(entry.render() for entry in row) for row in m.rows]
    if len(rows) == 1 and len(m.rows[0]) == 1:
        return rows[0]
    return "[" + "; ".join(rows) + "]"


# -- subcommands -------------------------------------------------------------


def cmd_residue(args) -> Report:
    path = resolve_input(args.file)
    rep = Report(command="residue")
    rep.add_input(path)
    if args.precision is not None and args.precision < 1:
        raise ParseError(
            f"--precision must be at least 1, not {args.precision}")
    data = load_json(path)
    gf = fraction_from_json(data)
    value = residue_general(gf, precision=args.precision,
                            stability=args.stability)
    item = {"fraction": gf.render(), "value": value}
    if "expected" in data:
        expected = parse_rational(data["expected"])
        item["expected"] = expected
        item["ok"] = value == expected
    rep.add("residue", **item)
    return rep


def cmd_bott(args) -> Report:
    path = resolve_input(args.file)
    rep = Report(command="bott")
    rep.add_input(path)
    scn = scenario_from_json(load_json(path))
    P = parse_invariant_text(args.poly, scn.r) \
        if args.poly is not None else None
    res = bott_sum(scn, P, stability=args.stability)
    rep.add("scenario", name=res["scenario"], poly=res["poly"])
    for row in res["rows"]:
        rep.add(f"zero {row['zero']}", value=row["value"])
    item = {"value": res["total"]}
    if res["expected"] is not None:
        item["expected"] = res["expected"]
        item["ok"] = res["matches"]
    rep.add("total", **item)
    return rep


def cmd_derham(args) -> Report:
    path = resolve_input(args.file)
    rep = Report(command="derham")
    rep.add_input(path)
    space = sset_from_json(load_json(path))
    res = verify_de_rham(space, weight_cap=args.weight_cap)
    rep.add("space", name=res["space"], weight_cap=res["weight_cap"])
    rep.add("ranks", family=_ranks(res["sullivan_ranks"]),
            cochain=_ranks(res["cochain_ranks"]), ok=res["ranks_match"])
    rep.add("integration map", ok=res["induced_iso"])
    rep.add("products", pairs=res["multiplicativity_pairs"],
            ok=res["multiplicativity_ok"])
    return rep


def _chern_chart(rep: Report, scn, labels) -> None:
    if scn.chart is None:
        raise ParseError(f"scenario {scn.name} carries no chart data")
    for lab in labels:
        if lab not in scn.chart.frames:
            raise ParseError(f"no frame at {lab!r} in {scn.name}")
    conn = mixed_connection(scn.chart, chain_from_labels(labels, "--chain"))
    R = conn.curvature()
    rep.add("theta", value=_matrix_text(conn.theta))
    rep.add("curvature_11", value=_matrix_text(conn.curvature_11(R)))
    for i, e in enumerate(R.invariants(), 1):
        rep.add(f"component {i}", value=fiber_integrate(e).render())


def _chern_whitney(rep: Report, scn) -> None:
    sub, quot, mixing, chain = scn.whitney
    res = whitney_check(sub, quot, mixing, chain)
    for k in range(len(res["total"])):
        rep.add(f"c{k}",
                total=res["total"][k].render(),
                sub=(res["sub"][k].render()
                     if k < len(res["sub"]) else "0"),
                quot=(res["quot"][k].render()
                      if k < len(res["quot"]) else "0"))
    rep.add("whitney product", first_failure=res["first_failure"],
            ok=res["ok"])


def cmd_chern(args) -> Report:
    path = resolve_input(args.file)
    rep = Report(command="chern")
    rep.add_input(path)
    scn = scenario_from_json(load_json(path))
    if scn.whitney is not None:
        if args.chain is not None:
            raise ParseError(
                f"scenario {scn.name} carries its own Whitney chain; "
                "--chain applies to chart scenarios only")
        _chern_whitney(rep, scn)
    else:
        if not args.chain:
            raise ParseError("chern on a chart scenario needs --chain")
        _chern_chart(rep, scn, [s for s in args.chain.split(",") if s])
    return rep


def cmd_verify_all(args) -> Report:
    rep = Report(command="verify-all")

    def run(label, path, fn, **extra):
        try:
            ok = fn()
            rep.add(label, file=path, ok=bool(ok), **extra)
        except EngineError as exc:
            rep.add(label, file=path, error=str(exc), ok=False, **extra)

    for name in SCENARIO_FILES:
        scn = scenario_from_json(load_json(resolve_input(name)))
        run(f"bott {scn.name}", name,
            lambda s=scn: bott_sum(s)["matches"])
        if scn.curve is not None:
            run(f"curve {scn.name}", name,
                lambda s=scn: curve_adelic_integral(s) == s.expected)
        if scn.chart is not None:
            run(f"localization {scn.name}", name,
                lambda s=scn: localization_check(
                    s.chart, Chain(LOCALIZATION_CHAIN)))

    for name in FRACTION_FILES:
        path = resolve_input(name)
        data = load_json(path)
        run(f"residue {name}", name, lambda d=data: residue_general(
            fraction_from_json(d)) == parse_rational(d["expected"]))

    for name in SSET_FILES:
        space = sset_from_json(load_json(resolve_input(name)))
        run(f"derham {space.name}", name,
            lambda s=space: verify_de_rham(s)["ok"])

    wscn = scenario_from_json(load_json(resolve_input(WHITNEY_FILE)))
    run(f"whitney {wscn.name}", WHITNEY_FILE,
        lambda: whitney_check(*wscn.whitney)["ok"])
    return rep


# -- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit the report as JSON")
    stability_help = ("recompute residues at the next truncation and "
                      "compare")

    parser = argparse.ArgumentParser(
        prog="adelweil",
        description="exact adelic Chern-Weil calculator",
        parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("residue", parents=[common],
                       help="residue of a generalized fraction file")
    p.add_argument("file")
    p.add_argument("--precision", type=int,
                   help="working truncation override")
    p.add_argument("--stability", action="store_true", help=stability_help)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("bott", parents=[common],
                       help="sum of local invariants over a scenario")
    p.add_argument("file")
    p.add_argument("--poly", help="invariant polynomial in c1..cr")
    p.add_argument("--stability", action="store_true", help=stability_help)
    p.set_defaults(func=cmd_bott)

    p = sub.add_parser("derham", parents=[common],
                       help="family cohomology against simplicial cochains")
    p.add_argument("file")
    p.add_argument("--weight-cap", type=int, default=None)
    p.set_defaults(func=cmd_derham)

    p = sub.add_parser("chern", parents=[common],
                       help="connection, curvature and Chern components "
                            "on a chain")
    p.add_argument("file")
    p.add_argument("--chain", help="comma separated point labels")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run every check on the shipped data files")
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # --json may come before or after the subcommand
    args = parser.parse_args(argv, argparse.Namespace(json=False))
    try:
        rep = args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(rep.to_json() if args.json else rep.to_text())
    return 0 if rep.passed else 2


if __name__ == "__main__":
    sys.exit(main())
