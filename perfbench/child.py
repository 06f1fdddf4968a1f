"""One fresh interpreter of a benchmark run.

    python3 perfbench/child.py --inputs FILE --mode setup|pass|cli \
        --t0 MONOTONIC [--trace-out SPANS.json] [--argv JSON]

The process imports adelweil from the checkout's src/ (and refuses to
run if it resolves anywhere else), loads its inputs, prints one JSON
line {"ready": ...}, then in `pass` mode runs every item closed-loop,
one JSON line per item, and a final {"done": ...} line.  `cli` mode
runs `adelweil.cli.main(argv)` once with stdout captured; it exists
for the traced pass of the cli workload.  With --trace-out the layer
wrappers of tracer.py are installed after the inputs are loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PIN_EXIT = 3


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def import_pinned():
    """Import adelweil from the checkout and prove it came from there."""
    sys.path.insert(0, str(SRC))
    import adelweil
    import adelweil.cli  # noqa: F401  (every layer, as the CLI loads it)
    origin = Path(adelweil.__file__).resolve()
    if not origin.is_relative_to((SRC / "adelweil").resolve()):
        print(f"adelweil resolved to {origin}, not under {SRC}",
              file=sys.stderr)
        sys.exit(PIN_EXIT)
    return str(origin)


# -- item loaders: (timed call, untimed check) pairs --------------------------


def load_item(spec: dict):
    """Build one item from its spec.  Timed calls go through the module
    attributes, so wrappers installed after loading still see them."""
    from fractions import Fraction

    from adelweil import adelic, dgforms, residues, scenarios, sullivan
    from adelweil.adelic import Chain
    from adelweil.dgforms import FormMatrix, InvariantPolynomial
    from adelweil.exactalg import parse_rational
    from adelweil.parsing import (
        chart_from_json, fraction_from_json, parse_polynomial,
        scenario_from_json, sset_from_json,
    )

    kind = spec["kind"]
    if kind == "derham":
        space = sset_from_json(spec["space"])
        cap = spec["weight_cap"]

        def check(res):
            ok = (res["ok"] and res["sullivan_ranks"] == spec["ranks"]
                  and res["cochain_ranks"] == spec["ranks"])
            return ok, {"weight_cap": res["weight_cap"]}
        return (lambda: sullivan.verify_de_rham(space, weight_cap=cap)), check

    if kind == "gauss_bonnet":
        polys = [parse_polynomial(t, spec["vars"]) for t in spec["polys"]]

        def check(out):
            residue, length = out
            return residue == length == spec["colength"], {}
        return (lambda: residues.gauss_bonnet_local(polys)), check

    if kind == "fraction":
        gf = fraction_from_json(spec["fraction"])
        expected = parse_rational(spec["fraction"]["expected"])
        return ((lambda: residues.residue_general(gf, stability=True)),
                lambda value: (value == expected, {}))

    if kind == "whitney":
        sub, quot, mixing, chain = scenario_from_json(
            spec["scenario"]).whitney

        def check(res):
            return res["ok"], {"form_terms": sum(len(f.terms)
                                                 for f in res["total"])}
        return ((lambda: adelic.whitney_check(sub, quot, mixing, chain)),
                check)

    if kind == "transgression":
        ctx = dgforms.chain_context(spec["length"], ("f",))

        def scalar(text):
            return ctx.form_scalar(ctx.ring_poly(
                parse_polynomial(text, ctx.even_vars)))

        theta = FormMatrix(ctx, [[scalar(e["dt_coeff"]) * ctx.dt(e["dt"])
                                  + scalar(e["df_coeff"]) * ctx.df("f")
                                  for e in row] for row in spec["theta"]])
        P = InvariantPolynomial.power_of_trace(spec["rank"], spec["m"])

        def run():
            T = dgforms.transgression(P, theta)
            R = dgforms.matrix_curvature(theta)
            return T, T.d() == dgforms.invariant_eval(P, R)
        return run, lambda out: (out[1], {"form_terms": len(out[0].terms)})

    if kind == "localize":
        chart = chart_from_json(spec["chart"])
        a, b = spec["chain"]
        chain = Chain((a, b))

        def run():
            ok = adelic.localization_check(chart, chain)
            conn = adelic.mixed_connection(chart, chain)
            return ok, adelic.chern_form_component(1, conn)

        def check(out):
            # on a rank-one chart the fibre integral of the curvature
            # over the 1-chain (a, b) is dlog g_a - dlog g_b
            ok, c1 = out
            ctx = c1.ctx

            def dlog(label):
                g = chart.frame(label)[0, 0]
                return ctx.ring_poly(g.diff("f")) / ctx.ring_poly(g)

            want = ctx.form_scalar(dlog(a) - dlog(b)) * ctx.df("f")
            return ok is True and c1 == want, {"form_terms": len(c1.terms)}
        return run, check

    if kind == "bott":
        weights = tuple(Fraction(w) for w in spec["weights"])

        def run():
            return scenarios.bott_sum(scenarios.projective_space_scenario(
                spec["n"], weights, spec["bundle"]))
        return run, lambda res: (res["total"] == spec["expect"], {})

    raise ValueError(f"unknown item kind {kind!r}")


def run_pass(items: list, tracer) -> None:
    clock = time.perf_counter
    started = clock()
    for index, (run, check) in enumerate(items):
        if tracer is not None:
            tracer.item_sizes = {}
        t = clock()
        try:
            out = run()
        except Exception as exc:  # a failed item is counted, never retried
            emit({"item": index, "ms": (clock() - t) * 1e3, "ok": False,
                  "error": f"{type(exc).__name__}: {exc}"})
            continue
        ms = (clock() - t) * 1e3
        try:
            ok, sizes = check(out)
        except Exception as exc:
            ok, sizes = False, {"error": f"{type(exc).__name__}: {exc}"}
        if tracer is not None:
            sizes.update(tracer.item_sizes)
        emit({"item": index, "ms": ms, "ok": bool(ok), "sizes": sizes})
    wall = clock() - started
    done = {"wall_s": wall, "peak_rss_kb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        done["trace"] = tracer.aggregates()
    emit({"done": done})


def run_cli(argv: list, tracer) -> None:
    import adelweil.cli
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = adelweil.cli.main(argv)
    wall = time.perf_counter() - t
    emit({"done": {"code": code, "stdout": buf.getvalue(), "wall_s": wall,
                   "trace": tracer.aggregates() if tracer else None}})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "cli"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--argv")
    args = ap.parse_args()

    origin = import_pinned()
    specs = json.loads(Path(args.inputs).read_text())
    # cli items are argv lists run by the parent; in-process items are
    # built here, so set-up covers parsing the generated inputs
    items = [load_item(s) for s in specs if s["kind"] != "cli"]
    emit({"ready": time.monotonic() - args.t0, "adelweil": origin})
    if args.mode == "setup":
        return

    tracer = None
    if args.trace_out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if args.mode == "pass":
            run_pass(items, tracer)
        else:
            run_cli(json.loads(args.argv), tracer)
    finally:
        if tracer is not None:
            tracer.write_spans(args.trace_out)


if __name__ == "__main__":
    main()
