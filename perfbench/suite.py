"""Run workloads over many seeds, print the results, compare two.

    python3 perfbench/suite.py run [--workloads residue,forms] [--seeds 1-10]
                                   [--out FILE]
    python3 perfbench/suite.py show FILE
    python3 perfbench/suite.py compare OLD NEW

`run` calls run.py once per workload (default: those of BENCHMARK.json)
and seed with --trace 0 and the run length of BENCHMARK.json, then twice with --trace 1 on the first
seed (per-layer counts must repeat exactly), and writes every record
to FILE (default .perfbench/suite.json).  `show` prints each
end-to-end metric per workload as median and quartiles with the sample
count, its spread (quartile distance over median) against the bound,
the failure ratio, the cold verify-all time and the tracing overhead.
`compare` prints NEW/OLD median ratios with their bases; a metric is
"unresolved" where OLD's own spread exceeds the bound.  It only
reports; it gates nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import CONFIG, END_TO_END as UNITS, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOUNDS = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
# kept in every run record, not in BENCHMARK.json
EXTRA_UNITS = {"failed_ratio": "", "verify_all_s": "s", "item_p90_ms": "ms",
               "speed_factor": "", "raw_setup_s": "s", "raw_wall_s": "s",
               "raw_item_p50_ms": "ms"}


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    tag = f"{workload}-s{seed}-t{trace}"
    record = json.loads((OUT / "results" / f"{tag}.json").read_text())
    # per-item rows stay in the run's own record file
    record.pop("items")
    return record


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list) -> dict:
    """Per workload and metric: values, median, quartiles, spread."""
    out: dict = {}
    for rec in records:
        if rec["trace"]:
            continue
        per = out.setdefault(rec["workload"], {})
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        for name in EXTRA_UNITS:
            if rec["extra"].get(name) is not None:
                metrics[name] = rec["extra"][name]
        # the unscaled times, to see what the speed factor removed
        for name, value in rec["extra"].get("raw", {}).items():
            metrics["raw_" + name] = value
        for name, value in metrics.items():
            per.setdefault(name, []).append(value)
    table: dict = {}
    for workload, per in out.items():
        for name, values in per.items():
            q1, med, q3 = quartiles(values)
            table.setdefault(workload, {})[name] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    return table


def trace_summary(records: list) -> dict:
    out: dict = {}
    for rec in records:
        if not rec["trace"]:
            continue
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        out.setdefault(rec["workload"], []).append(metrics)
    summary = {}
    for workload, runs in out.items():
        counts = [{k: v for k, v in m.items()
                   if not k.endswith("_s") and not k.startswith("trace.")}
                  for m in runs]
        summary[workload] = {
            "runs": len(runs),
            "counts_repeat": all(c == counts[0] for c in counts),
            "overhead_ratio": [m["trace.overhead_ratio"] for m in runs],
            "layers": runs[-1]}
    return summary


def show(doc: dict) -> None:
    records = doc["records"]
    env = records[0]["environment"] if records else {}
    print(f"revision {env.get('git_revision')} src {env.get('src_sha256', '')[:12]}"
          f" python {env.get('python')} nproc {env.get('nproc')}"
          f" {env.get('platform')}")
    print("medians and quartiles over runs, one run per seed")
    table = summarize(records)
    seconds = {r["workload"]: r["seconds"] for r in records}
    for workload in WORKLOADS:
        if workload not in table:
            continue
        print(f"\n[{workload}] runs of {seconds[workload]:g} s")
        for name, row in table[workload].items():
            bound = BOUNDS.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if row["spread"] <= bound / 3 else (
                    "wide" if row["spread"] <= bound else "OVER BOUND")
            unit = UNITS.get(name, EXTRA_UNITS.get(name, ""))
            print(f"  {name:<14} {row['median']:>12.5g} {unit:<4}"
                  f" q1 {row['q1']:<10.5g} q3 {row['q3']:<10.5g}"
                  f" n={row['n']:<3} spread {row['spread']:.3f}"
                  + (f" bound {bound} {flag}" if bound is not None else ""))
    for workload, tr in trace_summary(records).items():
        print(f"\n[{workload} traced] runs {tr['runs']} counts repeat "
              f"{tr['counts_repeat']} overhead "
              + ", ".join(f"{x:.2f}x" for x in tr["overhead_ratio"]))
        for name, value in tr["layers"].items():
            if value:
                print(f"  {name:<44} {value:.6g}")


def compare(old: dict, new: dict) -> None:
    t_old, t_new = summarize(old["records"]), summarize(new["records"])
    print(f"{'workload':<8} {'metric':<14} {'old median':>12} {'new median':>12}"
          f" {'new/old':>8}  verdict")
    for workload in WORKLOADS:
        for name, o in t_old.get(workload, {}).items():
            n = t_new.get(workload, {}).get(name)
            if n is None:
                continue
            bound = BOUNDS.get(name)
            ratio = n["median"] / o["median"] if o["median"] else float("nan")
            if bound is None:
                verdict = ""
            elif o["spread"] > bound:
                verdict = "unresolved (old spread above bound)"
            elif ratio > 1 + bound:
                verdict = f"worse than bound {bound}"
            elif ratio < 1 - o["spread"]:
                verdict = "better than old spread"
            else:
                verdict = "within bound"
            print(f"{workload:<8} {name:<14} {o['median']:>12.5g}"
                  f" {n['median']:>12.5g} {ratio:>8.3f}  {verdict}"
                  f" (base n={o['n']} vs n={n['n']})")


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark suite")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in CONFIG["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=str(OUT / "suite.json"))
    p = sub.add_parser("show")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    args = ap.parse_args()

    if args.cmd == "show":
        show(json.loads(Path(args.file).read_text()))
        return 0
    if args.cmd == "compare":
        compare(json.loads(Path(args.old).read_text()),
                json.loads(Path(args.new).read_text()))
        return 0

    seeds = seed_list(args.seeds)
    records = []
    for workload in args.workloads.split(","):
        for seed in seeds:
            rec = one_run(workload, seed, 0)
            records.append(rec)
            print(f"{workload} seed {seed}: "
                  + json.dumps(rec["result"]), flush=True)
        for _ in range(2):
            records.append(one_run(workload, seeds[0], 1))
    doc = {"records": records}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc))
    show(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
