"""One benchmark run of one workload.

    python3 perfbench/run.py --workload cli|derham|residue|forms \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness generates the inputs
from the seed (workloads.py), then starts fresh interpreters one at a
time (child.py, or `python -m adelweil.cli` for the cli workload),
each importing adelweil from the checkout's src/.  Every item is
checked against an exact oracle.  With --trace 0 the run repeats whole
passes for about S seconds and reports the end-to-end metrics, its
times scaled by the speed factor of reference_kernel(); with
--trace 1 it makes one untraced and one traced pass and reports the
per-layer metrics.  The last line of stdout is the result JSON; the
full record (per-item latencies and sizes, environment) is written to
.perfbench/results/.  Exits 2 without a result when the checkout has
no adelweil sources or a child imported adelweil from elsewhere.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

OUT = ROOT / ".perfbench"
SETUP_PROBES = 3  # set-up-only starts before and again after the passes
DEADLINE_S = 170.0  # a run must end within 180 s
# time of one reference_kernel() the time metrics are scaled to
REF_S = 0.012

# metric names and units are those BENCHMARK.json declares
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


def reference_kernel() -> None:
    """Fixed exact arithmetic of the kind adelweil does (a Fraction row
    reduction and a dict-of-monomials product), written here so that no
    change to adelweil changes its cost."""
    n = 12
    rows = [[Fraction((5 * i + 3 * j) % 13 - 6, 1 + (i + 2 * j) % 7)
             for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] += 7
    for col in range(n):
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    poly = {(i, j): Fraction(i - j + 1, 1 + i + j)
            for i in range(6) for j in range(6 - i)}
    prod: dict = {}
    for ea, ca in poly.items():
        for eb, cb in poly.items():
            key = (ea[0] + eb[0], ea[1] + eb[1])
            prod[key] = prod.get(key, 0) + ca * cb


def speed_factor(samples: list) -> float:
    """REF_S over the mean reference time of a run, its slowest and
    fastest tenth left out."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REF_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class PinError(RuntimeError):
    """A child imported adelweil from outside the checkout."""


class Run:
    """Spawns the children of one run and keeps what they report."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.inputs = work / "inputs.json"
        self.started = time.monotonic()
        self.setup_samples: list = []
        self.ref_samples: list = []
        self.errors: list = []
        self.origin = None
        self.env = dict(os.environ)
        # the checkout's sources come first for every child
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in
                                   os.environ.get("PYTHONPATH", "").split(
                                       os.pathsep) if p])
        self.env.pop("PYTHONSTARTUP", None)

    def speed_probe(self) -> None:
        """Time reference_kernel() in this process, between children."""
        gc.disable()
        try:
            t = time.perf_counter()
            reference_kernel()
            self.ref_samples.append(time.perf_counter() - t)
        finally:
            gc.enable()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str, extra=()) -> list:
        """Run child.py; returns its JSON lines."""
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--inputs",
               str(self.inputs), "--mode", mode, "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            self.errors.append(f"{mode} child timed out")
            out = exc.stdout or ""
            out = out.decode() if isinstance(out, bytes) else out
            return [json.loads(x) for x in out.splitlines() if x.strip()]
        if proc.returncode == 3:
            raise PinError(proc.stderr.strip())
        if proc.returncode != 0:
            self.errors.append(f"{mode} child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        self.speed_probe()
        lines = [json.loads(x) for x in proc.stdout.splitlines() if x.strip()]
        for line in lines:
            if "ready" in line:
                self.setup_samples.append(line["ready"])
                self.origin = str(Path(line["adelweil"]).relative_to(ROOT))
        return lines

    def warm(self) -> None:
        """One untimed start, so bytecode caches are written."""
        self.child("setup")
        self.setup_samples.clear()

    def setup_probes(self, count: int) -> None:
        for _ in range(count):
            self.child("setup")

    # -- in-process workloads ------------------------------------------------

    def inprocess_pass(self, items: list, trace_out: Path | None = None):
        extra = ("--trace-out", str(trace_out)) if trace_out else ()
        lines = self.child("pass", extra)
        results = [None] * len(items)
        done = {}
        for line in lines:
            if "item" in line:
                results[line["item"]] = line
            elif "done" in line:
                done = line["done"]
        # an item the child never reported (crash, timeout) is a failure
        results = [r or {"ms": None, "ok": False, "error": "not reported"}
                   for r in results]
        for r, item in zip(results, items):
            r["sizes"] = {**item["sizes"], **r.get("sizes", {})}
        return results, done.get("wall_s"), done.get("trace")

    # -- cli workload --------------------------------------------------------

    def cli_check(self, item: dict, code: int, stdout: bytes) -> bool:
        if item["golden"]:
            golden = (ROOT / "tests" / "golden" / item["golden"]).read_bytes()
            return code == 0 and stdout == golden
        return code == 0 and stdout.decode(errors="replace").endswith(
            "status: PASS\n")

    def cli_pass(self, items: list, traced_dir: Path | None = None):
        results = []
        aggregates: list = []
        for index, item in enumerate(items):
            t = time.monotonic()
            if traced_dir is None:
                cmd = [sys.executable, "-m", "adelweil.cli", *item["argv"]]
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                          capture_output=True,
                                          timeout=max(1.0, self.remaining()))
                    code, stdout = proc.returncode, proc.stdout
                except subprocess.TimeoutExpired:
                    code, stdout = None, b""
                    self.errors.append(f"cli {item['argv']} timed out")
            else:
                lines = self.child("cli", (
                    "--argv", json.dumps(item["argv"]), "--trace-out",
                    str(traced_dir / f"spans-{index}.json")))
                done = next((x["done"] for x in lines if "done" in x), None)
                code = done["code"] if done else None
                stdout = done["stdout"].encode() if done else b""
                if done:
                    aggregates.append(done["trace"])
            ms = (time.monotonic() - t) * 1e3
            self.speed_probe()
            ok = code is not None and self.cli_check(item, code, stdout)
            results.append({"ms": ms, "ok": ok, "code": code,
                            "sizes": {"argv": item["argv"]}})
        # the session is the invocations, not the probes between them
        wall = sum(r["ms"] for r in results) / 1e3
        return results, wall, merge(aggregates) if traced_dir else None

    def one_pass(self, items: list, traced_dir: Path | None = None):
        if self.workload == "cli":
            return self.cli_pass(items, traced_dir)
        trace_out = traced_dir / "spans.json" if traced_dir else None
        return self.inprocess_pass(items, trace_out)


def merge(aggregates: list) -> dict:
    out = {"calls": {}, "self_s": {}, "counters": {}}
    for agg in aggregates:
        for key in out:
            for name, value in agg[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def layer_metrics(agg: dict, wall_traced: float, wall_plain: float) -> dict:
    calls, self_s, counters = agg["calls"], agg["self_s"], agg["counters"]
    out = {}
    for name, unit in PER_LAYER.items():
        base, _, field = name.rpartition(".")
        if name == "trace.wall_s":
            value = wall_traced
        elif name == "trace.overhead_ratio":
            value = wall_traced / wall_plain if wall_plain else 0.0
        elif name == "residues.fast_path_ratio":
            n = calls.get("residues.residue_general", 0)
            value = (counters.get("residues.residue_general.fast_path", 0)
                     / n) if n else 0.0
        elif name == "sullivan.SullivanComplex.builds":
            value = calls.get("sullivan.SullivanComplex.init", 0)
        elif field == "calls":
            value = calls.get(base, 0)
        elif field == "self_s":
            value = self_s.get(base, 0.0)
        else:
            value = counters.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() \
                else ref
        else:
            revision = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "adelweil").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_revision": revision, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "adelweil" / "__init__.py").is_file():
        print(f"no adelweil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        items = generate(args.workload, args.seed)
        record = measure(args, items, work, OUT / "spans" / tag)
    except PinError as exc:
        print(f"code under test is not the checkout's: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record["result"]))
    return 0


def measure(args, items: list, work: Path, spans: Path) -> dict:
    run = Run(args.workload, work)
    # hand the generated inputs over, written outside any timed process
    run.inputs.write_text(json.dumps(items))
    run.warm()
    # set-up is sampled before and after the passes (and at the start of
    # every in-process pass), not at one moment of the run only
    run.setup_probes(SETUP_PROBES)

    passes = []
    layer = None
    if args.trace == 0:
        window = time.monotonic()
        while True:
            passes.append(run.one_pass(items))
            # one set-up sample after every pass spreads them over the run
            run.setup_probes(1)
            elapsed = time.monotonic() - window
            longest = max(p[1] or 0.0 for p in passes)
            if elapsed + longest > args.seconds or run.errors:
                break
    else:
        plain = run.one_pass(items)
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
        traced = run.one_pass(items, spans)
        passes = [plain, traced]
        layer = {"aggregates": traced[2], "wall_traced": traced[1] or 0.0,
                 "wall_plain": plain[1] or 0.0}

    run.setup_probes(SETUP_PROBES)

    attempted = sum(len(p[0]) for p in passes)
    failed = sum(1 for p in passes for r in p[0] if not r["ok"])
    walls = [p[1] for p in passes if p[1] is not None]
    latencies = [r["ms"] for p in passes for r in p[0] if r["ms"] is not None]
    # every pass runs the items in the same order: one column per item
    item_ms = [[r["ms"] for r in column if r["ms"] is not None]
               for column in zip(*(p[0] for p in passes))]
    item_means = [statistics.fmean(v) for v in item_ms if v]
    verify_all = [r["ms"] / 1e3 for p in passes for r in p[0]
                  if r.get("sizes", {}).get("argv") == ["verify-all"]]
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    correct = (failed == 0 and not run.errors and len(walls) == len(passes)
               and bool(latencies))

    # means over passes, like the speed factor: both move in proportion
    # to the share of the run the machine spent in its slow state
    raw = {"setup_s": statistics.median(run.setup_samples),
           "wall_s": statistics.fmean(walls) if walls else 0.0,
           "item_p50_ms": (statistics.median(item_means)
                           if item_means else 0.0)}
    factor = speed_factor(run.ref_samples)
    if layer is None:
        # times are scaled to a machine on which reference_kernel()
        # takes REF_S, which removes most of the shared machine's drift
        values = {k: v * factor for k, v in raw.items()}
        values["peak_rss_mb"] = peak_mb
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    else:
        if layer["aggregates"] is None:
            correct = False
            layer["aggregates"] = {"calls": {}, "self_s": {}, "counters": {}}
        metrics = layer_metrics(layer["aggregates"], layer["wall_traced"],
                                layer["wall_plain"])
        self_total = sum(layer["aggregates"]["self_s"].values())
        layer["self_s_total"] = self_total
        # self times partition the traced spans, so they fit in the wall
        if self_total > layer["wall_traced"]:
            correct = False
            run.errors.append(f"layer self times {self_total:.3f}s exceed "
                              f"traced wall {layer['wall_traced']:.3f}s")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "result": result,
        "extra": {"failed_ratio": failed / attempted,
                  "raw": raw, "speed_factor": factor,
                  "ref_samples_s": run.ref_samples,
                  # a 90th percentile only where a pass has 100 items
                  "item_p90_ms": (percentile(latencies, 90)
                                  if len(items) >= 100 and latencies
                                  else None),
                  "verify_all_s": (statistics.median(verify_all)
                                   if verify_all else None),
                  "passes": len(passes), "pass_walls_s": walls,
                  "setup_samples_s": run.setup_samples,
                  "errors": run.errors,
                  "trace": layer},
        "items": [{"pass": k, **r} for k, p in enumerate(passes)
                  for r in p[0]],
        "environment": environment() | {"adelweil_file": run.origin},
    }


if __name__ == "__main__":
    sys.exit(main())
