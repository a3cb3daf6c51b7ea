"""The gasket-spectrum benchmark: one command per workload and seed.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; it finds src/ next to this directory and
uses nothing outside the checkout. The workloads, each a closed loop with
one client and at most one child process at a time:

  cli-cold  a fresh `python -m gasket_spectrum.cli` per command (cli_cold.py):
            every call pays import and the limit-base and root bisections.
  sweep     classify / spectrum_of / sft_spec / sft_densities across every
            regime and uniqueness_verdict from short words up to 2048-digit
            catalogue tails, in one warm process (inprocess.py).
  verify    the exhaustive shift verifiers 3.1, 3.2 (both variants) and 3.4
            at scales 9-11: pure `matching` scans.
  render    build_gasket / build_intersection at depth 9-11, then emit_svg
            and emit_ppm: the only `geometry` load and the memory-heavy path.

With --trace 0 it prints the end-to-end metrics listed in BENCHMARK.json:
ops_per_s (a cycle's operations over the median cycle's time), op_p50_ms,
op_tail_ms (the latency with ten samples above it), setup_s (the median over
SETUP_RUNS fresh interpreters of import plus the workload's warm-up) and
peak_rss_mb; fail_ratio is the result's failed/attempted.

The host's speed drifts by a fifth over tens of seconds, and every time a run
measures drifts with it. So the timed loop is interleaved with probe.py, a
fixed job that does not use the package, and the four timed metrics are
scaled to a host on which the probe takes its reference time: divided (times)
or multiplied (ops_per_s) by the probe's median over the run divided by that
reference. The times as measured, and the probe's median, are printed on the
lines for people.

With --trace 1 it runs the same operations twice in fresh processes, untraced
and then traced, without probes, and prints the per-layer metrics as measured;
the spans go to .bench_out/. The last stdout line is the JSON result; the
lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_cold
import probe
from measure import (LAYERS, Span, Tally, attempt, closed_loop, layer_totals, nearest_rank, tail,
                     work_rate)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("cli-cold", "sweep", "verify", "render")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
# cli-cold runs a fresh probe (probe.py) after every third operation: about
# a sixth of a run, and some thirty probes.
PROBE_EVERY = 3


def listed_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json:
    a run reports exactly the metrics listed there."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run would exceed its time limit")
        return left


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GS_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(args: list, deadline: Deadline) -> dict:
    """Run inprocess.py to completion and return its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "inprocess.py"), *args],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# cli-cold: the loop runs here, one CLI child per operation
# ---------------------------------------------------------------------------

def probe_s(deadline: Deadline) -> float:
    """Wall time of one probe.py run in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py")], check=True, capture_output=True,
                   env=child_env(), cwd=ROOT, timeout=deadline.left())
    return time.perf_counter() - start


def cli_loop(seed: int, seconds: float, max_ops: int | None, traced: bool,
             deadline: Deadline, probes: list | None = None) -> tuple[Tally, float, list]:
    """The cli-cold loop. With a `probes` list, every PROBE_EVERY-th operation
    is followed by a probe, whose time goes to the list."""
    expected = json.loads((HERE / "expected.json").read_text())
    env = child_env()
    spans = []
    head = [sys.executable, str(HERE / "cli_phases.py")] if traced else \
        [sys.executable, "-m", "gasket_spectrum.cli"]

    def run(op: cli_cold.CliOp, op_id: int):
        def call():
            return subprocess.run(head + op.argv, capture_output=True, text=True,
                                  env=env, cwd=ROOT, timeout=deadline.left())

        def check(proc):
            if proc.returncode != op.exit_code:
                return f"exit code {proc.returncode}, expected {op.exit_code}: {proc.stderr[-300:]}"
            return op.check(json.loads(proc.stdout))

        out = attempt(call, check)
        if traced and not out.raised:
            proc = out.result
            parent = Span(len(spans), "cli.process", out.start, out.end, op=op_id,
                          error=proc.returncode != 0)
            spans.append(parent)
            try:  # a command that crashed leaves a traceback, not the phases
                phases = json.loads(proc.stderr.strip().splitlines()[-1])
            except (IndexError, ValueError):
                phases = []
            for s in phases:
                spans.append(Span(len(spans), s["name"], s["start"], s["end"],
                                  parent=parent.id, op=op_id))
        if probes is not None and op_id % PROBE_EVERY == 0:
            probes.append(probe_s(deadline))
        return " ".join(op.argv), out

    start = time.perf_counter()
    tally = closed_loop(cli_cold.cycles(random.Random(seed), expected), run, seconds, max_ops)
    return tally, time.perf_counter() - start, spans


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, deadline: Deadline) -> dict:
    def setup_runs(count: int) -> list:
        return [worker(["--workload", workload, "--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    # The in-process worker's own set-up is one sample. The other set-up runs
    # are split around the timed loop so that they see more than one moment
    # of the host.
    runs = SETUP_RUNS - (workload != "cli-cold")
    setups = setup_runs(runs // 2)
    if workload == "cli-cold":
        probes = []
        tally, _, _ = cli_loop(seed, seconds, None, False, deadline, probes)
        problems = []
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        kind = "fresh"
    else:
        res = worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--probe"], deadline)
        setups.append(res["setup_s"])
        tally = Tally(**res["tally"])
        probes = res["probes"]
        problems = res["setup_problems"]
        peak_mb = res["peak_rss_mb"]
        kind = "warm"
    setups += setup_runs(runs - runs // 2)
    # Times are scaled to a host on which the probe takes its reference time.
    slow = statistics.median(probes) / probe.REFERENCE_S[kind]
    p, tail_s, beyond = tail(tally.latencies)
    measured = {
        "ops_per_s": tally.ops_per_s(),
        "op_p50_ms": nearest_rank(sorted(tally.latencies), 50) * 1000,
        "op_tail_ms": tail_s * 1000,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: v * slow if name == "ops_per_s" else v / slow for name, v in measured.items()}
    metrics["peak_rss_mb"] = peak_mb
    notes = {name: f"measured {v:.6g}" for name, v in measured.items()}
    notes["op_tail_ms"] += f"; p{p:.1f}, {beyond} of {len(tally.latencies)} samples beyond it"
    notes["setup_s"] += "; median of " + ", ".join(f"{s:.4f}" for s in setups)
    notes["host"] = (f"{kind} probe median {statistics.median(probes):.6g} s over {len(probes)} "
                     f"runs, {slow:.4f} x its reference {probe.REFERENCE_S[kind]} s")
    notes["fail_ratio"] = f"{tally.fail_ratio:g} ({len(tally.failures)}/{tally.attempted})"
    return {"metrics": metrics, "notes": notes, "tally": tally, "problems": problems}


def per_layer(workload: str, seed: int, seconds: float, deadline: Deadline) -> dict:
    """Untraced then traced passes over the same operations, in fresh processes."""
    if workload == "cli-cold":
        plain, plain_wall, _ = cli_loop(seed, seconds / 2, None, False, deadline)
        traced, traced_wall, spans = cli_loop(seed, 0, plain.attempted, True, deadline)
        problems = []
    else:
        base = ["--workload", workload, "--seed", str(seed)]
        res = worker(base + ["--seconds", str(seconds / 2)], deadline)
        plain = Tally(**res["tally"])
        plain_wall = res["wall_s"]
        res = worker(base + ["--max-ops", str(plain.attempted), "--trace"], deadline)
        traced = Tally(**res["tally"])
        traced_wall = res["wall_s"]
        spans = [Span(**s) for s in res["spans"]]
        problems = res["setup_problems"]
    totals = layer_totals(spans)
    metrics = {}
    for layer in LAYERS:
        t = totals[layer]
        metrics.update({f"{layer}.calls": t["calls"], f"{layer}.busy_s": t["busy_s"],
                        f"{layer}.self_s": t["self_s"], f"{layer}.errors": t["errors"]})
    metrics.update({
        "cli.import_s": totals["cli"]["by_name"].get("cli.import", 0.0),
        "bases.kl_s": totals["bases"]["by_name"].get("bases.kl_constant", 0.0),
        "bases.roots_s": totals["bases"]["by_name"].get("bases.base_root", 0.0),
        "expansions.unique_digits_per_s": work_rate(spans, "expansions.uniqueness_verdict", "digits"),
        "spectrum.sft_scales_tried": totals["spectrum"]["work"].get("sft_scales", 0),
        "matching.shifts_per_s": work_rate(spans, "matching.", "shifts"),
        "geometry.points_per_s": work_rate(spans, "geometry.build_", "points"),
        "geometry.bytes_written": totals["geometry"]["work"].get("bytes", 0),
        "trace.overhead_s": traced_wall - plain_wall,
    })
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": [vars(s) for s in spans],
                                "layers": totals}, indent=1) + "\n")
    tally = Tally(plain.latencies + traced.latencies, plain.failures + traced.failures,
                  plain.busy_s + traced.busy_s)
    notes = {"spans": f"{len(spans)} spans written to {path.relative_to(ROOT)}",
             "fail_ratio": f"{tally.fail_ratio:g} ({len(tally.failures)}/{tally.attempted})"}
    return {"metrics": metrics, "notes": notes, "tally": tally, "problems": problems}


def metadata(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gasket-spectrum benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gasket_spectrum" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    units = listed_metrics()["per_layer" if args.trace else "end_to_end"]
    measure = per_layer if args.trace else end_to_end
    res = measure(args.workload, args.seed, args.seconds, Deadline(TIME_LIMIT_S))
    metrics = {name: res["metrics"][name] for name in units}
    tally = res["tally"]
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    for name, v in metrics.items():
        note = res["notes"].get(name)
        print(f"{name} {v:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    for name in ("host", "fail_ratio", "spans"):
        if name in res["notes"]:
            print(f"{name} {res['notes'][name]}")
    for line in res["problems"] + tally.failures[:20]:
        print("FAILED " + line)
    print(json.dumps({
        "correct": not tally.failures and not res["problems"],
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
