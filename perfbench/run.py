"""Benchmark of constellation-lab: time to a verdict on seeded verification sweeps.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src`` directory, never from an installed copy.  Each pass over
the workload's case list runs in a fresh interpreter (``worker.py``), so
module-level caches never carry over from one pass to the next, and passes
repeat until ``--seconds`` is used.  Every case's output is checked against
values the benchmark computes itself (``oracle.py``).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are reported,
including the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workload names and each metric's name and unit come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 15
# Every run must end within 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 165

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import constellation_lab; "
    "from constellation_lab import cli; cli.build_parser()"
)

VALIDATIONS = (
    "biddings.Prebidding.validate",
    "biddings.LabelledNebula.validate",
    "biddings.is_valid_bidding",
)
FIELD = {"calls": 0, "items": 1, "total_s": 2, "self_s": 3}


def load_spec() -> dict:
    """``BENCHMARK.json``, which names the workloads and every metric printed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def measure_setup() -> float:
    """Median normalised time of interpreter start, import and build_parser(),
    each start bracketed by reference chunks run here."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        refs = [speed.reference_chunk() for _ in range(5)]
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up did not finish within 60 s")
        elapsed = time.perf_counter() - start
        refs += [speed.reference_chunk() for _ in range(5)]
        if done.returncode != 0:
            raise BenchError(f"set-up failed: {done.stderr.strip()[-500:]}")
        if i:  # the first start compiles the byte code
            times.append(elapsed * speed.factor(refs))
    return statistics.median(times)


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    spans = os.path.join(OUT, f"{workload}.spans.jsonl")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
            "1" if traced else "0", spans]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish within the time limit")
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    cases = result["cases"]
    refs = [ref for _, ref, _, _ in cases]
    result["factor"] = speed.factor(refs)
    result["latencies"] = [
        seconds * f for (seconds, _, _, _), f in zip(cases, speed.case_factors(refs))
    ]
    result["measured_s"] = sum(seconds for seconds, _, _, _ in cases)
    result["wall_s"] = result["measured_s"] * result["factor"]
    result["items"] = sum(items for _, _, items, _ in cases)
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list[tuple[bool, dict]]:
    """Passes until the next one would overrun ``seconds``; with tracing,
    untraced and traced passes alternate, starting untraced."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    passes: list[tuple[bool, dict]] = []
    last = {False: 0.0, True: 0.0}
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append((traced, run_pass(workload, seed, traced, deadline)))
        last[traced] = time.perf_counter() - began
        enough = len(passes) >= (2 if trace else 1)
        following = trace and len(passes) % 2 == 1
        if enough and time.perf_counter() - start + last[following] > seconds:
            return passes


def end_to_end(passes: list[dict], setup_s: float) -> dict[str, float]:
    latencies = [seconds * 1000 for p in passes for seconds in p["latencies"]]
    attempted = len(latencies)
    failed = sum(1 for p in passes for *_, failure in p["cases"] if failure)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "case_p50_ms": statistics.median(latencies),
        "case_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(untraced: list[dict], traced: list[dict], names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names``, from the tracer aggregates per traced
    pass, times normalised by the pass's reference speed.

    A name is ``<module>.<function>.<field>`` or ``<module>.<field>`` (summed
    over the module), with a field of ``FIELD``, or one of the ratios below;
    other names are left out.
    """
    runs = len(traced)
    stats: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for p in traced:
        scale = (1, 1, p["factor"], p["factor"])
        for name, values in p["trace"]["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v * scale[i] / runs
        for name, value in p["trace"]["counters"].items():
            counters[name] = counters.get(name, 0.0) + value / runs
    items = statistics.mean(p["items"] for p in traced)

    def get(name: str, field: str) -> float:
        return stats.get(name, [0, 0, 0.0, 0.0])[FIELD[field]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "puzzle.sample_puzzle.accept_ratio": ratio(
            counters.get("puzzle.sample_puzzle.accepted", 0.0),
            counters.get("puzzle.sample_puzzle.trials", 0.0),
        ),
        "biddings.validations_per_object": ratio(
            sum(get(v, "calls") for v in VALIDATIONS), items
        ),
        "trace.overhead_s": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced),
    }
    for fn in ("constellations.transitive_tuples", "constellations.arborescences_toward"):
        derived[f"{fn}.accept_ratio"] = ratio(get(fn, "items"), counters.get(f"{fn}.tried", 0.0))

    out = {}
    for name in names:
        target, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field not in FIELD:
            continue
        elif target in LAYERS:
            out[name] = sum(
                v[FIELD[field]] for fn, v in stats.items() if fn.split(".", 1)[0] == target
            )
        else:
            out[name] = get(target, field)
    return out


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "constellation_lab", "__init__.py")):
        print(f"error: no constellation_lab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        setup_s = None if args.trace else measure_setup()
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for traced, p in passes if not traced]
    traced = [p for traced, p in passes if traced]
    cases = [case for _, p in passes for case in p["cases"]]
    failures = [failure for *_, failure in cases if failure]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        values = per_layer(untraced, traced, list(units))
    else:
        values = end_to_end(untraced, setup_s)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: BENCHMARK.json names unknown metrics {missing}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(passes[0][1]['cases'])} cases")
    print(f"  attempted {len(cases)}, failed {len(failures)}, "
          f"failed_share {len(failures) / len(cases):.6f}")
    print("  measured seconds per pass " + " ".join(f"{p['measured_s']:.3f}" for _, p in passes)
          + ", normalised " + " ".join(f"{p['wall_s']:.3f}" for _, p in passes))
    if traced:
        print("  spans kept per traced pass " + " ".join(
            f"{p['trace']['spans']} (dropped {p['trace']['spans_dropped']})" for p in traced))
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name:52s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cases),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
