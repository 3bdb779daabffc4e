"""Run one florasim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Every repetition runs in a fresh interpreter (worker.py). The run starts with
one traced repetition, which gives the per-layer metrics, the exact SGD
sample count and the reference report digest; then untraced repetitions run
back to back until --seconds seconds have passed since the start (at least
three of them) and give the end-to-end metrics as medians. Every
repetition's outputs are checked, and every untraced report must match the
traced one byte for byte.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it list each metric with its unit.
Exits 2 without a result if florasim's sources are missing next to this
directory or FLORA_SIM_THREADS is set, and 1 if the workload cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# The benchmark measures the serial round loop; this variable selects the
# package's thread pool.
THREADS_ENV = "FLORA_SIM_THREADS"
MIN_REPS = 3
# Every repetition must end by then, so the run ends well within 180 s.
DEADLINE_S = 165.0


@dataclass
class Rep:
    result: dict | None
    error: str = ""


def spawn(workload: str, seed: int, index: int, spans: str | None, env: dict, deadline: float) -> Rep:
    """Run worker.py once and parse its result line."""
    report = WORK / f"report-{index}.csv"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(report)]
    if spans is not None:
        cmd.append(spans)
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return Rep(None, "timed out")
    finally:
        report.unlink(missing_ok=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Rep(None, f"exit {proc.returncode}: {tail[0]}")
    try:
        return Rep(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        return Rep(None, "no result line")


def score(traced: Rep, reps: list[Rep]) -> tuple[int, int, list[str]]:
    """Count output checks. A crashed repetition fails every check it would
    have made; each untraced report must match the traced run's digest."""
    runs = [traced, *reps]
    expected = max(len(r.result["checks"]) for r in runs if r.result is not None)
    reference = traced.result["digest"]
    attempted = failed = 0
    failures = []
    for index, rep in enumerate(runs):
        digest_check = 1 if index > 0 else 0
        if rep.result is None:
            attempted += expected + digest_check
            failed += expected + digest_check
            failures.append(f"run {index} crashed: {rep.error}")
            continue
        for name, ok, detail in rep.result["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"run {index} {name}: {detail}")
        if digest_check:
            attempted += 1
            if rep.result["digest"] != reference:
                failed += 1
                failures.append(f"run {index}: report digest differs from the traced run's")
    return attempted, failed, failures


def tail(values: list[float]) -> str:
    """The highest nearest-rank percentile with at least ten values beyond it."""
    n = len(values)
    if n < 11:
        return f"median of {n}; no tail percentile (ten runs beyond one needs >= 11)"
    rank = n - 10
    return f"median of {n}; p{100 * rank / n:.0f} {sorted(values)[rank - 1]:.4f} (10 runs beyond)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if THREADS_ENV in os.environ:
        print(f"error: unset {THREADS_ENV}; the benchmark measures the serial path", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "florasim" / "__init__.py").is_file():
        print(f"error: no florasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Temporary files (verify's determinism check) stay inside the checkout.
    env = {**os.environ, "TMPDIR": str(tmp)}
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    spans = str(WORK / f"spans-{args.workload}.jsonl") if args.trace else "-"
    traced = spawn(args.workload, args.seed, 0, spans, env, deadline)
    # Untraced runs fill the rest of --seconds; stop before one would overrun it.
    reps: list[Rep] = []
    first = time.perf_counter()
    while time.perf_counter() < deadline:
        reps.append(spawn(args.workload, args.seed, len(reps) + 1, None, env, deadline))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now - start + (now - first) / len(reps) > args.seconds:
            break

    good = [r.result for r in reps if r.result is not None]
    if traced.result is None or not good:
        errors = [r.error for r in (traced, *reps) if r.result is None]
        print(f"error: workload {args.workload} did not run: {errors[0]}", file=sys.stderr)
        return 1
    attempted, failed, failures = score(traced, reps)

    walls = [r["wall_s"] for r in good]
    wall = statistics.median(walls)
    layers = dict(traced.result["layers"])
    layers["trace.overhead_s"] = traced.result["wall_s"] - wall
    end_to_end = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "samples_per_s": layers["training.sgd_samples"] / wall,
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }

    env_info = traced.result["environment"]
    print(f"workload {args.workload}, seed {args.seed}: 1 traced + {len(reps)} untraced runs, each in a fresh process")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    notes = {"wall_s": tail(walls), "samples_per_s": f"{layers['training.sgd_samples']} SGD samples per run"}
    for name, unit in END_TO_END:
        print(f"  {name:<16} {end_to_end[name]:>14.6g} {unit:<6} {notes.get(name, f'median of {len(good)}')}")
    print("  wall_s of each untraced run: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  {'error_rate':<16} {failed / attempted:>14.6g} {'':<6} {failed} of {attempted} output checks failed")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit}")
        if traced.result["absent"]:
            print("  absent from the package: " + ", ".join(traced.result["absent"]))

    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else end_to_end
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": source[name], "unit": unit} for name, unit in chosen},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
