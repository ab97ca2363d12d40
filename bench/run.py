"""Benchmark of salmagundy's resolution game: one workload per invocation.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--base B]

Workloads (see ``expected.json`` for why each exists and its seed range):
``play-canonical``, ``play-adversarial``, ``explore``, ``replay``. Games run
one after another on one thread: a closed loop with one client.

``--trace 0`` runs passes over the workload, each in a fresh process, until
``--seconds`` have passed, and reports the end-to-end metrics named in
``BENCHMARK.json`` as medians over the passes. Set-up is timed in every
pass, and in extra set-up-only processes until there are three samples.
Times are scaled to a fixed reference speed of the host (see ``speed.py``);
``wall_s`` is the sum of the games' scaled times.

``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics named in ``BENCHMARK.json``; the traced pass also writes
its spans and every per-layer number to ``bench/out/``.

``--seed`` shuffles the order of the games; ``--base`` is the first
``gen_scenario`` seed. Every run checks that no game failed, that all passes
produced the same trace digest, and, at the recorded base, that the digest
and round count equal those in ``expected.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 3
# Some of the program's loops stop early in set iteration order, so without a
# fixed hash seed the per-layer call counts would differ between processes.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

sys.path.insert(0, BENCH)
from workloads import WORKLOADS  # noqa: E402


def end_to_end(passes: list, setups: list) -> dict:
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "wall_s": wall,
        "rounds_per_s": passes[0]["rounds"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    out["tracing.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    return out


class Runner:
    def __init__(self, workload: str, seed: int, base: int) -> None:
        self.args = ["--workload", workload, "--seed", str(seed), "--base", str(base)]
        self.start = time.monotonic()

    def __call__(self, mode: str) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise RuntimeError("out of time before the pass started")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *self.args, "--mode", mode]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=left
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def check(name: str, base: int, passes: list, expected: dict) -> list:
    """Problems with the passes' outputs; empty when they are correct."""
    problems = []
    for p in passes:
        if p["failed"]:
            problems.append(f"{p['failed']} of {p['games']} games failed: {p['errors']}")
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes disagree on the trace digest")
    if len({p["rounds"] for p in passes}) > 1:
        problems.append("passes disagree on the number of rounds")
    want = expected["workloads"][name]
    if base == expected["base"]:
        for key in ("digest", "rounds", "games"):
            if passes[0][key] != want[key]:
                problems.append(f"{key} {passes[0][key]} differs from the recorded {want[key]}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", type=int, default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "salmagundy", "__init__.py")):
        print(f"no program source under {ROOT}/src/salmagundy", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH, "expected.json")) as f:
        expected = json.load(f)

    run = Runner(args.workload, args.seed, args.base)
    try:
        if args.trace:
            passes = [run("time"), run("trace")]
            values = per_layer(*passes)
            wanted = spec["per_layer"]
        else:
            passes = [run("time")]
            while time.monotonic() - run.start < args.seconds:
                passes.append(run("time"))
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(run("setup")["setup_s"])
            values = end_to_end(passes, setups)
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 1

    problems = check(args.workload, args.base, passes, expected)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: {len(passes)} passes, {passes[0]['games']} games, "
        f"{passes[0]['rounds']} rounds, digest {passes[0]['digest']}; unscaled "
        f"wall {[round(p['raw_wall_s'], 3) for p in passes]} s, set-up "
        f"{[round(p['raw_setup_s'], 3) for p in passes]} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": sum(p["games"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
