"""One pass of a workload in a fresh process; prints one JSON object.

    python3 bench/worker.py --workload NAME --seed N --base B --mode time|setup|trace

``setup`` stops after set-up. ``time`` plays every game untraced. ``trace``
plays them with the tracer installed, then writes the spans and the full
per-layer table to ``bench/out/``. Each pass is its own process so that no
cache of the program outlives the games that filled it, and so that
``ru_maxrss`` is the pass's own peak.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--base", type=int, required=True)
    ap.add_argument("--mode", choices=("time", "setup", "trace"), required=True)
    args = ap.parse_args(argv)

    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS, digest, play_all, player, setup

    w = WORKLOADS[args.workload]
    out = {}
    with SpeedProbe() as probe:
        start = time.perf_counter()
        sys.path.insert(0, SRC)
        import salmagundy

        if not os.path.abspath(salmagundy.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"imported salmagundy from {salmagundy.__file__}, not {SRC}")
        inputs = setup(w, args.base)
        run_one = player(w)
        ready = time.perf_counter()
        if args.mode != "setup":
            # Set-up garbage would otherwise be traversed by collections that
            # land in random games of the timed region.
            gc.collect()
            gc.freeze()
            tracer = Tracer() if args.mode == "trace" else None
            if tracer is None:
                games, spans = play_all(run_one, inputs, args.seed)
            else:
                def on_game(i: int) -> None:
                    tracer.game = i

                with tracer:
                    games, spans = play_all(run_one, inputs, args.seed, on_game)
    out["setup_s"] = (ready - start) * probe.scale(start, ready)
    out["raw_setup_s"] = ready - start
    if args.mode != "setup":
        out.update(
            games=len(games),
            rounds=sum(g.rounds for g in games),
            failed=sum(not g.ok for g in games),
            errors=sorted({g.error for g in games if g.error})[:5],
            digest=digest(games),
            # each game scaled by the host's speed around it
            wall_s=sum((b - a) * probe.scale(a, b) for a, b in spans),
            raw_wall_s=max(b for _, b in spans) - min(a for a, _ in spans),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    if args.mode == "trace":
        layers = tracer.stats()
        layers["tracing.spans"] = tracer.span_count
        out["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{w.name}-spans.bin"))
        with open(os.path.join(OUT, f"{w.name}-layers.json"), "w") as f:
            json.dump(dict(sorted(layers.items())), f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
