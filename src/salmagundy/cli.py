"""Command-line front end.

Exit codes: 0 success (valid input / game won / exploration clean),
1 violations or a lost game, 2 a cap or limit was hit, 3 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .board import board_from_json, board_to_dot, board_to_json, validate_board
from .game import replay_trace
from .harness import explore, gen_board, gen_scenario, play_game, scenario_to_dot
from .mephisto import CapError, NoValidBundle, Policy, check_caps
from .scenario import scenario_from_json, scenario_to_json, validate_scenario, validate_shape

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CAP = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _global_flags(default) -> argparse.ArgumentParser:
    """The options every command accepts, before or after its name.

    The top-level copy defaults to None; the copies inside the subcommands
    default to SUPPRESS, so a flag given before the command survives.
    """
    g = argparse.ArgumentParser(add_help=False, argument_default=default)
    g.add_argument("--config", help="JSON file with default option values")
    g.add_argument("--seed", type=int)
    g.add_argument("--round-cap", type=int)
    g.add_argument("--mephisto", help="canonical | random:<seed> | adversarial")
    g.add_argument("--max-new-nodes", type=int)
    g.add_argument("--max-order-steps", type=int)
    return g


def _build_parser() -> _Parser:
    p = _Parser(prog="salmagundy", description=__doc__, parents=[_global_flags(None)])
    sub = p.add_subparsers(dest="command", required=True)
    common = [_global_flags(argparse.SUPPRESS)]

    v = sub.add_parser("validate", parents=common, help="validate a board or scenario file")
    v.add_argument("file")
    v.set_defaults(run=_cmd_validate)

    g = sub.add_parser("gen", parents=common, help="generate a board or scenario")
    g.add_argument("what", choices=["board", "scenario"])
    g.add_argument("--max-nodes", type=int, default=8)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--board", help="board file for gen scenario")
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--B", type=int, default=None)
    g.add_argument("--jib-count", type=int, default=None)
    g.add_argument("--out", help="write here instead of stdout")
    g.set_defaults(run=_cmd_gen)

    pl = sub.add_parser("play", parents=common, help="play one game on a scenario")
    pl.add_argument("--scenario", help="scenario file (default: generated from --seed)")
    pl.add_argument("--trace", help="write the NDJSON trace here")
    pl.set_defaults(run=_cmd_play)

    e = sub.add_parser(
        "explore", parents=common, help="try every capped bundle against the strategy"
    )
    e.add_argument("--scenario", help="scenario file (default: generated from --seed)")
    e.add_argument("--depth-cap", type=int)
    e.set_defaults(run=_cmd_explore)

    x = sub.add_parser("export", parents=common, help="export DOT")
    x.add_argument("what", choices=["dot"])
    x.add_argument("--scenario", help="scenario file")
    x.add_argument("--board", help="board file")
    x.set_defaults(run=_cmd_export)

    r = sub.add_parser("replay", parents=common, help="re-validate a recorded trace")
    r.add_argument("file")
    r.set_defaults(run=_cmd_replay)
    return p


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage(f"cannot read config {args.config}: {exc}"))
    if not isinstance(conf, dict):
        raise SystemExit(_usage(f"bad config {args.config}: not a JSON object"))
    kinds = {
        "seed": int, "round_cap": int, "mephisto": str,
        "max_new_nodes": int, "max_order_steps": int,
    }
    unknown = sorted(set(conf) - set(kinds))
    if unknown:
        raise SystemExit(_usage(f"bad config {args.config}: unknown key {json.dumps(unknown[0])}"))
    for key, kind in kinds.items():
        value = conf.get(key)
        if value is None:
            continue
        if not isinstance(value, kind) or isinstance(value, bool):
            want = "an integer" if kind is int else "a string"
            raise SystemExit(
                _usage(f"bad config {args.config}: {key} must be {want}, got {json.dumps(value)}")
            )
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage(f"cannot read {path}: {exc}"))


# What a JSON file may hold: its parser and its validator.
_KINDS = {
    "scenario": (scenario_from_json, validate_scenario),
    "board": (board_from_json, validate_board),
}


def _parse(path: str, kind: str, data):
    """The ``kind`` value ``data``, read from ``path``, holds; one that does
    not parse is a usage error."""
    try:
        return _KINDS[kind][0](data)
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(_usage(f"bad {kind} in {path}: {exc}"))


def _load(path: str, kind: str):
    """The ``kind`` value the JSON file ``path`` holds."""
    return _parse(path, kind, _load_json(path))


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` that the command line or the config set;
    the others are left to the defaults of the function they are passed to."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _caps(args: argparse.Namespace, *names: str) -> dict:
    """``_given`` for the caps of ``play_game`` and ``explore``; a negative
    one is a usage error, checked before the game starts."""
    caps = _given(args, *names)
    try:
        check_caps(**caps)
    except ValueError as exc:
        raise SystemExit(_usage(str(exc)))
    return caps


def _policy(args: argparse.Namespace, text: str) -> Policy:
    """The policy ``text`` names with the options' caps; a bad value is a
    usage error. ``explore`` is no policy to play against: ``parse`` refuses it."""
    caps = _given(args, "max_new_nodes", "max_order_steps")
    try:
        return Policy.parse(text, **caps)
    except ValueError as exc:
        raise SystemExit(_usage(str(exc)))


def _game_scenario(args: argparse.Namespace):
    """The --scenario file, which must be valid, or the one generated from
    --seed; an invalid file exits 1 with its violations."""
    if not args.scenario:
        return gen_scenario(args.seed if args.seed is not None else 0)
    scenario = _load(args.scenario, "scenario")
    violations = validate_scenario(scenario)
    if violations:
        raise SystemExit(_report(violations))
    return scenario


def _report(violations) -> int:
    for v in violations:
        sys.stderr.write(f"{v}\n")
    return EXIT_VIOLATIONS


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:  # like an input that cannot be read, a usage error
        raise SystemExit(_usage(f"cannot write {path}: {exc}"))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    data = _load_json(args.file)
    kind = "scenario" if isinstance(data, dict) and "d" in data else "board"
    violations = _KINDS[kind][1](_parse(args.file, kind, data))
    if violations:
        return _report(violations)
    print(f"{kind} ok")
    return EXIT_OK


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    board = _load(args.board, "board") if args.what == "scenario" and args.board else None
    if board is not None and (violations := validate_board(board)):
        return _report(violations)
    try:
        if args.what == "board":
            data = board_to_json(gen_board(seed, max_nodes=args.max_nodes, n=args.n))
        else:
            data = scenario_to_json(
                gen_scenario(seed, board=board, d=args.d, B=args.B, jib_count=args.jib_count)
            )
    except ValueError as exc:  # an argument out of range
        return _usage(str(exc))
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_play(args) -> int:
    scenario = _game_scenario(args)
    policy = _policy(args, args.mephisto or "canonical")
    caps = _caps(args, "round_cap")
    out = _open_out(args.trace) if args.trace else None  # before any round is played
    trace: List[str] = []
    try:
        result = play_game(scenario, policy, trace=trace, **caps)
    finally:  # a game stopped by a cap still leaves the rounds it played
        if out is not None:
            with out:
                out.write("\n".join(trace) + "\n")
    print(
        f"{'won' if result.won else 'not won'} in {result.rounds} rounds "
        f"({result.blowups} blowups); strict={str(result.singular_centers).lower()}"
    )
    # Dido stops only once the root is won, so a game ends unwon only at the round cap.
    if not result.won:
        sys.stderr.write(result.note + "\n")
        return EXIT_CAP
    return EXIT_OK


def _cmd_explore(args) -> int:
    scenario = _game_scenario(args)
    report = explore(scenario, **_caps(args, "depth_cap", "max_new_nodes", "max_order_steps"))
    print(
        f"all_won={str(report.all_won).lower()} branches={report.branch_count} "
        f"leaves={report.leaf_count} wins={report.win_count} "
        f"max_depth={report.max_depth} states={report.states}"
    )
    for reason in report.truncated:
        print(f"truncated: {reason}")
    if report.counterexample is None:  # no leaf was lost
        return EXIT_CAP if report.truncated else EXIT_OK
    sys.stderr.write("\n".join(report.counterexample) + "\n")
    return EXIT_CAP if report.max_depth >= report.depth_cap else EXIT_VIOLATIONS


def _cmd_export(args) -> int:
    if args.scenario:
        c = _load(args.scenario, "scenario")
        violations = validate_shape(c)  # the exporter reads c's nodes on its board
        if violations:
            return _report(violations)
        sys.stdout.write(scenario_to_dot(c))
        return EXIT_OK
    if args.board:
        b = _load(args.board, "board")
        sys.stdout.write(board_to_dot(b))
        return EXIT_OK
    raise SystemExit(_usage("export dot needs --scenario or --board"))


def _cmd_replay(args) -> int:
    try:
        with open(args.file) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SystemExit(_usage(f"cannot read {args.file}: {exc}"))
    try:
        state = replay_trace(lines)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_VIOLATIONS
    print(f"replayed {state.round_no} rounds; won={str(state.won).lower()}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_config(args)
    try:
        return args.run(args)
    except CapError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CAP
    except NoValidBundle as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_VIOLATIONS


if __name__ == "__main__":
    raise SystemExit(main())
