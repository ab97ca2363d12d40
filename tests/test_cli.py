"""The command line, driven through ``cli.main``: every subcommand and exit code.

Exit codes: 0 success, 1 violations, 2 a cap was hit, 3 usage errors.
"""

import json
import re

import pytest

from salmagundy import cli, harness, mephisto, scenario_to_json
from salmagundy.mephisto import Policy


def run(capsys, *argv):
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---- gen and validate -------------------------------------------------------


def test_gen_then_validate_board_and_scenario(capsys, tmp_path):
    board, scen = tmp_path / "board.json", tmp_path / "scenario.json"
    assert run(capsys, "--seed", 4, "gen", "board", "--out", board)[0] == cli.EXIT_OK
    assert run(capsys, "validate", board)[:2] == (cli.EXIT_OK, "board ok\n")
    code, _, _ = run(capsys, "gen", "scenario", "--board", board, "--out", scen)
    assert code == cli.EXIT_OK
    assert run(capsys, "validate", scen)[:2] == (cli.EXIT_OK, "scenario ok\n")


def test_gen_writes_json_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "scenario", "--seed", 2)
    assert code == cli.EXIT_OK
    assert set(json.loads(out)) >= {"board", "d", "B", "H", "S", "T", "ord", "M"}


@pytest.mark.parametrize(
    "argv, error",
    [
        (["board", "--max-nodes", 0], "max_nodes must be at least 1, got 0"),
        (["board", "--n", -1], "n must be at least 1, got -1"),
        (["scenario", "--d", 7], "d=7 is outside 0..3, the board dimension"),
        (["scenario", "--B", 0], "B must be at least 1, got 0"),
        (["scenario", "--jib-count", 9], "jib_count=9 is outside 0..2, the dim-(n-1) nodes"),
    ],
)
def test_gen_reports_an_argument_out_of_range_as_a_usage_error(capsys, argv, error):
    # each of these ended in a traceback (exit 1) inside gen_board or gen_scenario
    code, out, err = run(capsys, "gen", *argv, "--seed", 0)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {error}\n")


def _board_json(dims, covers):
    return {"nodes": [{"id": s, "dim": n} for s, n in dims.items()], "covers": covers}


# The cover x < h joins two nodes of dimension 1.
CROSSED = _board_json(
    {"s": 0, "h": 1, "x": 1, "w": 2}, [["s", "h"], ["h", "w"], ["x", "h"], ["x", "w"]]
)
CROSSED_ERR = "[board / issue monotone-dim] cover x < h but dim 1 >= 1 (witness: x, h)\n"


def test_gen_scenario_on_an_invalid_board_exits_with_its_violations(capsys, tmp_path):
    two_tops = _board_json({"s": 0, "a": 1, "b": 1}, [["s", "a"], ["s", "b"]])
    two_tops_err = (
        "[board / issue unique-top] expected exactly one maximal node, found 2 (witness: a, b)\n"
    )
    path = tmp_path / "board.json"
    for board, want in ((CROSSED, CROSSED_ERR), (two_tops, two_tops_err)):
        path.write_text(json.dumps(board))
        assert run(capsys, "validate", path) == (cli.EXIT_VIOLATIONS, "", want)
        code, out, err = run(capsys, "gen", "scenario", "--board", path, "--seed", 1)
        assert (code, out, err) == (cli.EXIT_VIOLATIONS, "", want)
        assert "Traceback" not in err


def test_a_scenario_on_an_invalid_board_is_rejected_before_play(capsys, tmp_path):
    data = {
        "board": CROSSED, "d": 0, "B": 6, "H": [], "S": ["s"], "T": ["h", "s", "w", "x"],
        "ord": {"s": "inf"}, "M": [{}],
    }
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(data))
    for argv in (["validate"], ["play", "--scenario"], ["explore", "--scenario"]):
        code, out, err = run(capsys, *argv, path)
        assert (code, out, err) == (cli.EXIT_VIOLATIONS, "", CROSSED_ERR)
        assert "Traceback" not in err


def test_a_singular_top_is_a_valid_start_that_no_bundle_answers(capsys, tmp_path):
    # Dido names the top, the one singular node left with a transversal
    # center; no blowup there is legal, so Mephisto has no bundle to offer.
    data = {
        "board": _board_json({"w": 1, "v": 0}, [["v", "w"]]), "d": 1, "B": 1, "H": [],
        "S": ["v", "w"], "T": ["v", "w"], "ord": {"v": "inf", "w": "inf"}, "M": [{}],
    }
    path = tmp_path / "top.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "validate", path) == (cli.EXIT_OK, "scenario ok\n", "")
    for argv in (["play", "--scenario"], ["explore", "--scenario"]):
        code, out, err = run(capsys, *argv, path)
        assert code == cli.EXIT_VIOLATIONS
        assert "center w is not admissible" in err and "Traceback" not in err


def test_an_illegal_fixed_child_call_names_its_violation(capsys, tmp_path):
    # The chain a < b < w with d = 2, H = {b}, S = {a}, ord(a) = 3/2 and
    # M = <b: 1/2>. Under canonical, Dido's quotient call after 11 rounds has
    # one child, which scenario issue 9 rejects; the error names that
    # violation, not only the missing bundle. random:1 wins the same start,
    # and explore meets the same call and names the same violation.
    data = {
        "board": _board_json({"a": 0, "b": 1, "w": 2}, [["a", "b"], ["b", "w"]]),
        "d": 2, "B": 2, "H": ["b"], "S": ["a"], "T": ["a", "b", "w"], "ord": {"a": "3/2"},
        "M": [{"b": "1/2"}],
    }
    path, trace = tmp_path / "chain.json", tmp_path / "chain.ndjson"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "play", "--scenario", path, "--trace", trace)
    assert code == cli.EXIT_VIOLATIONS and "Traceback" not in err
    assert len(trace.read_text().splitlines()) == 1 + 11
    assert re.search(r"illegal call on quest \d+: \[scenario / issue 9\]", err)
    code, out, err = run(capsys, "play", "--scenario", path, "--mephisto", "random:1")
    assert code == cli.EXIT_OK and out.startswith("won in 12 rounds")
    code, out, err = run(capsys, "explore", "--scenario", path)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "") and "Traceback" not in err
    assert re.search(r"illegal call on quest \d+: \[scenario / issue 9\]", err)


def test_validate_reports_violations(capsys, tmp_path, chain_scenario):
    data = scenario_to_json(chain_scenario)
    data["ord"]["p"] = "1/2"  # off the 1/B grid, B = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", path)
    assert code == cli.EXIT_VIOLATIONS
    assert "multiple of 1/1" in err


def test_validate_reports_factor_weight_off_the_board(capsys, tmp_path, chain_scenario):
    data = scenario_to_json(chain_scenario)
    data["M"] = [{"ghost": "1"}]
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", path)
    assert code == cli.EXIT_VIOLATIONS
    assert "M has weights at unknown nodes (witness: ghost)" in err


def test_a_boolean_d_or_B_is_rejected_without_a_traceback(capsys, tmp_path):
    # bool is a subclass of int, so a JSON true once passed as d or B
    scen = tmp_path / "s.json"
    assert run(capsys, "--seed", 3, "gen", "scenario", "--out", scen)[0] == cli.EXIT_OK
    data = json.loads(scen.read_text())
    for key in ("d", "B"):
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps({**data, key: True}))
        for argv in (("validate", bad), ("play", "--scenario", bad)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (cli.EXIT_VIOLATIONS, ""), argv
            assert err.startswith("[scenario / issue structure] bad d/B") and "Traceback" not in err

    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--scenario", scen, "--trace", trace)[0] == cli.EXIT_OK
    header, *rounds = trace.read_text().splitlines()
    record = json.loads(header)
    record["header"]["scenario"]["B"] = True
    trace.write_text("\n".join([json.dumps(record), *rounds]) + "\n")
    code, out, err = run(capsys, "replay", trace)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert "bad d/B" in err and "Traceback" not in err


def test_validate_usage_errors(capsys, tmp_path):
    assert run(capsys, "validate", tmp_path / "missing.json")[0] == cli.EXIT_USAGE
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "validate", garbled)[0] == cli.EXIT_USAGE
    for text in ("3", "null", '"d"'):  # JSON, but no object
        garbled.write_text(text)
        code, _, err = run(capsys, "validate", garbled)
        assert code == cli.EXIT_USAGE and "malformed board JSON" in err


@pytest.mark.parametrize("field, value", [("ord", ["p"]), ("M", ["0"])], ids=["ord", "M"])
def test_scenario_entries_that_are_not_objects_are_usage_errors(
    capsys, tmp_path, chain_scenario, field, value
):
    data = scenario_to_json(chain_scenario)
    data[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    for argv in (("validate", path), ("play", "--scenario", path)):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE and "malformed scenario JSON" in err


def test_a_scenario_file_is_read_as_written(capsys, tmp_path, chain_scenario):
    # A string for H read as its characters, and a repeated generator was
    # dropped, so the file validated clean.
    path = tmp_path / "scenario.json"
    data = scenario_to_json(chain_scenario)
    path.write_text(json.dumps({**data, "H": ""}))
    code, _, err = run(capsys, "validate", path)
    assert code == cli.EXIT_USAGE and "malformed scenario JSON: H '' is not a list" in err
    path.write_text(json.dumps({**data, "M": data["M"] * 2}))
    code, _, err = run(capsys, "validate", path)
    assert code == cli.EXIT_VIOLATIONS and "[scenario / issue 7] generators are not" in err
    assert "Traceback" not in err


def test_every_command_reports_a_file_that_does_not_parse_alike(capsys, tmp_path, chain_scenario):
    # validate, gen, play and export read a board or scenario file through
    # one path, so the message and exit code of a bad file are the same.
    board = tmp_path / "board.json"
    board.write_text(json.dumps({"nodes": [{"id": "a"}], "covers": []}))
    scenario = tmp_path / "scenario.json"
    data = scenario_to_json(chain_scenario)
    del data["B"]
    scenario.write_text(json.dumps(data))
    for path, argvs, detail in (
        (board, [("validate",), ("gen", "scenario", "--board"), ("export", "dot", "--board")],
         "bad board in {}: malformed board JSON: 'dim'"),
        (scenario, [("validate",), ("play", "--scenario"), ("export", "dot", "--scenario")],
         "bad scenario in {}: malformed scenario JSON: 'B'"),
    ):
        for argv in argvs:
            assert run(capsys, *argv, path) == (cli.EXIT_USAGE, "", f"error: {detail.format(path)}\n")


# ---- play ---------------------------------------------------------------------


def test_global_flags_work_after_the_subcommand(capsys):
    before = run(capsys, "--seed", 3, "play")
    after = run(capsys, "play", "--seed", 3)
    assert before[0] == after[0] == cli.EXIT_OK
    assert before[1] == after[1]


def test_every_global_flag_in_either_position(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3}))
    flags = [
        "--config", config, "--mephisto", "adversarial", "--round-cap", 500,
        "--max-new-nodes", 20, "--max-order-steps", 1,
    ]
    before = run(capsys, *flags, "play")
    after = run(capsys, "play", *flags)
    assert before[0] == after[0] == cli.EXIT_OK
    assert before[1] == after[1] == run(capsys, "--seed", 3, "play")[1]


def test_command_line_flag_overrides_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "round_cap": 1}))
    assert run(capsys, "play", "--config", config)[0] == cli.EXIT_CAP
    assert run(capsys, "play", "--config", config, "--round-cap", 100)[0] == cli.EXIT_OK


def test_a_config_that_is_not_an_object_of_the_right_types_is_a_usage_error(
    capsys, tmp_path
):
    config = tmp_path / "config.json"
    for conf, says in (
        ({"round_cap": "5"}, 'round_cap must be an integer, got "5"'),
        ({"mephisto": 5}, "mephisto must be a string, got 5"),
        ({"seed": True}, "seed must be an integer, got true"),
        ({"max_order_steps": 1.5}, "max_order_steps must be an integer, got 1.5"),
        ([{"seed": 3}], "not a JSON object"),
        ({"roundcap": 1}, 'unknown key "roundcap"'),
    ):
        config.write_text(json.dumps(conf))
        code, out, err = run(capsys, "play", "--config", config)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: bad config {config}: {says}\n"
    # null is no value: the default stands
    config.write_text(json.dumps({"seed": 3, "max_new_nodes": None}))
    assert run(capsys, "play", "--config", config)[:2] == run(capsys, "play", "--seed", 3)[:2]


def test_a_negative_max_order_steps_is_a_usage_error(capsys):
    # every cap: Policy, play_game and explore raise a ValueError naming it
    for argv, name in (
        (("play", "--seed", 1, "--mephisto", "adversarial", "--max-order-steps", -1),
         "max_order_steps"),
        (("explore", "--seed", 1, "--max-order-steps", -1), "max_order_steps"),
        (("play", "--seed", 1, "--max-new-nodes", -1), "max_new_nodes"),
        (("explore", "--seed", 1, "--max-new-nodes", -1), "max_new_nodes"),
        (("play", "--seed", 1, "--round-cap", -1), "round_cap"),
        (("explore", "--seed", 1, "--depth-cap", -1), "depth_cap"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: {name} must be at least 0, got -1\n"
    for call, name in (
        (lambda: Policy(max_new_nodes=-1), "max_new_nodes"),
        (lambda: harness.play_game(harness.gen_scenario(1), Policy(), round_cap=-1), "round_cap"),
        (lambda: harness.explore(harness.gen_scenario(1), depth_cap=-1), "depth_cap"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0, got -1$"):
            call()
    # a cap of 0 is no usage error: the round cap stops the game at once
    code, _, err = run(capsys, "play", "--seed", 1, "--round-cap", 0)
    assert (code, err) == (cli.EXIT_CAP, "round cap 0 reached\n")


def test_play_caps(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "play", "--round-cap", 1)
    assert code == cli.EXIT_CAP and "round cap" in err
    # a game stopped by a CapError still writes the rounds it played
    trace = tmp_path / "capped.ndjson"
    code, _, err = run(capsys, "play", "--max-new-nodes", 1, "--trace", trace)
    assert code == cli.EXIT_CAP and err == "blowup at v1 needs 4 fresh nodes, cap is 1\n"
    assert len(trace.read_text().splitlines()) == 8  # the header and 7 rounds
    code, out, err = run(capsys, "replay", trace)
    assert (code, out, err) == (cli.EXIT_OK, "replayed 7 rounds; won=false\n", "")
    # a candidate cap that cuts a blowup before its first valid bundle
    monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", 0)
    code, _, err = run(capsys, "play", "--seed", 3)
    assert code == cli.EXIT_CAP and "no valid bundle" not in err
    assert "round 1, blowup at v3: stopped after 0 candidates" in err


@pytest.mark.parametrize(
    "argv",
    [["gen", "board", "--out"], ["gen", "scenario", "--out"], ["play", "--seed", 3, "--trace"]],
)
def test_an_output_path_that_cannot_be_written_is_a_usage_error(
    capsys, monkeypatch, tmp_path, argv
):
    # each ended in a FileNotFoundError traceback (exit 1), play's only after
    # the whole game; play now opens its trace before the first round
    played = []
    monkeypatch.setattr(cli, "play_game", lambda *args, **kw: played.append(args))
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, path)
    no_file = f"[Errno 2] No such file or directory: '{path}'"
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: cannot write {path}: {no_file}\n")
    assert played == [] and not path.parent.exists()


def test_a_runaway_game_exits_at_the_round_cap(capsys, tmp_path):
    # ord(v1) = 2/3 once passed the validator and Dido never won; an order
    # below 1 is now scenario issue 4, so the start exits 1 with it
    data = scenario_to_json(harness.gen_scenario(5))
    data["ord"]["v1"] = "2/3"
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "play", "--scenario", path, "--round-cap", 600)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert "[scenario / issue 4] ord(v1) = 2/3 < 1 (witness: v1)" in err
    assert "Traceback" not in err
    # the round cap still ends a game that is not yet won: seed 6 takes 21 rounds
    code, out, err = run(capsys, "play", "--seed", 6, "--round-cap", 5)
    assert (code, out) == (cli.EXIT_CAP, "not won in 5 rounds (1 blowups); strict=true\n")
    assert err == "round cap 5 reached\n"


def test_explore_is_no_policy_to_play_against(capsys, tmp_path):
    # explore walks every bundle and chooses none, so play refuses it, from
    # the command line or the config, as it refuses any unknown policy.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mephisto": "explore"}))
    for argv in (("--mephisto", "explore"), ("--config", config)):
        code, out, err = run(capsys, "play", "--seed", 1, *argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: unknown policy 'explore'\n"


def test_play_usage_errors(capsys, tmp_path):
    assert run(capsys, "play", "--mephisto", "clairvoyant")[0] == cli.EXIT_USAGE
    assert run(capsys, "play", "--seed", "three")[0] == cli.EXIT_USAGE
    assert run(capsys, "play", "--scenario", tmp_path / "missing.json")[0] == cli.EXIT_USAGE
    assert run(capsys, "shuffle")[0] == cli.EXIT_USAGE
    assert run(capsys)[0] == cli.EXIT_USAGE


# ---- replay ---------------------------------------------------------------------


def test_play_trace_then_replay(capsys, tmp_path):
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 3, "--trace", trace)[0] == cli.EXIT_OK
    code, out, _ = run(capsys, "replay", trace)
    assert code == cli.EXIT_OK
    assert out == "replayed 1 rounds; won=true\n"

    header, round_line = trace.read_text().splitlines()
    record = json.loads(round_line)
    record["bundle"]["responses"]["0"]["d"] -= 1  # items 1 and 14 must now fail
    tampered = tmp_path / "tampered.ndjson"
    tampered.write_text(header + "\n" + json.dumps(record) + "\n")
    assert run(capsys, "replay", tampered)[0] == cli.EXIT_VIOLATIONS


def test_replay_reports_factor_weights_off_the_board(capsys, tmp_path):
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 3, "--trace", trace)[0] == cli.EXIT_OK
    header, round_line = trace.read_text().splitlines()
    bad_header, bad_round = json.loads(header), json.loads(round_line)
    bad_header["header"]["scenario"]["M"] = [{"ghost": "0"}]
    bad_round["bundle"]["responses"]["0"]["M"][0]["ghost"] = "1"
    for name, lines in (
        ("header.ndjson", (json.dumps(bad_header), round_line)),
        ("response.ndjson", (header, json.dumps(bad_round))),
    ):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "replay", path)
        assert code == cli.EXIT_VIOLATIONS
        assert "M has weights at unknown nodes (witness: ghost)" in err


def _child_T_off_the_board(record):
    assert record["move"]["relation"]["kind"] == "relaxation"
    record["bundle"]["child"]["T"].append("zz")


def _response_S_off_the_board(record):
    assert record["move"]["type"] == "blowup"
    response = record["bundle"]["responses"]["0"]
    response["S"].append("zz")
    response["ord"]["zz"] = "1"


@pytest.mark.parametrize(
    "lineno, mutate, part", [(4, _child_T_off_the_board, "T"), (9, _response_S_off_the_board, "S")]
)
def test_replay_rejects_nodes_off_the_board_without_a_traceback(
    capsys, tmp_path, lineno, mutate, part
):
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 0, "--trace", trace)[0] == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    mutate(record)
    lines[lineno - 1] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "replay", trace)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert err == f"[scenario / issue structure] {part} contains unknown nodes (witness: zz)\n"
    assert "Traceback" not in err


def test_replay_rejects_an_order_in_another_spelling(capsys, tmp_path):
    # "4/3" written as "8/6" is the same value, but no writer spells it so:
    # the trace is tampered with, not a won game.
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 6, "--trace", trace)[0] == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    record = json.loads(lines[1])
    ords = record["bundle"]["responses"]["0"]["ord"]
    s = min(s for s, v in ords.items() if "/" in v)
    num, den = ords[s].split("/")
    ords[s] = f"{2 * int(num)}/{2 * int(den)}"
    lines[1] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "replay", trace)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert "line 2: malformed trace record" in err and "is not written as" in err
    assert "Traceback" not in err


def test_an_order_with_a_zero_denominator_is_rejected_without_a_traceback(
    capsys, tmp_path, chain_scenario
):
    data = scenario_to_json(chain_scenario)
    data["ord"]["p"] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"error: bad scenario in {path}: ") and "zero denominator" in err
    assert "Traceback" not in err

    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 0, "--trace", trace)[0] == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    record = json.loads(lines[1])  # line 2: the first call; ord(v1) = 2 at quest 0
    record["bundle"]["responses"]["0"]["ord"]["v1"] = "1/0"
    lines[1] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "replay", trace)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert err == (
        "line 2: malformed trace record (ValueError: value '1/0' has a zero denominator)\n"
    )


def test_replay_names_the_malformed_line(capsys, tmp_path):
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 3, "--trace", trace)[0] == cli.EXIT_OK
    header, round_line = (json.loads(line) for line in trace.read_text().splitlines())
    no_move = {k: v for k, v in round_line.items() if k != "move"}
    no_bundle = {k: v for k, v in round_line.items() if k != "bundle"}
    listed = json.loads(json.dumps(round_line))
    listed["bundle"]["responses"] = [listed["bundle"]["responses"]["0"]]
    bogus = json.loads(json.dumps(round_line))
    bogus["move"]["type"] = "bogus"  # was "blowup"
    for lineno, lines in (
        (1, ({"scenario": header["header"]["scenario"]}, round_line)),
        (2, (header, no_move)),
        (2, (header, no_bundle)),
        (2, (header, listed)),
        (2, (header, bogus)),
    ):
        path = tmp_path / "malformed.ndjson"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code, _, err = run(capsys, "replay", path)
        assert code == cli.EXIT_VIOLATIONS
        assert err.startswith(f"line {lineno}: malformed trace record")


@pytest.mark.parametrize(
    "kind, key, value",
    [("quotient", "scale", None), ("quotient", "factor", None), ("relaxation", "factor", {})],
)
def test_replay_rejects_a_call_with_parameters_of_another_kind_without_a_traceback(
    capsys, tmp_path, kind, key, value
):
    # a quotient without "scale" or "factor" exited 1 with a traceback, and a
    # relaxation with a "factor" replayed as a won game (exit 0)
    trace = tmp_path / "game.ndjson"
    assert run(capsys, "play", "--seed", 6, "--trace", trace)[0] == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    lineno = next(
        n for n, line in enumerate(lines[1:], 2)
        if json.loads(line)["move"].get("relation", {}).get("kind") == kind
    )
    record = json.loads(lines[lineno - 1])
    rel = record["move"]["relation"]
    if value is None:
        del rel[key]
    else:
        rel[key] = value
    lines[lineno - 1] = json.dumps(record, sort_keys=True)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "replay", trace)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert err.startswith(
        f"line {lineno}: malformed trace record (ValueError: malformed relation JSON: a {kind} call"
    )
    assert "Traceback" not in err


def test_replay_usage_error(capsys, tmp_path):
    assert run(capsys, "replay", tmp_path / "missing.ndjson")[0] == cli.EXIT_USAGE


def test_play_and_explore_report_an_invalid_scenario(capsys, tmp_path, chain_scenario):
    data = scenario_to_json(chain_scenario)
    data["ord"]["p"] = "1/2"  # off the 1/B grid, B = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in ("play", "explore"):
        code, out, err = run(capsys, command, "--scenario", path)
        assert code == cli.EXIT_VIOLATIONS and out == ""
        assert "multiple of 1/1" in err


# ---- explore ------------------------------------------------------------------


def test_explore(capsys):
    code, out, _ = run(capsys, "explore", "--seed", 3)
    assert code == cli.EXIT_OK
    assert out.startswith("all_won=true ")
    code, _, _ = run(capsys, "explore", "--seed", 0, "--depth-cap", 1)
    assert code == cli.EXIT_CAP


def test_explore_reports_the_states_dido_decided_at(capsys):
    # seed 16 meets 78 states it has already expanded: 236 nodes, 158 decisions
    code, out, _ = run(capsys, "explore", "--seed", 16)
    assert code == cli.EXIT_OK
    assert out == "all_won=true branches=235 leaves=57 wins=57 max_depth=24 states=158\n"


def test_explore_reports_a_capped_search(capsys, monkeypatch):
    code, full, _ = run(capsys, "explore", "--seed", 4)
    assert code == cli.EXIT_OK and "truncated" not in full
    monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", 5)
    code, out, _ = run(capsys, "explore", "--seed", 4)
    assert code == cli.EXIT_CAP
    summary, *reasons = out.splitlines()
    assert summary.startswith("all_won=true ")
    assert reasons and all(r.startswith("truncated: round ") for r in reasons)
    assert any("stopped after 5 candidates" in r for r in reasons)


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_explore_reports_a_cap_that_cuts_a_blowup_before_its_first_bundle(
    capsys, monkeypatch, seed, cap
):
    monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", cap)
    code, out, err = run(capsys, "explore", "--seed", seed)
    assert code == cli.EXIT_CAP, err
    summary, *reasons = out.splitlines()
    # at these caps the cut comes before the tree's first leaf
    assert summary.startswith("all_won=false ") and " leaves=0 " in summary
    # the blowup the cap stops before any valid bundle of it was found
    first_cut = {0: "round 8, blowup at v1", 9: "round 1, blowup at v4"}[seed]
    assert f"truncated: {first_cut}: stopped after {cap} candidates" in reasons
    assert "no valid bundle" not in err


def test_explore_without_leaves_is_not_a_win(capsys, monkeypatch):
    monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", 1)
    report = harness.explore(harness.gen_scenario(0))
    assert (report.branch_count, report.leaf_count) == (7, 0)
    assert report.truncated and not report.all_won
    code, out, _ = run(capsys, "explore", "--seed", 0)
    assert code == cli.EXIT_CAP
    assert out.splitlines()[0].startswith("all_won=false branches=7 leaves=0 wins=0 ")


def test_explore_without_a_bundle_in_a_complete_search_is_a_violation(capsys, monkeypatch):
    monkeypatch.setattr(harness, "enumerate_blowup_bundles", lambda *args, **kwargs: iter(()))
    code, _, err = run(capsys, "explore", "--seed", 0)
    assert code == cli.EXIT_VIOLATIONS
    assert "no valid bundle for blowup at depth" in err


def test_explore_reports_repaired_keep_sets(capsys, monkeypatch):
    monkeypatch.setattr(mephisto, "_KEEP_ENUM_LIMIT", 0)
    code, out, _ = run(capsys, "explore", "--seed", 4)
    assert code == cli.EXIT_CAP
    assert "keep sets were repaired, not enumerated" in out


# ---- export --------------------------------------------------------------------


def test_export_dot(capsys, tmp_path):
    board, scen = tmp_path / "board.json", tmp_path / "scenario.json"
    run(capsys, "gen", "board", "--out", board)
    run(capsys, "gen", "scenario", "--board", board, "--out", scen)
    for flag, path in (("--board", board), ("--scenario", scen)):
        code, out, _ = run(capsys, "export", "dot", flag, path)
        assert code == cli.EXIT_OK
        assert out.startswith("digraph")
    # a scenario whose ord domain differs from S reports it, as validate does
    data = json.loads(scen.read_text())
    missing = min(data["ord"])
    del data["ord"][missing]  # the exporter read it: a KeyError traceback
    scen.write_text(json.dumps(data))
    code, out, err = run(capsys, "export", "dot", "--scenario", scen)
    assert (code, out) == (cli.EXIT_VIOLATIONS, "")
    assert err == (
        f"[scenario / issue structure] ord domain differs from S (witness: {missing})\n"
    )
    assert run(capsys, "validate", scen)[::2] == (cli.EXIT_VIOLATIONS, err)
    assert run(capsys, "export", "dot")[0] == cli.EXIT_USAGE
    assert run(capsys, "export", "svg", "--board", board)[0] == cli.EXIT_USAGE
    # ids holding a quote or a backslash are escaped in every quoted string
    odd = {
        "board": {
            "nodes": [{"id": "w\\", "dim": 1}, {"id": 'a"b', "dim": 0}],
            "covers": [['a"b', "w\\"]],
        },
        "d": 1, "B": 1, "H": [], "S": ['a"b'], "T": ['a"b'], "ord": {'a"b': "1"}, "M": [{}],
    }
    board.write_text(json.dumps(odd["board"]))
    scen.write_text(json.dumps(odd))
    for flag, path in (("--board", board), ("--scenario", scen)):
        code, out, _ = run(capsys, "export", "dot", flag, path)
        assert code == cli.EXIT_OK
        assert '  "a\\"b" -> "w\\\\";' in out.splitlines()
        assert 'label="a\\"b\\ndim 0' in out and 'label="w\\\\\\ndim 1' in out
        for line in out.splitlines():
            # what is left outside the well-formed quoted strings holds no quote
            # and no backslash
            rest = re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
            assert '"' not in rest and "\\" not in rest, line
