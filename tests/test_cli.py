"""The command line, driven through ``cli.main``: every subcommand and exit code.

Exit codes: 0 success, 1 violations, 2 a cap was hit, 3 usage errors.
"""

import json

import pytest

from salmagundy import cli, harness, mephisto, scenario_to_json


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


def test_validate_usage_errors(capsys, tmp_path):
    assert run(capsys, "validate", tmp_path / "missing.json")[0] == cli.EXIT_USAGE
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "validate", garbled)[0] == cli.EXIT_USAGE


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
    assert run(capsys, "export", "dot")[0] == cli.EXIT_USAGE
    assert run(capsys, "export", "svg", "--board", board)[0] == cli.EXIT_USAGE
