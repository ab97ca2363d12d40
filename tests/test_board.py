"""Boards: construction, order queries, invariants, transforms, JSON, DOT."""

import copy
import dataclasses
import pickle
import random

import pytest

from salmagundy.board import (
    BLOWUP,
    REFINEMENT,
    Board,
    BoardTransform,
    FrozenDict,
    Violation,
    board_from_json,
    board_to_dot,
    board_to_json,
    trivial_refinement,
    validate_board,
    validate_board_transform,
)
from salmagundy.harness import gen_board
from salmagundy.mephisto import blowup_transform, blowup_uppers


# ---- construction -----------------------------------------------------------


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Board({"": 0}, [])
    with pytest.raises(ValueError):
        Board({"a": "one"}, [])
    with pytest.raises(ValueError):
        Board({"a": True}, [])
    with pytest.raises(ValueError):
        Board({"a": 0}, [("a", "b")])
    with pytest.raises(ValueError):
        Board({"a": 0}, [("a", "a")])


def test_board_is_immutable(chain_board):
    with pytest.raises(AttributeError):
        chain_board.extra = 1


def test_duplicate_covers_collapse():
    b = Board({"a": 0, "w": 1}, [("a", "w"), ("a", "w")])
    assert b.covers == frozenset({("a", "w")})


def test_fresh_start_skips_used_indices():
    b = Board({"e3": 1, "q7": 0, "w": 2}, [("q7", "e3"), ("e3", "w")])
    assert b.fresh_start == 8
    assert Board({"a": 0}, []).fresh_start == 0


def test_equal_boards_hash_alike():
    b1 = Board({"a": 0, "w": 1}, [("a", "w")])
    b2 = Board({"w": 1, "a": 0}, [("a", "w")])
    assert b1 == b2
    assert hash(b1) == hash(b2)
    assert b1 != Board({"a": 0, "w": 2}, [("a", "w")])


# ---- order queries against a brute-force closure ----------------------------


def _closure(ids, covers):
    """Reflexive-transitive closure of the cover relation, the slow way."""
    reach = {s: {s} for s in ids}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    return reach


def test_order_queries_match_closure_oracle():
    for seed in range(40):
        b = gen_board(seed)
        reach = _closure(b.ids, b.covers)
        for s in b.ids:
            assert b.up_set(s) == frozenset(reach[s])
            assert b.down_set(s) == frozenset(x for x in b.ids if s in reach[x])
            for t in b.ids:
                assert b.leq(s, t) == (t in reach[s])
                assert b.lt(s, t) == (t in reach[s] and s != t)
        maximal = tuple(s for s in b.ids if reach[s] == {s} | set())
        maximal = tuple(s for s in b.ids if all(t == s or t not in reach[s] for t in b.ids))
        assert b.maximal_nodes == maximal
        for s in b.ids:
            for t in b.ids:
                common = b.down_set(s) & b.down_set(t)
                assert b.remote(s, t) == (not common)


def test_top_and_n(chain_board):
    assert chain_board.top == "w"
    assert chain_board.n == 2
    assert chain_board.dim("p") == 0
    assert "p" in chain_board and "nope" not in chain_board


# ---- board invariants -------------------------------------------------------


def test_generated_boards_are_valid():
    for seed in range(60):
        assert validate_board(gen_board(seed)) == []


def test_validate_flags_negative_dim():
    b = Board({"a": -1, "w": 1}, [("a", "w")])
    assert {v.issue for v in validate_board(b)} == {"dim-negative"}


def test_validate_flags_cycle():
    b = Board({"a": 0, "b": 1}, [("a", "b"), ("b", "a")])
    issues = [v.issue for v in validate_board(b)]
    assert issues == ["acyclic"]


def test_validate_flags_non_monotone_cover():
    b = Board({"a": 1, "w": 1}, [("a", "w")])
    assert {v.issue for v in validate_board(b)} == {"monotone-dim"}


def test_validate_flags_two_maximal_nodes():
    b = Board({"a": 0, "u": 1, "v": 1}, [("a", "u"), ("a", "v")])
    assert {v.issue for v in validate_board(b)} == {"unique-top"}


# ---- transforms -------------------------------------------------------------


def test_trivial_refinement_is_identity(chain_board):
    t = trivial_refinement(chain_board)
    assert t.is_identity()
    assert validate_board_transform(t) == []
    assert t.fiber("a") == frozenset({"a"})


def test_blowup_of_chain_matches_fixture(chain_board, blown_chain_board):
    t = blowup_transform(chain_board, "p")
    assert t.kind == BLOWUP
    assert t.target == blown_chain_board
    assert t.exceptional == "e0"
    assert t.embed["p"] == "e0"
    assert t.retract["q1"] == "p" and t.retract["e0"] == "p"
    assert t.fiber("p") == frozenset({"e0", "q1"})
    assert validate_board_transform(t) == []


def test_blowup_rejects_top_and_unknown_center(chain_board):
    with pytest.raises(ValueError):
        blowup_transform(chain_board, "w")
    with pytest.raises(ValueError):
        blowup_transform(chain_board, "zz")


def test_blowup_keep_subset(crossing_board):
    full = blowup_uppers(crossing_board, "s")
    assert full == ["h1", "h2"]
    t = blowup_transform(crossing_board, "s", keep_uppers=["h1"])
    assert validate_board_transform(t) == []
    # only h1 earned a fresh node: e plus one q, nothing for h2
    assert len(t.target.ids) == len(crossing_board.ids) + 1
    with pytest.raises(ValueError):
        blowup_transform(crossing_board, "s", keep_uppers=["w"])


def test_canonical_blowup_keeps_every_upper(crossing_board):
    t = blowup_transform(crossing_board, "s")
    assert t.target.n == crossing_board.n
    assert len(t.target.ids) == len(crossing_board.ids) + 2
    assert validate_board_transform(t) == []


def test_generated_blowups_are_valid():
    for seed in range(30):
        b = gen_board(seed)
        rng = random.Random(seed)
        centers = [s for s in b.ids if s != b.top]
        if not centers:
            continue
        z = rng.choice(sorted(centers))
        t = blowup_transform(b, z)
        assert validate_board(t.target) == []
        assert validate_board_transform(t) == []


# ---- transform issue coverage: one targeted mutant per numbered issue -------


def _chain_blowup(chain_board):
    return blowup_transform(chain_board, "p")


def _issues(t):
    return {v.issue for v in validate_board_transform(t)}


def _swap(t, **kw):
    fields = dict(
        kind=t.kind, source=t.source, target=t.target,
        embed=dict(t.embed), retract=dict(t.retract), center=t.center,
    )
    fields.update(kw)
    return BoardTransform(**fields)


def test_transform_structure_violations(chain_board):
    t = _chain_blowup(chain_board)
    assert _issues(_swap(t, kind="fold")) == {"structure"}
    embed = dict(t.embed)
    del embed["a"]
    assert _issues(_swap(t, embed=embed)) == {"structure"}
    retract = dict(t.retract)
    retract["q1"] = "ghost"
    assert _issues(_swap(t, retract=retract)) == {"structure"}
    assert _issues(_swap(t, center=None)) == {"structure"}
    r = trivial_refinement(chain_board)
    assert _issues(_swap(r, center="p")) == {"structure"}


def test_transform_issue_1_embed_outside_fiber(chain_board):
    t = _chain_blowup(chain_board)
    embed = dict(t.embed, p="q1")  # u(q1) is p, but q1 does not dominate e0
    got = _issues(_swap(t, embed=embed))
    assert 1 in got


def test_transform_check_is_memoized_per_instance(chain_board):
    t = _chain_blowup(chain_board)
    clean = validate_board_transform(t)
    assert clean == []
    clean.append(Violation("board-transform", 1, (), "added by the caller"))
    assert validate_board_transform(t) == []
    # replace() builds a new instance, so the broken embedding is checked
    # afresh rather than answered from the clean original's memo
    broken = dataclasses.replace(t, embed=dict(t.embed, p="q1"))
    found = validate_board_transform(broken)
    assert 1 in {v.issue for v in found}
    want = list(found)
    found.clear()
    assert validate_board_transform(broken) == want
    assert validate_board_transform(t) == []


def test_transform_maps_are_read_only_and_hashable():
    board = gen_board(1)
    z = next(s for s in board.ids if s != board.top)
    t = blowup_transform(board, z)
    with pytest.raises(TypeError):
        t.embed[z] = "zzz"
    with pytest.raises(TypeError):
        t.retract.update({z: z})
    with pytest.raises(TypeError):
        del t.embed[z]
    twin = blowup_transform(board, z)
    assert twin == t and twin is not t and hash(twin) == hash(t)
    assert len({t, twin, trivial_refinement(board)}) == 2
    # a transform built from plain dicts freezes them too
    plain = _swap(t)
    assert plain == t and hash(plain) == hash(t)
    with pytest.raises(TypeError):
        plain.embed[z] = "zzz"
    # copies share the frozen maps rather than rebuilding them
    assert copy.deepcopy(t.embed) is t.embed and copy.copy(t.retract) is t.retract
    assert copy.deepcopy({"plan": [t.embed]})["plan"][0] is t.embed


def test_boards_copy_as_themselves_and_pickle_by_value():
    board = gen_board(1)
    assert copy.copy(board) is board and copy.deepcopy(board) is board
    loaded = pickle.loads(pickle.dumps(board))
    assert loaded == board and hash(loaded) == hash(board)
    assert loaded.covers == board.covers and validate_board(loaded) == []
    z = next(s for s in board.ids if s != board.top)
    t = blowup_transform(board, z)
    assert validate_board_transform(t) == []  # leaves a verdict on t
    loaded = pickle.loads(pickle.dumps(t))
    assert loaded == t and "_memo" not in vars(loaded)
    assert isinstance(loaded.embed, FrozenDict) and validate_board_transform(loaded) == []
    assert "_memo" not in vars(copy.deepcopy(t))


def test_transform_issue_1_retract_disagrees(chain_board):
    t = _chain_blowup(chain_board)
    retract = dict(t.retract, e0="a")
    got = _issues(_swap(t, retract=retract))
    assert 1 in got


def test_transform_issue_2_order_not_reflected():
    # target adds a strict relation between images that the source lacks
    src = Board({"a": 0, "b": 0, "w": 1}, [("a", "w"), ("b", "w")])
    tgt = Board({"a": 0, "b": 1, "w": 2}, [("a", "b"), ("b", "w")])
    ident = {s: s for s in src.ids}
    t = BoardTransform(REFINEMENT, src, tgt, ident, dict(ident))
    got = _issues(t)
    assert 2 in got


def test_transform_issue_2_order_not_preserved():
    src = Board({"a": 0, "w": 1}, [("a", "w")])
    tgt = Board({"a": 0, "w": 1}, [])
    ident = {s: s for s in src.ids}
    t = BoardTransform(REFINEMENT, src, tgt, ident, dict(ident))
    got = _issues(t)
    assert 2 in got


def test_transform_issue_2_mixed_pairs_exempt_for_blowups(chain_board):
    # p < a in the source chain, but i(p) = e0 is not below a after the
    # blowup; the mixed-pair exemption keeps that legal.
    t = _chain_blowup(chain_board)
    assert not t.target.leq("e0", "a")
    assert validate_board_transform(t) == []


def test_transform_issue_3_retract_not_monotone(chain_board):
    t = _chain_blowup(chain_board)
    retract = dict(t.retract, w="p")  # q1 < w in target, u(q1)=p !<= u(w)=p ok;
    retract = dict(t.retract, a="w", w="a")  # a < w in target but w !<= a
    got = _issues(_swap(t, retract=retract))
    assert 3 in got


def test_transform_issue_4_refinement_dim_drift():
    src = Board({"a": 0, "w": 1}, [("a", "w")])
    tgt = Board({"a": 1, "w": 2}, [("a", "w")])
    ident = {s: s for s in src.ids}
    t = BoardTransform(REFINEMENT, src, tgt, ident, dict(ident))
    assert _issues(t) == {4}


def test_transform_issue_5_center_is_top():
    src = Board({"a": 0, "w": 1}, [("a", "w")])
    ident = {s: s for s in src.ids}
    t = BoardTransform(BLOWUP, src, src, ident, dict(ident), center="w")
    assert 5 in _issues(t)


def test_transform_issue_6_dim_off_center(chain_board):
    t = _chain_blowup(chain_board)
    dims = {s: t.target.dim(s) for s in t.target.ids}
    dims["a"] = 0  # off-fiber node must keep its source dimension (1)
    bad = Board({**dims}, [(a, b) for a, b in t.target.covers if (a, b) != ("q1", "a")])
    t2 = _swap(t, target=bad)
    assert 6 in _issues(t2)


def test_transform_issue_7_dim_on_center(chain_board):
    # shift = n - 1 - dim(p) = 1, so i(p) = e0 must sit at dimension 1
    t = _chain_blowup(chain_board)
    dims = {s: t.target.dim(s) for s in t.target.ids}
    dims["e0"] = 0
    covers = [(a, b) for a, b in t.target.covers if b != "e0"]
    bad = Board(dims, covers)
    t2 = _swap(t, target=bad)
    assert 7 in _issues(t2)


# ---- serialization ----------------------------------------------------------


def test_board_json_roundtrip():
    for seed in range(25):
        b = gen_board(seed)
        assert board_from_json(board_to_json(b)) == b


def test_board_json_rejects_malformed():
    with pytest.raises(ValueError):
        board_from_json({"covers": []})
    with pytest.raises(ValueError):
        board_from_json({"nodes": [{"id": "a"}], "covers": []})
    with pytest.raises(ValueError):
        board_from_json(
            {"nodes": [{"id": "a", "dim": 0}, {"id": "a", "dim": 1}], "covers": []}
        )


def test_board_to_dot_mentions_every_node(crossing_board):
    dot = board_to_dot(crossing_board, highlight=["s"])
    assert dot.startswith("digraph")
    for s in crossing_board.ids:
        assert s in dot
    assert dot.count("->") == len(crossing_board.covers)
