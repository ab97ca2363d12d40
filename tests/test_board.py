"""Boards: construction, order queries, invariants, transforms, JSON, DOT."""

import copy
import dataclasses
import gc
import pickle
import random
import weakref

import pytest

from salmagundy import board as board_module
from salmagundy.board import (
    BLOWUP,
    REFINEMENT,
    Board,
    BoardTransform,
    Violation,
    _memo,
    board_from_json,
    board_to_dot,
    blowup_transform,
    blowup_uppers,
    board_to_json,
    trivial_refinement,
    validate_board,
    validate_board_transform,
)
from salmagundy.harness import gen_board, gen_scenario, play_game
from salmagundy.mephisto import Policy
from salmagundy.values import INF, Q


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
    # A blowup numbers its fresh nodes past every e<k>/q<k> id on the board.
    b = Board({"e3": 1, "q7": 0, "w": 2}, [("q7", "e3"), ("e3", "w")])
    t = blowup_transform(b, "q7")
    assert t.exceptional == "e8"
    assert set(t.target.ids) - set(b.ids) == {"e8", "q9"}
    assert blowup_transform(Board({"a": 0, "w": 1}, [("a", "w")]), "a").exceptional == "e0"


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
        maximal = tuple(s for s in b.ids if reach[s] == {s} | set())
        maximal = tuple(s for s in b.ids if all(t == s or t not in reach[s] for t in b.ids))
        assert b.maximal_nodes == maximal
        for k in range(len(b.ids) + 1):
            nodes = b.ids[k // 2 : k]
            assert b.maximal_among(iter(nodes)) == sorted(
                s for s in nodes if all(t == s or t not in reach[s] for t in nodes)
            )
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
    # every node on the cycle is a witness, once; nodes off it are not
    b = Board(
        {"a": 0, "b": 1, "c": 2, "x": 0, "w": 3},
        [("a", "b"), ("b", "c"), ("c", "a"), ("x", "w"), ("c", "w")],
    )
    (v,) = validate_board(b)
    assert (v.issue, v.witness) == ("acyclic", ("a", "b", "c"))


def test_board_check_is_memoized_per_instance(monkeypatch):
    seen = []
    check = board_module._check_board
    monkeypatch.setattr(board_module, "_check_board", lambda b: seen.append(b) or check(b))
    dims, covers = {"a": -1, "w": 1}, [("a", "w")]
    b = Board(dims, covers)
    first = validate_board(b)
    want = list(first)
    assert {v.issue for v in want} == {"dim-negative"}
    first.clear()  # the caller owns the list it got
    assert validate_board(b) == want and len(seen) == 1
    # an equal but distinct board is checked afresh
    twin = Board(dims, covers)
    assert twin == b and validate_board(twin) == want
    assert len(seen) == 2 and seen[1] is twin


class _Owner:
    """Stands in for a value a check describes."""


@dataclasses.dataclass(frozen=True)
class _Input:
    """Stands in for another input of a check; equal when its value is."""

    value: int


def _counting_check(calls):
    """A check that reads its first argument and describes its last."""

    def check(x, *rest):
        calls.append(x)
        return x.value

    return check


def test_memo_keeps_one_slot_per_identity_of_the_other_inputs():
    owner, calls = _Owner(), []
    check = _counting_check(calls)
    a, b = _Input(1), _Input(2)
    for _ in range(3):  # alternating inputs do not evict each other
        assert _memo(check, a, owner) == 1
        assert _memo(check, b, owner) == 2
    assert calls == [a, b]
    # an equal but distinct input is checked afresh, and keeps a's slot
    twin = _Input(1)
    assert twin == a and twin is not a
    assert _memo(check, twin, owner) == 1
    assert _memo(check, a, owner) == 1
    assert len(calls) == 3 and calls[2] is twin


def test_memo_keeps_one_argument_and_two_argument_checks_apart():
    # A one-argument check is keyed by the check alone, a two-argument one by
    # the check and the other input's id: on one owner they are two slots.
    owner, calls = _Owner(), []

    def check(*args):
        calls.append(args)
        return len(args) if len(args) > 1 else None  # None is a stored result too

    a = _Input(1)
    for _ in range(3):
        assert _memo(check, owner) is None
        assert _memo(check, a, owner) == 2
    assert calls == [(owner,), (a, owner)]
    # an equal but distinct input is checked afresh, the other input and the owner alike
    twin = _Input(1)
    assert _memo(check, twin, owner) == 2 and calls[-1] == (twin, owner)
    first, second = _Input(7), _Input(7)
    assert _memo(check, first) is None and _memo(check, second) is None
    assert calls[-2:] == [(first,), (second,)] and calls[-1][0] is second
    assert _memo(check, first) is None and len(calls) == 5


def test_memo_slot_holds_its_other_inputs_while_its_owner_lives():
    owner, calls = _Owner(), []
    check = _counting_check(calls)
    a, b = _Input(1), _Input(2)
    refs = [weakref.ref(a), weakref.ref(b)]
    assert _memo(check, a, b, owner) == 1
    assert _memo(check, b, owner) == 2
    del a, b
    calls.clear()
    gc.collect()
    a, b = (ref() for ref in refs)
    assert a is not None and b is not None  # the owner's slots hold them
    assert _memo(check, a, b, owner) == 1 and _memo(check, b, owner) == 2
    assert calls == []  # and still answer for them
    del a, b, owner
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_validate_flags_non_monotone_cover():
    b = Board({"a": 1, "w": 1}, [("a", "w")])
    assert {v.issue for v in validate_board(b)} == {"monotone-dim"}


def test_validate_flags_two_maximal_nodes():
    b = Board({"a": 0, "u": 1, "v": 1}, [("a", "u"), ("a", "v")])
    assert {v.issue for v in validate_board(b)} == {"unique-top"}


# ---- transforms -------------------------------------------------------------


def test_trivial_refinement_is_identity(chain_board):
    t = trivial_refinement(chain_board)
    assert (t.kind, t.source, t.target, t.center) == (REFINEMENT, chain_board, chain_board, None)
    assert dict(t.embed) == dict(t.retract) == {s: s for s in chain_board.ids}
    # the board check knows blowups only; a call round compares its
    # transform with this one by value instead
    assert [v.issue for v in validate_board_transform(t)] == ["structure"]
    # one instance per board, so call rounds on it share its checks and text
    assert trivial_refinement(chain_board) is t
    twin = Board({"p": 0, "a": 1, "w": 2}, [("p", "a"), ("a", "w")])
    assert trivial_refinement(twin) == t and trivial_refinement(twin) is not t


def test_blowup_of_chain_matches_fixture(chain_board, blown_chain_board):
    t = blowup_transform(chain_board, "p")
    assert t.kind == BLOWUP
    assert t.target == blown_chain_board
    assert t.exceptional == "e0"
    assert t.embed["p"] == "e0"
    assert t.retract["q1"] == "p" and t.retract["e0"] == "p"
    assert {x for x in t.target.ids if t.retract[x] == "p"} == {"e0", "q1"}
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
    assert _issues(r) == {"structure"}
    assert _issues(_swap(r, center="p")) == {"structure"}
    assert _issues(_swap(t, center="ghost")) == {"structure"}
    # every key of a map is a node of its board, or a trace could carry
    # entries that no check reads
    assert _issues(_swap(t, retract=dict(t.retract, zz="p"))) == {"structure"}
    assert _issues(_swap(t, embed=dict(t.embed, zz="e0"))) == {"structure"}


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


def test_nothing_that_holds_a_board_copies_or_pickles():
    # Values are shared, never copied: a deep copy or a pickle round trip of
    # anything that holds a board fails on the board, which refuses its fields.
    start = gen_scenario(3)  # its orders hold INF
    state = play_game(start, Policy.parse("canonical")).state
    assert state.round_no > 0
    board = state.board
    z = next(s for s in board.ids if s != board.top)
    t = blowup_transform(board, z)
    assert validate_board_transform(t) == []  # leaves a verdict on t
    for value in (board, t, start, state):
        with pytest.raises(AttributeError, match="Board is immutable"):
            copy.deepcopy(value)
        with pytest.raises(AttributeError, match="Board is immutable"):
            pickle.loads(pickle.dumps(value))
    # the numbers copy and pickle by value, and INF stays the one INF
    q = Q(3, 2)
    assert INF in start.ord.values()
    for back in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert back == q and type(back) is Q and hash(back) == hash(q)
    for back in (copy.copy(INF), copy.deepcopy(INF), pickle.loads(pickle.dumps(INF))):
        assert back is INF


def test_transform_issue_1_retract_disagrees(chain_board):
    t = _chain_blowup(chain_board)
    retract = dict(t.retract, e0="a")
    got = _issues(_swap(t, retract=retract))
    assert 1 in got


def test_transform_issue_2_order_not_reflected(chain_board):
    # swapped images: i(w) = a lies below i(a) = w, but w < a fails
    t = _chain_blowup(chain_board)
    found = validate_board_transform(_swap(t, embed=dict(t.embed, a="w", w="a")))
    assert ("w", "a") in {v.witness for v in found if v.detail.endswith("fails in source")}


def test_transform_issue_2_order_not_preserved(chain_board):
    # a < w, neither below the center p, so no mixed-pair exemption; an
    # embedding that sends both to w does not keep i(a) strictly below i(w)
    t = _chain_blowup(chain_board)
    found = validate_board_transform(_swap(t, embed=dict(t.embed, a="w")))
    assert ("a", "w") in {v.witness for v in found if v.detail.endswith("fails in target")}


def test_transform_issue_2_mixed_pairs_exempt_for_blowups(chain_board):
    # p < a in the source chain, but i(p) = e0 is not below a after the
    # blowup; the mixed-pair exemption keeps that legal.
    t = _chain_blowup(chain_board)
    assert "e0" not in t.target.down_set("a")
    assert validate_board_transform(t) == []


def test_transform_issue_3_retract_not_monotone(chain_board):
    t = _chain_blowup(chain_board)
    retract = dict(t.retract, w="p")  # q1 < w in target, u(q1)=p !<= u(w)=p ok;
    retract = dict(t.retract, a="w", w="a")  # a < w in target but w !<= a
    got = _issues(_swap(t, retract=retract))
    assert 3 in got


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


# ---- the row check against the pair loops -----------------------------------


def _pairwise_check(t):
    """The pair-by-pair form of the blowup check (issues 1-3 and 5-7), kept
    as the reference that the row form of ``validate_board_transform`` must
    reproduce violation for violation, in the same order."""
    out = []
    src, tgt, rule, z = t.source, t.target, "board-transform", t.center
    for s in src.ids:
        if s not in t.embed or t.embed[s] not in tgt:
            return [Violation(rule, "structure", (s,), f"embed undefined or off-target at {s}")]
    for x in tgt.ids:
        if x not in t.retract or t.retract[x] not in src:
            return [Violation(rule, "structure", (x,), f"retract undefined or off-source at {x}")]
    if z not in src:
        return [Violation(rule, "structure", (), "blowup without a source center")]

    def lt(b, s, u):
        return s != u and s in b.down_set(u)

    for s in src.ids:
        img = t.embed[s]
        if t.retract[img] != s:
            out.append(Violation(rule, 1, (s, img), f"u(i({s})) = {t.retract[img]} != {s}"))
            continue
        for x in sorted(x for x, y in t.retract.items() if y == s):
            if x not in tgt.down_set(img):
                out.append(
                    Violation(rule, 1, (s, x), f"fiber node {x} of {s} not below i({s}) = {img}")
                )
    for s in src.ids:
        for u in src.ids:
            if s == u:
                continue
            fwd = lt(src, s, u)
            img = lt(tgt, t.embed[s], t.embed[u])
            if img and not fwd:
                out.append(
                    Violation(
                        rule, 2, (s, u), f"i({s}) < i({u}) in target but {s} < {u} fails in source"
                    )
                )
            if fwd and not img and not (s in src.down_set(z) and u not in src.down_set(z)):
                out.append(
                    Violation(
                        rule, 2, (s, u), f"{s} < {u} in source but i({s}) < i({u}) fails in target"
                    )
                )
    for x in tgt.ids:
        for y in tgt.ids:
            if lt(tgt, x, y) and t.retract[x] not in src.down_set(t.retract[y]):
                out.append(
                    Violation(
                        rule, 3, (x, y), f"{x} < {y} in target but u({x}) !<= u({y}) in source"
                    )
                )
    n = src.n
    if z == src.top:
        out.append(Violation(rule, 5, (z,), "the top node may not be a blowup center"))
    shift = n - 1 - src.dim(z)
    for s in src.ids:
        want = src.dim(s) + shift if s in src.down_set(z) else src.dim(s)
        got = tgt.dim(t.embed[s])
        if got != want:
            issue = 7 if s in src.down_set(z) else 6
            out.append(
                Violation(
                    rule, issue, (s,),
                    f"dim(i({s})) = {got}, expected {want} (center {z}, board dim {n})",
                )
            )
    return out


def _blowup_mutants(t, rng):
    """``t`` and broken copies of it: swapped embed images, an embed that is
    not injective, a moved and a swapped retract entry, and a wrong center."""
    src, tgt = t.source.ids, t.target.ids
    yield t
    for _ in range(3):
        a, b = rng.sample(src, 2)
        yield _swap(t, embed=dict(t.embed, **{a: t.embed[b], b: t.embed[a]}))
        yield _swap(t, embed=dict(t.embed, **{a: t.embed[b]}))
        x, y = rng.sample(tgt, 2)
        yield _swap(t, retract=dict(t.retract, **{x: rng.choice(src)}))
        yield _swap(t, retract=dict(t.retract, **{x: t.retract[y], y: t.retract[x]}))
        yield _swap(t, center=rng.choice(src))


def test_row_check_matches_the_pair_loops():
    rng = random.Random(16)
    kinds = {"clean": 0, "broken": 0, "exempt": 0, "non-injective": 0}
    for seed in range(60):
        b = gen_board(seed)
        for z in b.ids:
            if z == b.top:
                continue
            uppers = blowup_uppers(b, z)
            keeps = [None] + [rng.sample(uppers, k) for k in range(len(uppers))]
            for keep in keeps:
                for t in _blowup_mutants(blowup_transform(b, z, keep_uppers=keep), rng):
                    want = _pairwise_check(t)
                    assert validate_board_transform(t) == want, (seed, z, keep, t)
                    kinds["broken" if want else "clean"] += 1
                    kinds["non-injective"] += len(set(t.embed.values())) < len(t.embed)
                    # clean only by the exemption: some s <= z < u whose
                    # image i(s) is not below i(u)
                    kinds["exempt"] += not want and any(
                        t.embed[u] not in t.target.up_set(t.embed[s])
                        for s in b.down_set(t.center) for u in b.up_set(s)
                        if u not in b.down_set(t.center)
                    )
    assert min(kinds.values()) > 100, kinds


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


@pytest.mark.parametrize(
    "nodes, covers, what",
    [
        ([{"id": "a", "dim": 0}, {"id": "b", "dim": 1}], ["ab"], "covers"),
        ([{"id": "a", "dim": 0}, {"id": "b", "dim": 1}], [["a", "b", "b"]], "covers"),
        ([{"id": "a", "dim": 0}, {"id": "b", "dim": 1}], [["a", 1]], "covers"),
        ([{"id": "a", "dim": 0}, {"id": "b", "dim": 1}], {"a": "b"}, "covers"),
        ({"a": {"id": "a", "dim": 0}}, [], "nodes"),
        (["a"], [], "nodes"),
    ],
    ids=["string-cover", "three-ids", "int-id", "covers-object", "nodes-object", "string-node"],
)
def test_board_json_takes_its_own_forms_only(nodes, covers, what):
    # a cover "ab" was unpacked as the cover a < b
    with pytest.raises(ValueError, match=f"^malformed board JSON: {what} "):
        board_from_json({"nodes": nodes, "covers": covers})


def test_board_to_dot_mentions_every_node(crossing_board):
    dot = board_to_dot(crossing_board)
    assert dot.startswith("digraph")
    for s in crossing_board.ids:
        assert s in dot
    assert dot.count("->") == len(crossing_board.covers)
