"""Response policies: enumeration, selection, caps, and determinism."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salmagundy import mephisto
from salmagundy.board import Board, Violation
from salmagundy.dido import DidoStrategy
from salmagundy.game import GameState, Move, Quest, apply_round, new_game, validate_bundle
from salmagundy.harness import gen_board, gen_scenario
from salmagundy.mephisto import (
    _KEEP_ENUM_LIMIT,
    CapError,
    NoValidBundle,
    Policy,
    _assemble_blowup,
    _bundle_score,
    _down_closed_keeps,
    _root_keep_max,
    _root_response,
    _shrink_keep,
    blowup_transform,
    blowup_uppers,
    enumerate_blowup_bundles,
    respond,
)
from salmagundy.quests import quotient_response, transversality_response
from salmagundy.scenario import heavy_jib_violations, zero_factor
from salmagundy.transform import QuestRelation, blowup_jibs, validate_blowup_transform


def _root_state(scenario):
    return GameState(
        board=scenario.board,
        quests={0: Quest(0, None, None, scenario)},
        next_quest_id=1,
    )


# ---- policies ---------------------------------------------------------------


def test_policy_parse():
    assert Policy.parse("canonical").kind == "canonical"
    assert Policy.parse("adversarial").kind == "adversarial"
    assert Policy.parse("random").seed == 0
    p = Policy.parse("random:7", max_new_nodes=5, max_order_steps=3)
    assert (p.kind, p.seed, p.max_new_nodes) == ("random", 7, 5)
    assert p.bump_levels() == (0, 1, 2, 3)
    assert Policy.parse("canonical").bump_levels() == (0,)
    with pytest.raises(ValueError):
        Policy.parse("random:x")
    with pytest.raises(ValueError):
        Policy.parse("clairvoyant")
    with pytest.raises(ValueError):
        Policy.parse(mephisto.EXPLORE)


def test_explore_mode_enumerates_but_never_chooses(crossing_scenario):
    st = _root_state(crossing_scenario)
    explore = Policy(kind=mephisto.EXPLORE)
    call = Move.call(0, QuestRelation.transversality({"h1"}))
    assert list(mephisto.enumerate_call_bundles(st, call, explore))
    assert list(enumerate_blowup_bundles(st, "s", explore))
    for move in (call, Move.blowup("s")):
        with pytest.raises(ValueError, match="does not choose"):
            respond(st, move, explore)


def test_policy_rng_depends_on_seed_and_round():
    a = Policy.parse("random:3").rng(5).random()
    b = Policy.parse("random:3").rng(5).random()
    c = Policy.parse("random:4").rng(5).random()
    d = Policy.parse("random:3").rng(6).random()
    assert a == b
    assert a != c and a != d


# ---- canonical blowup responses ----------------------------------------------


def test_canonical_chain_blowup_is_frozen(chain_scenario, blown_chain_board, blown_chain_response):
    st = _root_state(chain_scenario)
    bundle = respond(st, Move.blowup("p"), Policy.parse("canonical"))
    assert bundle.transform.target == blown_chain_board
    assert bundle.responses[0] == blown_chain_response
    assert bundle.discards == frozenset()
    assert bundle.child is None
    again = respond(_root_state(chain_scenario), Move.blowup("p"), Policy.parse("canonical"))
    assert again.responses[0] == bundle.responses[0]
    assert validate_bundle(st, Move.blowup("p"), bundle) == []


def test_blowup_at_inadmissible_center_has_no_bundle(chain_scenario):
    st = _root_state(chain_scenario)
    with pytest.raises(NoValidBundle):
        respond(st, Move.blowup("a"), Policy.parse("canonical"))


def test_blowup_cap_raises(chain_scenario):
    st = _root_state(chain_scenario)
    tight_cap = Policy.parse("canonical", max_new_nodes=1)
    with pytest.raises(CapError):
        respond(st, Move.blowup("p"), tight_cap)


def test_enumerate_boards_respects_cap(crossing_scenario):
    st = _root_state(crossing_scenario)
    pol = Policy.parse("canonical", max_new_nodes=2)
    bundles = list(enumerate_blowup_bundles(st, "s", pol, enumerate_boards=True))
    assert bundles
    for b in bundles:
        fresh = set(b.transform.target.ids) - set(crossing_scenario.board.ids)
        assert len(fresh) <= 2


# ---- random and adversarial selection ----------------------------------------


def test_random_policy_is_reproducible(crossing_scenario):
    mv = Move.blowup("s")
    one = respond(_root_state(crossing_scenario), mv, Policy.parse("random:7"))
    two = respond(_root_state(crossing_scenario), mv, Policy.parse("random:7"))
    assert one.responses[0] == two.responses[0]
    assert one.transform.target == two.transform.target


def test_adversarial_maximizes_bundle_score(crossing_scenario):
    mv = Move.blowup("s")
    pol = Policy.parse("adversarial")
    got = respond(_root_state(crossing_scenario), mv, pol)
    pool = list(
        itertools.islice(
            enumerate_blowup_bundles(_root_state(crossing_scenario), "s", pol), 64
        )
    )
    want = max(pool, key=_bundle_score)
    assert _bundle_score(got) == _bundle_score(want)
    assert got.responses[0] == want.responses[0]


def test_bundle_score_counts_singular_mass(chain_scenario):
    st = _root_state(chain_scenario)
    bundle = respond(st, Move.blowup("p"), Policy.parse("canonical"))
    total_s, mass = _bundle_score(bundle)
    assert total_s == sum(len(r.S) for r in bundle.responses.values())
    assert mass == Fraction(1)


# ---- keep enumeration helpers -------------------------------------------------


def test_down_closed_keeps(blown_chain_board):
    keeps = _down_closed_keeps(blown_chain_board, frozenset({"q1", "a"}))
    assert keeps == [
        frozenset({"a", "q1"}),
        frozenset({"q1"}),
        frozenset(),
    ]


def _mask_scan_keeps(board1, keep_max):
    """Reference: scan all 2^k subsets and keep the down-closed ones."""
    elems = sorted(keep_max)
    if len(elems) > _KEEP_ENUM_LIMIT:
        return [keep_max]
    out = []
    for mask in range(1 << len(elems)):
        sub = frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)
        if all(y in sub for x in sub for y in keep_max if board1.leq(y, x)):
            out.append(sub)
    out.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return out


def _down_closure(board, nodes):
    return frozenset().union(*(board.down_set(s) for s in nodes))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_nodes=st.integers(1, 10),
    n=st.integers(1, 3),
    data=st.data(),
)
def test_down_closed_keeps_match_mask_scan(seed, max_nodes, n, data):
    board = gen_board(seed, max_nodes=max_nodes, n=n)
    picks = data.draw(st.sets(st.sampled_from(board.ids)))
    keep_max = _down_closure(board, picks)
    assert _down_closed_keeps(board, keep_max) == _mask_scan_keeps(board, keep_max)


def test_down_closed_keeps_match_mask_scan_on_wide_sets():
    # five points under three curves under the top: every node but the top
    # is keepable, and the ideals are far fewer than the 2^11 masks
    points = [f"p{i}" for i in range(5)]
    curves = {"c0": points[:2], "c1": points[1:4], "c2": points[3:], "c3": [], "c4": [], "c5": []}
    dims = {"w": 2, **{p: 0 for p in points}, **{c: 1 for c in curves}}
    covers = [(p, c) for c, ps in curves.items() for p in ps] + [(c, "w") for c in curves]
    board = Board(dims, covers)
    keep_max = frozenset(board.ids) - {"w"}
    assert len(keep_max) == 11
    keeps = _down_closed_keeps(board, keep_max)
    assert keeps == _mask_scan_keeps(board, keep_max)
    assert keeps[0] == keep_max and keeps[-1] == frozenset()


@pytest.mark.parametrize("seed, max_nodes, width", [(19, 16, 11), (0, 16, 14), (6, 20, 19)])
def test_down_closed_keeps_on_generated_wide_boards(seed, max_nodes, width):
    board = gen_board(seed, max_nodes=max_nodes, n=3)
    keep_max = _down_closure(board, [s for s in board.ids if s != board.top])
    assert len(keep_max) == width
    keeps = _down_closed_keeps(board, keep_max)
    assert keeps == _mask_scan_keeps(board, keep_max)
    if width > _KEEP_ENUM_LIMIT:
        assert keeps == [keep_max]


def test_shrink_keep(blown_chain_board):
    keep = frozenset({"q1", "a"})
    hit = [Violation("scenario", 9, ("q1",), "")]
    assert _shrink_keep(blown_chain_board, keep, hit) == frozenset()
    graze = [Violation("scenario", 9, ("a",), "")]
    assert _shrink_keep(blown_chain_board, keep, graze) == frozenset({"q1"})
    miss = [Violation("scenario", 9, ("w",), "")]
    assert _shrink_keep(blown_chain_board, keep, miss) is None


# ---- the issue-9 sieve per keep set ---------------------------------------------


def _per_candidate_blowup_bundles(state, z, policy, enumerate_boards=False):
    """Reference: build, order-assign and sieve every keep at every bump
    level, reading the candidate cap at call time."""
    board = state.board
    root = state.root.scenario
    ts = blowup_uppers(board, z)
    cap = policy.max_new_nodes
    if enumerate_boards:
        subsets = [
            list(sub)
            for size in range(len(ts), -1, -1)
            for sub in itertools.combinations(ts, size)
        ]
        subsets = [sub for sub in subsets if cap is None or 1 + len(sub) <= cap]
    else:
        subsets = [ts]
    examined = 0
    for sub in subsets:
        bt = blowup_transform(board, z, sub, cap)
        keep_max = _root_keep_max(root, bt)
        keeps = _down_closed_keeps(bt.target, keep_max)
        repair = len(keep_max) > _KEEP_ENUM_LIMIT
        tried = set(keeps)
        while keeps:
            keep = keeps.pop(0)
            yielded = []
            for level in policy.bump_levels():
                examined += 1
                if examined > mephisto._CANDIDATE_CAP:
                    return
                bump = Fraction(level, root.B)
                root_new = _root_response(root, bt, keep, bump)
                if root_new is None:
                    continue
                if not repair and validate_blowup_transform(root, bt, root_new):
                    continue
                bundle = _assemble_blowup(state, bt, root_new, bump)
                if bundle is None or bundle.responses in yielded:
                    continue
                violations = validate_bundle(
                    state, Move.blowup(z), bundle, first_only=not repair
                )
                if not violations:
                    yielded.append(bundle.responses)
                    yield bundle
                elif repair:
                    smaller = _shrink_keep(bt.target, keep, violations)
                    if smaller is not None and smaller not in tried:
                        tried.add(smaller)
                        keeps.append(smaller)


def _adversarial_state(seed, rounds):
    """The state of an adversarial game after ``rounds`` rounds, and Dido's
    next move there."""
    policy = Policy.parse("adversarial")
    state = new_game(gen_scenario(seed))
    dido = DidoStrategy()
    while state.round_no < rounds:
        move = dido.decide(state)
        bundle = respond(state, move, policy)
        dido.observe(state, move, bundle, apply_round(state, move, bundle))
    return state, dido.decide(state)


def _issue_9_keeps(state, z):
    """Indices of the full blowup's keeps whose root response fails issue 9."""
    root = state.root.scenario
    bt = blowup_transform(state.board, z)
    H1, M1 = blowup_jibs(root, bt)
    keeps = _down_closed_keeps(bt.target, _root_keep_max(root, bt))
    return [
        i for i, keep in enumerate(keeps)
        if heavy_jib_violations(bt.target, root.d, H1, keep, M1)
    ]


@pytest.mark.parametrize("seed, rounds", [(0, 7), (24, 11), (24, 16)])
@pytest.mark.parametrize("kind", ["adversarial", "canonical"])
def test_keep_sieve_matches_per_candidate_loop_under_every_cap(
    monkeypatch, seed, rounds, kind
):
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    z = move.center
    policy = Policy.parse(kind)
    levels = len(policy.bump_levels())
    failing = _issue_9_keeps(state, z)
    assert failing
    # caps on both edges of, and inside, the first failing keeps' levels
    caps = {0, 1, 10**6}
    for i in failing[:3]:
        caps |= set(range(levels * i - 1, levels * (i + 1) + 2))
    for cap in sorted(c for c in caps if c >= 0):
        monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", cap)
        for boards in (False, True):
            got = list(enumerate_blowup_bundles(state, z, policy, boards))
            want = list(_per_candidate_blowup_bundles(state, z, policy, boards))
            assert got == want, (cap, boards)


# ---- call responses -----------------------------------------------------------


def test_call_bundle_shapes(crossing_scenario):
    st = _root_state(crossing_scenario)
    rel = QuestRelation.transversality({"h1", "h2"})
    bundle = respond(st, Move.call(0, rel), Policy.parse("canonical"))
    assert bundle.transform.is_identity()
    assert bundle.child == transversality_response(crossing_scenario, {"h1", "h2"})
    assert bundle.responses[0] == crossing_scenario
    assert validate_bundle(st, Move.call(0, rel), bundle) == []


def test_quotient_call_child_matches_formula(crossing_scenario):
    st = _root_state(crossing_scenario)
    z = zero_factor(crossing_scenario.H)
    rel = QuestRelation.quotient(z, Fraction(13, 10))
    bundle = respond(st, Move.call(0, rel), Policy.parse("canonical"))
    assert bundle.child == quotient_response(crossing_scenario, z, Fraction(13, 10))


def test_descent_call_requires_tight_parent(chain_scenario):
    st = _root_state(chain_scenario)  # ord(p) = 2: not tight
    with pytest.raises(NoValidBundle):
        respond(st, Move.call(0, QuestRelation.descent()), Policy.parse("canonical"))


def test_relaxation_call_strips_jib(crossing_scenario):
    st = _root_state(crossing_scenario)
    rel = QuestRelation.relaxation({"h1"})
    bundle = respond(st, Move.call(0, rel), Policy.parse("canonical"))
    assert bundle.child.H == frozenset({"h2"})
    assert bundle.child.S == crossing_scenario.S


def test_unknown_move_kind_rejected(chain_scenario):
    st = _root_state(chain_scenario)
    with pytest.raises(ValueError):
        respond(st, Move(kind="shuffle"), Policy.parse("canonical"))
