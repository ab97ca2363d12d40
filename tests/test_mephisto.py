"""Response policies: enumeration, selection, caps, and determinism."""

import itertools
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salmagundy import mephisto, scenario, transform
from salmagundy.board import Board, Violation
from salmagundy.dido import DidoStrategy
from salmagundy.game import (
    GameState,
    Move,
    Quest,
    apply_round,
    blowup_discards,
    new_game,
    validate_bundle,
)
from salmagundy.harness import gen_board, gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import (
    _KEEP_ENUM_LIMIT,
    CapError,
    NoValidBundle,
    Policy,
    _assemble_blowup,
    _bundle_score,
    _down_closed_keeps,
    _keep_bound,
    _order_ceilings,
    _root_keep_max,
    _root_response,
    _shrink_keep,
    blowup_transform,
    blowup_uppers,
    enumerate_blowup_bundles,
    respond,
)
from salmagundy.quests import quotient_response, transversality_response
from salmagundy.scenario import extend_factor, heavy_jib_violations, zero_factor
from salmagundy.transform import (
    QuestRelation,
    blowup_jibs,
    transport_relation,
    validate_blowup_transform,
)
from salmagundy.values import INF, is_finite
from test_scenario import _walk_blowups


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


@pytest.mark.parametrize("kind", ["canonical", "random:1", "adversarial"])
def test_a_candidate_cap_before_the_first_bundle_is_a_cap(monkeypatch, chain_scenario, kind):
    monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", 0)
    with pytest.raises(CapError, match="stopped after 0 candidates"):
        respond(_root_state(chain_scenario), Move.blowup("p"), Policy.parse(kind))


def test_enumerate_boards_respects_cap(crossing_scenario):
    st = _root_state(crossing_scenario)
    pol = Policy(kind=mephisto.EXPLORE, max_new_nodes=2)
    bundles = list(enumerate_blowup_bundles(st, "s", pol))
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


# ---- order assignment ---------------------------------------------------------


def _two_pass_assign_orders(
    board, d, keep, gens, pinned, bump, force_one=False, override=None
):
    """Reference: place every order top-down, then check each placed order
    once more against the floor that all the other placed orders give it."""
    ords = {}
    for f in sorted(keep, key=lambda s: (-board.dim(s), s)):
        if override is not None:
            v = extend_factor(board, override, f)
            if f in pinned and pinned[f] != v:
                return None
            if board.dim(f) == d and is_finite(v):
                return None
        elif f in pinned:
            v = pinned[f]
        elif board.dim(f) == d:
            v = INF
        else:
            floor = mephisto._order_floor(board, gens, ords, f)
            if is_finite(floor) and bump:
                v = max(floor, Fraction(1) + bump)
            else:
                v = floor
        if force_one and v != Fraction(1):
            return None
        if is_finite(v) and v < 1:
            return None
        ords[f] = v
    for f, v in ords.items():
        others = {t: w for t, w in ords.items() if t != f}
        floor = mephisto._order_floor(board, gens, others, f)
        if is_finite(v) and (not is_finite(floor) or v < floor):
            return None
    return ords


def _pinned_variants(pinned):
    """The pinned orders as given, and with each finite one moved to 1 and
    up by 1: the first can sink below the node's floor, the second lifts
    the floor of the pinned nodes below it."""
    yield pinned
    for f, v in sorted(pinned.items()):
        if is_finite(v):
            for w in (Fraction(1), v + 1):
                yield {**pinned, f: w}


def test_one_pass_order_assignment_matches_the_two_pass_reference(monkeypatch):
    calls = []
    one_pass = mephisto._assign_orders

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(mephisto, "_assign_orders", record)
    games = [(gen_scenario(s), k) for s in range(20) for k in ("canonical", "adversarial")]
    games += [(gen_monomial_scenario(s), k) for s in range(6) for k in ("canonical", "random:1")]
    for scenario, kind in games:
        play_game(scenario, Policy.parse(kind))
    monkeypatch.undo()

    shapes = {"override": 0, "pinned": 0, "descent": 0, "none": 0, "orders": 0}
    for (board, d, keep, gens, pinned, bump, *rest), kwargs in calls:
        override = kwargs.get("override")
        shapes["override"] += override is not None
        shapes["pinned"] += bool(pinned)
        shapes["descent"] += not gens[0].weights  # blowup responses have jib e
        for variant in _pinned_variants(pinned):
            args = (board, d, keep, gens, variant, bump, *rest)
            want = _two_pass_assign_orders(*args, **kwargs)
            assert one_pass(*args, **kwargs) == want
            shapes["none" if want is None else "orders"] += 1
    # every kind of call, and both outcomes, were met
    assert all(shapes.values()), shapes


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


def _per_candidate_blowup_bundles(state, z, policy):
    """Reference: build, order-assign and sieve every keep at every bump
    level, reading the candidate cap at call time. Unlike
    ``enumerate_blowup_bundles`` it drops a root response that fails its own
    transform check before assembling the bundle, and it builds every
    candidate's responses afresh, so equal streams also show that neither
    the shortcut nor sharing responses within a board changes anything."""
    board = state.board
    root = state.root.scenario
    ts = blowup_uppers(board, z)
    cap = policy.max_new_nodes
    if policy.kind == mephisto.EXPLORE:
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
                discards = blowup_discards(state, bt)
                relations = {
                    quest.quest_id: transport_relation(quest.relation, bt)
                    for quest in sorted(state.open_quests(), key=lambda q: q.quest_id)
                    if quest.parent_id is not None and quest.quest_id not in discards
                }
                bundle = _assemble_blowup(
                    state, bt, root_new, bump, discards, relations, {}, {}
                )
                if bundle is None or bundle.responses in yielded:
                    continue
                violations = validate_bundle(state, Move.blowup(z), bundle)
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
@pytest.mark.parametrize("kind", ["adversarial", "canonical", mephisto.EXPLORE])
def test_keep_sieve_matches_per_candidate_loop_under_every_cap(
    monkeypatch, seed, rounds, kind
):
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    z = move.center
    policy = Policy(kind=kind)
    levels = len(policy.bump_levels())
    failing = _issue_9_keeps(state, z)
    assert failing
    # caps on both edges of, and inside, the first failing keeps' levels
    caps = {0, 1, 10**6}
    for i in failing[:3]:
        caps |= set(range(levels * i - 1, levels * (i + 1) + 2))
    for cap in sorted(c for c in caps if c >= 0):
        monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", cap)
        got = list(enumerate_blowup_bundles(state, z, policy))
        want = list(_per_candidate_blowup_bundles(state, z, policy))
        assert got == want, cap


# ---- responses shared within one blown-up board -------------------------------


@pytest.mark.parametrize("kind", ["adversarial", mephisto.EXPLORE])
def test_equal_responses_in_one_stream_are_one_object(kind):
    state, move = _adversarial_state(0, 7)
    stream = enumerate_blowup_bundles(state, move.center, Policy(kind=kind))
    first = {}
    seen = 0
    for bundle in stream:
        for sc in bundle.responses.values():
            seen += 1
            assert first.setdefault(sc, sc) is sc
    assert seen > len(first)  # responses do repeat across candidates


@pytest.mark.parametrize("seed, rounds", [(0, 7), (24, 11)])
def test_each_blowup_transform_is_checked_once_per_value(monkeypatch, seed, rounds):
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    checked = Counter()
    check = transform._check_blowup_transform

    def counting(c, bt, c1):
        checked[c, bt, c1] += 1
        return check(c, bt, c1)

    monkeypatch.setattr(transform, "_check_blowup_transform", counting)
    policy = Policy.parse("adversarial")
    apply_round(state, move, respond(state, move, policy))
    assert checked and max(checked.values()) == 1


@pytest.mark.parametrize("seed, rounds", [(0, 7), (24, 11)])
def test_each_heavy_jib_row_is_computed_once_per_value(monkeypatch, seed, rounds):
    # Mephisto's keep sieve, its responses and the umpire's re-check all ask
    # issue 9 about one blown-up board; each node's heavy jib sets over one
    # (board, d, H, M) are worked out once among them.
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    computed = Counter()
    heavy = scenario.heavy_jib_sets

    def counting(uppers, weights):
        # The key is read from the caller's locals so that the same test runs
        # against the per-node loop of heavy_jib_violations, where no table
        # key exists, and against the table's row builder.
        caller = sys._getframe(1)
        assert caller.f_code.co_name in ("heavy_jib_violations", "_heavy_row"), (
            f"heavy_jib_sets called from {caller.f_code.co_name}; update this test"
        )
        asked = caller.f_locals
        computed[tuple(asked[k] for k in ("board", "d", "H", "M", "s"))] += 1
        return heavy(uppers, weights)

    monkeypatch.setattr(scenario, "heavy_jib_sets", counting)
    policy = Policy.parse("adversarial")
    apply_round(state, move, respond(state, move, policy))
    assert computed and max(computed.values()) == 1


@pytest.mark.parametrize("seed, rounds", [(0, 7), (6, 5)])
def test_each_quotient_lift_is_computed_once_per_value(monkeypatch, seed, rounds):
    # The umpire's discards, Mephisto's transported relations and
    # apply_round all lift an open quotient quest's factor through the
    # blowup; they share one lift per relation and blown-up board.
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    assert any(q.relation and q.relation.kind == "quotient" for q in state.open_quests())
    computed = Counter()
    lift = transform.lift_factor

    def counting(m, bt, e_weight):
        # q is read from the caller's frame, so the count covers every module
        # that binds quotient_lifted_factor.
        caller = sys._getframe(1)
        if caller.f_code.co_name == "quotient_lifted_factor":
            computed[m, caller.f_locals["q"], bt] += 1
        return lift(m, bt, e_weight)

    monkeypatch.setattr(transform, "lift_factor", counting)
    policy = Policy.parse("adversarial")
    apply_round(state, move, respond(state, move, policy))
    assert computed and max(computed.values()) == 1


# ---- the adversarial stop -------------------------------------------------------


def _adversarial_blowups(seed, rounds):
    """Each blowup round among the first ``rounds`` rounds of an adversarial
    game: the state, Dido's move and the bundle ``respond`` answers it with,
    yielded before the round is applied."""
    policy = Policy.parse("adversarial")
    state = new_game(gen_scenario(seed))
    dido = DidoStrategy()
    while state.round_no < rounds and (move := dido.decide(state)) is not None:
        bundle = respond(state, move, policy)
        if move.kind == "blowup":
            yield state, move, bundle
        dido.observe(state, move, bundle, apply_round(state, move, bundle))


def _stop_cases():
    """Blowup states and centers: the root-only walks of seeds 6 and 26,
    adversarial states with open child quests, and every blowup of
    adversarial seeds 0-19. Each state is current only until the next one
    is asked for."""
    for seed in (6, 26):
        for c, bt, _ in _walk_blowups(seed):
            yield _root_state(c), bt.center
    for seed, rounds in [(0, 7), (24, 11), (6, 5)]:
        state, move = _adversarial_state(seed, rounds)
        assert move.kind == "blowup"
        yield state, move.center
    for seed in range(20):
        for state, move, _ in _adversarial_blowups(seed, 10**4):
            yield state, move.center


def test_order_ceilings_bound_every_assembled_candidate(monkeypatch):
    # Without a pool the stop is off and every candidate is built. Valid or
    # not, each response holds singular only nodes of its D_q, at orders no
    # higher than its ceilings, so no total |S| exceeds UB(keep).
    assembled = []
    assemble = mephisto._assemble_blowup

    def recording(state, bt, root_new, bump, discards, relations, interned, children):
        bundle = assemble(state, bt, root_new, bump, discards, relations, interned, children)
        if bundle is not None:
            assembled.append((bt, relations, bundle))
        return bundle

    monkeypatch.setattr(mephisto, "_assemble_blowup", recording)
    policy = Policy.parse("adversarial")
    checked = shrunk = 0
    for state, z in _stop_cases():
        assembled.clear()
        list(enumerate_blowup_bundles(state, z, policy))
        if not assembled:
            continue
        bt, relations, _ = assembled[0]
        keep_max = _root_keep_max(state.root.scenario, bt)
        ceilings = _order_ceilings(state, bt, keep_max, relations)
        for _, _, bundle in assembled:
            for qid, sc in bundle.responses.items():
                assert sc.S <= set(ceilings[qid])
                assert all(sc.ord[x] <= ceilings[qid][x] for x in sc.S)
            assert _bundle_score(bundle)[0] <= _keep_bound(ceilings, bundle.responses[0].S)
            checked += 1
        # the ceilings bite: some quotient child holds fewer nodes than its parent
        shrunk += sum(
            rel.kind == "quotient"
            and set(ceilings[qid]) < set(ceilings[state.quests[qid].parent_id])
            for qid, rel in relations.items()
        )
    assert checked and shrunk


def _incumbent(total_s):
    """A stand-in pool entry with the given total |S|; ``_bundle_score``
    reads only the responses' S and orders and the child."""
    sc = types.SimpleNamespace(S=frozenset(range(total_s)), ord={})
    return types.SimpleNamespace(responses={0: sc}, child=None)


@pytest.mark.parametrize("limit", [_KEEP_ENUM_LIMIT, 0])
def test_the_stop_cuts_only_bundles_below_the_incumbent(monkeypatch, limit):
    # Given a pool, the stream is a prefix of the whole stream, and what it
    # leaves out scores strictly less than the incumbent on total |S|: a
    # tie never stops it. Limit 0 sends every keep set of these streams down
    # the repair path; the games that lead to the states keep the real limit.
    policy = Policy.parse("adversarial")
    cut = 0
    for state, z in _stop_cases():
        with monkeypatch.context() as patch:
            patch.setattr(mephisto, "_KEEP_ENUM_LIMIT", limit)
            whole = list(enumerate_blowup_bundles(state, z, policy))
            totals = {_bundle_score(b)[0] for b in whole}
            for best in sorted(totals | {t + 1 for t in totals}):
                pool = [_incumbent(best)]
                got = list(enumerate_blowup_bundles(state, z, policy, pool=pool))
                assert got == whole[: len(got)]
                assert all(_bundle_score(b)[0] < best for b in whole[len(got):])
                cut += len(got) < len(whole)
    assert cut


def test_adversarial_stop_keeps_the_choice_of_the_whole_window(monkeypatch):
    # On every blowup of adversarial seeds 0-19, of the first 40 rounds of
    # seed 361 and of the first 123 rounds of seed 68 (whose later blowups
    # take the repair path), respond plays the bundle that the first 64
    # bundles of the unstopped stream choose. Its pool is a prefix of that
    # window, and the stop adds no truncation reason.
    taken = []
    choose = mephisto._choose

    def recording(state, policy, stream, what, truncated=(), pool=None):
        bundle = choose(state, policy, stream, what, truncated, pool)
        taken.append((pool, list(truncated)))
        return bundle

    monkeypatch.setattr(mephisto, "_choose", recording)
    policy = Policy.parse("adversarial")
    fired = Counter()
    games = [(seed, 10**4) for seed in range(20)] + [(361, 40), (68, 123)]
    for seed, rounds in games:
        for state, move, bundle in _adversarial_blowups(seed, rounds):
            stream = enumerate_blowup_bundles(state, move.center, policy)
            window = list(itertools.islice(stream, 64))
            assert bundle == max(window, key=_bundle_score)
            pool, truncated = taken[-1]
            assert pool == window[: len(pool)]
            if len(pool) < len(window):
                repaired = [r for r in truncated if r.endswith("repaired, not enumerated")]
                assert truncated == repaired
                fired[bool(repaired)] += 1
    assert fired[False] and fired[True]


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
