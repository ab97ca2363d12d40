"""Response policies: enumeration, selection, caps, and determinism."""

import dataclasses
import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salmagundy import mephisto, quests, scenario, transform
from salmagundy.board import (
    Board,
    Violation,
    blowup_transform,
    blowup_uppers,
    trivial_refinement,
)
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
from salmagundy.harness import explore, gen_board, gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import (
    _KEEP_ENUM_LIMIT,
    CapError,
    NoValidBundle,
    Policy,
    _assemble_blowup,
    _bundle_score,
    _down_closed_keeps,
    _fixed_orders,
    _keep_bound,
    _order_ceilings,
    _root_keep_max,
    _root_response,
    _shrink_keep,
    enumerate_blowup_bundles,
    respond,
)
from salmagundy.quests import quotient_response, transversality_response
from salmagundy.scenario import (
    MonomialFactor,
    Scenario,
    admissible_centers,
    assign_orders,
    complete_factor,
    extend_factor,
    heavy_jib_violations,
    is_tight,
    order_floor,
    validate_scenario,
    zero_factor,
)
from salmagundy.transform import (
    QuestRelation,
    blowup_jibs,
    capped_transport,
    cleared_nodes,
    exceptional_cap,
    transport_relation,
    validate_blowup_transform,
)
from salmagundy.values import INF, is_finite
from test_scenario import _walk_blowups


def _root_state(scenario):
    return GameState({0: Quest(0, None, None, scenario)})


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
    assert list(enumerate_blowup_bundles(st, Move.blowup("s"), explore))
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


@pytest.mark.parametrize("kind", ["canonical", "random", "adversarial", "explore"])
def test_an_inadmissible_center_builds_no_board(monkeypatch, chain_scenario, kind):
    # The top of a wholly singular board, and a node above a singular one:
    # the rule reads only the main quest's scenario, so no board is built.
    b = Board({"w": 1, "v": 0}, [("v", "w")])
    top = Scenario(
        board=b, d=1, B=1, H=(), S=b.ids, T=b.ids, ord=dict.fromkeys(b.ids, INF),
        M=[zero_factor(())],
    )
    assert validate_scenario(top) == []

    def boom(*args, **kwargs):
        raise AssertionError("built a board for an inadmissible center")

    monkeypatch.setattr(mephisto, "blowup_transform", boom)
    for sc, z in ((top, "w"), (chain_scenario, "a")):
        stream = enumerate_blowup_bundles(_root_state(sc), Move.blowup(z), Policy(kind=kind))
        with pytest.raises(NoValidBundle, match=f"center {z} is not admissible"):
            next(stream)


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
    bundles = list(enumerate_blowup_bundles(st, Move.blowup("s"), pol))
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
            enumerate_blowup_bundles(_root_state(crossing_scenario), mv, pol), 64
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


def _two_pass_assign_orders(board, d, keep, gens, fixed, bump):
    """Reference: place every order top-down, then check each placed order
    once more against the floor that all the other placed orders give it."""
    ords = {}
    for f in sorted(keep, key=lambda s: (-board.dim(s), s)):
        if f in fixed:
            v = fixed[f]
            if board.dim(f) == d and is_finite(v):
                return None
        elif board.dim(f) == d:
            v = INF
        else:
            floor = order_floor(board, d, gens, ords, f)
            if is_finite(floor) and bump:
                v = max(floor, Fraction(1) + bump)
            else:
                v = floor
        if is_finite(v) and v < 1:
            return None
        ords[f] = v
    for f, v in ords.items():
        others = {t: w for t, w in ords.items() if t != f}
        floor = order_floor(board, d, gens, others, f)
        if is_finite(v) and (not is_finite(floor) or v < floor):
            return None
    return ords


def _fixed_variants(fixed, keep):
    """The fixed orders as given, and with the order of each fixed node of
    ``keep`` moved to 1 and, when finite, up by 1: the first can sink below
    the node's floor or be finite at dimension d, the second lifts the floor
    of the fixed nodes below it."""
    yield fixed
    for f, v in sorted(fixed.items()):
        if f in keep:
            for w in (Fraction(1), v + 1) if is_finite(v) else (Fraction(1),):
                yield {**fixed, f: w}


@pytest.fixture(scope="module")
def recorded_calls():
    """The arguments of every ``assign_orders``, ``_blowup_response`` and
    ``_root_keep_max`` call that canonical, adversarial and random:1 games
    make."""
    calls = {"assign_orders": [], "_blowup_response": [], "_root_keep_max": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, calls_of in calls.items():
            def record(*args, _real=getattr(mephisto, name), _calls=calls_of, **kwargs):
                _calls.append((args, kwargs))
                return _real(*args, **kwargs)

            mp.setattr(mephisto, name, record)
        games = [(gen_scenario(s), k) for s in range(20) for k in ("canonical", "adversarial")]
        games += [(gen_monomial_scenario(s), k) for s in range(6) for k in ("canonical", "random:1")]
        for scenario, kind in games:
            play_game(scenario, Policy.parse(kind))
    return calls


def test_one_pass_order_assignment_matches_the_two_pass_reference(recorded_calls, monkeypatch):
    # Where the reference places orders, assign_orders places the same ones.
    # Where it finds no legal choice, _blowup_response answers None; and
    # where _blowup_response answers None, the reference found none, or its
    # orders break a tight quest's 1 (item 11).
    shapes = {"complete": 0, "pinned": 0, "descent": 0, "none": 0, "orders": 0}
    for args, kwargs in recorded_calls["assign_orders"]:
        assert not kwargs
        board, d, nodes, gens, fixed, raises = args
        (bump,) = set(raises.values()) or {0}  # every caller raises all nodes alike
        shapes["descent"] += not gens[0]  # blowup responses have jib e
        for variant in _fixed_variants(fixed, nodes):
            want = _two_pass_assign_orders(board, d, nodes, gens, variant, bump)
            if want is not None:
                assert assign_orders(board, d, nodes, gens, variant, raises) == want
    for args, kwargs in recorded_calls["_blowup_response"]:
        assert not kwargs
        c, bt, S1, T1, bump = args
        board1, gens1 = bt.target, blowup_jibs(c, bt)[1].generators
        fixed = _fixed_orders(c, bt)
        # transform.complete_orders fixes every node of the board; the pins
        # never fix the top
        complete = set(board1.ids) <= set(fixed)
        shapes["complete"] += complete
        shapes["pinned"] += not complete and any(f in fixed for f in S1)
        for variant in _fixed_variants(fixed, S1):
            monkeypatch.setattr(mephisto, "_fixed_orders", lambda c, bt, v=variant: v)
            got = mephisto._blowup_response(c, bt, S1, T1, bump)
            want = _two_pass_assign_orders(board1, c.d, S1, gens1, variant, bump)
            if want is None or (is_tight(c) and any(v != 1 for v in want.values())):
                assert got is None
            else:
                assert got is not None and got.ord == want
            shapes["none" if want is None else "orders"] += 1
    # every kind of call, and both outcomes, were met
    assert all(shapes.values()), shapes


def _keep_with_issue_4_by_hand(c, bt):
    """The first removals of ``_root_keep_max`` as it once worked them out,
    with issue 4 stated twice by hand: the exceptional node's pin must stay
    in the regime (a finite pin of at least 1 when d = n, INF when d =
    n - 1), and a complete factor must price no node below 1. Not yet
    down-closed, and without a tight quest's removals."""
    board0, board1 = c.board, bt.target
    z, e = bt.center, bt.exceptional
    keep = {x for x in board1.ids if bt.retract[x] in c.S}
    if e in keep:
        pe = exceptional_cap(c, z)
        d_ok = (c.d == board0.n and is_finite(pe) and pe >= 1) or (
            c.d == board0.n - 1 and not is_finite(pe)
        )
        if not d_ok:
            keep.discard(e)
    keep -= {x for x in keep if board1.dim(x) > c.d}
    keep -= {x for _, hit in cleared_nodes(c, bt, keep) for x in hit}
    m = complete_factor(c)
    if m is not None:
        m1 = capped_transport(c, bt, m)
        keep -= {x for x in keep if extend_factor(board1, m1, x) < 1}
    return keep


def _keep_max_with_issue_4_by_hand(c, bt):
    """Reference: ``_root_keep_max`` before it read issue 4 from the order
    floor."""
    keep = _keep_with_issue_4_by_hand(c, bt)
    if is_tight(c):
        keep -= {x for x in keep if bt.target.dim(x) == c.d}
    return frozenset(x for x in keep if bt.target.down_set(x) <= keep)


def _keep_max_with_tight_floor_pass(c, bt, examined):
    """Reference: the largest keep as ``_root_keep_max`` once worked it out,
    with a last pass in a tight quest that also dropped each node whose floor
    exceeds 1 while every other kept node sits at order 1. Each node that
    pass weighs is appended to ``examined``."""
    board1 = bt.target
    keep = _keep_with_issue_4_by_hand(c, bt)
    if is_tight(c):
        gens1 = blowup_jibs(c, bt)[1].generators
        ones = {x: Fraction(1) for x in keep}
        for x in sorted(keep):
            if board1.dim(x) == c.d:
                keep.discard(x)
                continue
            examined.append(x)
            rest = {t: w for t, w in ones.items() if t != x}
            if order_floor(board1, c.d, gens1, rest, x) != Fraction(1):
                keep.discard(x)
    return frozenset(x for x in keep if board1.down_set(x) <= keep)


def test_keep_max_reads_issue_4_from_the_order_floor():
    # One test of every fixed order against issue 4's floor drops what the
    # two hand-written tests dropped, on every blowup of games under each
    # policy. Adversarial and canonical 68 blow up to keeps wider than the
    # enumeration limit; seed 6 meets complete factors that price nodes
    # below 1.
    real, seen = mephisto._root_keep_max, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mephisto, "_root_keep_max", lambda c, bt: seen.append((c, bt)) or real(c, bt))
        for seed in (6, 68):
            for kind in ("canonical", "random:1", "adversarial"):
                play_game(gen_scenario(seed), Policy.parse(kind))
        for seed in (0, 6):
            explore(gen_scenario(seed))
    kinds = Counter()
    for c, bt in seen:
        keep_max = real(c, bt)
        assert keep_max == _keep_max_with_issue_4_by_hand(c, bt)
        e, fixed = bt.exceptional, _fixed_orders(c, bt)
        singular = [x for x in bt.target.ids if bt.retract[x] in c.S]
        kinds["wide"] += len(keep_max) > _KEEP_ENUM_LIMIT
        kinds["e kept"] += e in keep_max
        kinds["e dropped"] += e in singular and e not in keep_max
        kinds["below 1"] += any(x != e and x in fixed and fixed[x] < 1 for x in singular)
    assert len(kinds) == 4 and all(kinds.values()), kinds


def _tight_valid_roots(seeds):
    """``gen_scenario`` scenarios with every order set to 1, where that is
    still a valid scenario with a singular node."""
    for seed in seeds:
        c = gen_scenario(seed)
        tight = dataclasses.replace(c, ord=dict.fromkeys(c.S, Fraction(1)))
        if tight.S and not validate_scenario(tight):
            yield tight


def test_a_tight_quest_drops_no_node_for_its_floor(recorded_calls):
    cases = [args for args, _ in recorded_calls["_root_keep_max"]]
    played = len(cases)
    cases += [
        (c, blowup_transform(c.board, z))
        for c in _tight_valid_roots(range(300))
        for z in sorted(admissible_centers(c))
    ]
    examined = []
    for c, bt in cases:
        assert _root_keep_max(c, bt) == _keep_max_with_tight_floor_pass(c, bt, examined)
    # the games and the tight roots both reach the pass, and it weighs nodes
    assert any(is_tight(c) for c, _ in cases[:played])
    assert len(cases) - played > 100 and examined


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
        if all(y in sub for x in sub for y in keep_max if y in board1.down_set(x)):
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
        if not subsets:
            raise CapError(f"no blowup at {z} fits inside max_new_nodes={cap}")
    elif cap is not None and 1 + len(ts) > cap:
        raise CapError(f"blowup at {z} needs {1 + len(ts)} fresh nodes, cap is {cap}")
    else:
        subsets = [ts]
    examined = 0
    for sub in subsets:
        bt = blowup_transform(board, z, sub)
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
                bundle = _assemble_blowup(state, bt, root_new, bump, relations, {})
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


def _adversarial_state(seed, rounds, policy="adversarial"):
    """The state of an adversarial game (or one under ``policy``) after
    ``rounds`` rounds, and Dido's next move there."""
    policy = Policy.parse(policy)
    state = new_game(gen_scenario(seed))
    dido = DidoStrategy()
    while state.round_no < rounds:
        move, dido = dido.decide(state)
        bundle = respond(state, move, policy)
        state, _ = apply_round(state, move, bundle)
        dido = dido.observe(state, move, bundle)
    return state, dido.decide(state)[0]


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
@pytest.mark.parametrize("kind", ["random", "canonical", mephisto.EXPLORE])
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
        got = list(enumerate_blowup_bundles(state, move, policy))
        want = list(_per_candidate_blowup_bundles(state, z, policy))
        assert got == want, cap


def _outcome(stream):
    try:
        return list(stream)
    except CapError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["canonical", mephisto.EXPLORE])
def test_a_node_cap_stops_the_stream_as_it_stops_the_reference(kind):
    state, move = _adversarial_state(0, 7)
    z = move.center
    width = 1 + len(blowup_uppers(state.board, z))
    assert width > 2
    for cap in (0, 1, width - 1, width):
        policy = Policy(kind=kind, max_new_nodes=cap)
        got = _outcome(enumerate_blowup_bundles(state, move, policy))
        want = _outcome(_per_candidate_blowup_bundles(state, z, policy))
        assert got == want, cap
        if cap < (1 if kind == mephisto.EXPLORE else width):
            assert isinstance(got, str) and str(cap) in got, cap
        else:
            assert got and not isinstance(got, str), cap


# ---- keep_max first, the other keeps on demand ------------------------------------

# Canonical states whose blowup's keep_max yields no valid bundle (the stream
# falls through to smaller keeps), and one whose keep_max does.
_FALL_THROUGH = [(0, 7), (6, 18), (14, 34)]
_KEEP_MAX_VALID = (6, 5)


def _canonical_blowup(seed, rounds):
    state, move = _adversarial_state(seed, rounds, "canonical")
    assert move.kind == "blowup"
    bt = blowup_transform(state.board, move.center)
    return state, move.center, _root_keep_max(state.root.scenario, bt)


@pytest.mark.parametrize("seed, rounds", [*_FALL_THROUGH, _KEEP_MAX_VALID])
@pytest.mark.parametrize("kind", ["canonical", mephisto.EXPLORE])
def test_streams_started_at_keep_max_are_the_eager_streams(monkeypatch, kind, seed, rounds):
    state, z, keep_max = _canonical_blowup(seed, rounds)
    first = next(enumerate_blowup_bundles(state, Move.blowup(z), Policy()))
    assert (first.responses[0].S == keep_max) == ((seed, rounds) == _KEEP_MAX_VALID)
    policy = Policy(kind=kind)
    levels = len(policy.bump_levels())
    # caps inside keep_max's levels, at its edge and past the next keep
    for cap in [*range(3 * levels + 2), 10**6]:
        monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", cap)
        got = list(enumerate_blowup_bundles(state, Move.blowup(z), policy))
        want = list(_per_candidate_blowup_bundles(state, z, policy))
        assert got == want, cap


@pytest.mark.parametrize("seed, rounds", [*_FALL_THROUGH, _KEEP_MAX_VALID])
def test_the_other_keeps_are_listed_only_past_keep_max(monkeypatch, seed, rounds):
    state, z, keep_max = _canonical_blowup(seed, rounds)
    listed = []
    keeps = mephisto._down_closed_keeps
    monkeypatch.setattr(
        mephisto, "_down_closed_keeps", lambda b, k: listed.append(k) or keeps(b, k)
    )
    bundle = respond(state, Move.blowup(z), Policy())
    assert (bundle.responses[0].S == keep_max) == (not listed)
    assert listed in ([], [keep_max])
    # the bound reads every keep before it starts one
    listed.clear()
    respond(state, Move.blowup(z), Policy.parse("adversarial"))
    assert listed == [keep_max]


# ---- responses shared within one blown-up board -------------------------------


@pytest.mark.parametrize("kind", ["adversarial", mephisto.EXPLORE])
def test_equal_responses_in_one_stream_are_one_object(kind):
    state, move = _adversarial_state(0, 7)
    stream = enumerate_blowup_bundles(state, move, Policy(kind=kind))
    first = {}
    seen = 0
    for bundle in stream:
        for sc in bundle.responses.values():
            seen += 1
            assert first.setdefault(sc, sc) is sc
    assert seen > len(first)  # responses do repeat across candidates


@pytest.mark.parametrize("kind", ["random", mephisto.EXPLORE])
def test_equal_descent_responses_are_one_object_checked_once(monkeypatch, kind):
    # Seed 24 after round 11 is a stop case whose blowup leaves three
    # descent quests open. Each candidate builds its descent responses afresh;
    # over every candidate assembled, valid or not, equal ones are one
    # object, so the umpire checks each value's blowup transform once.
    state, move = _adversarial_state(24, 11)
    descents = {
        q.quest_id for q in state.open_quests() if q.relation and q.relation.kind == "descent"
    }
    assert len(descents) == 3
    assembled = []
    assemble = mephisto._assemble_blowup

    def recording(*args):
        assembled.append(assemble(*args))
        return assembled[-1]

    checked = Counter()
    check = transform._check_blowup_transform

    def counting(c, c1, bt):
        checked[c, bt, c1] += 1
        return check(c, c1, bt)

    monkeypatch.setattr(mephisto, "_assemble_blowup", recording)
    monkeypatch.setattr(transform, "_check_blowup_transform", counting)
    list(enumerate_blowup_bundles(state, move, Policy(kind=kind, seed=1)))
    first = {}
    seen = 0
    for bundle in filter(None, assembled):
        for qid in descents & bundle.responses.keys():
            sc = bundle.responses[qid]
            seen += 1
            assert first.setdefault(sc, sc) is sc
            assert checked[state.quests[qid].scenario, bundle.transform, sc] == 1
    assert seen > len(first)  # descent responses do repeat across candidates
    assert max(checked.values()) == 1


def test_the_umpire_builds_no_child_that_mephisto_built(monkeypatch):
    # A transversality, quotient or relaxation child is built once, by
    # Mephisto's call_response, which stores it on its parent; the umpire's
    # call_check reads it there, in the sieve, on the call round and in
    # apply_round.
    policy = Policy.parse("adversarial")
    state = new_game(gen_scenario(0))
    dido = DidoStrategy()
    built = Counter()
    where = ["mephisto"]
    kinds = ("transversality", "quotient", "relaxation")
    for name in (f"{kind}_response" for kind in kinds):

        def counting(*args, _build=getattr(quests, name), _name=name):
            built[where[0], _name] += 1
            return _build(*args)

        monkeypatch.setattr(quests, name, counting)

    def umpire(check):
        def checking(*args):
            where[0] = "umpire"
            try:
                return check(*args)
            finally:
                where[0] = "mephisto"

        return checking

    monkeypatch.setattr(mephisto, "validate_bundle", umpire(validate_bundle))
    rounds = Counter()
    while True:
        move, dido = dido.decide(state)
        if move is None:
            break
        open_calls = {q.relation.kind for q in state.open_quests() if q.relation}
        if move.kind == "blowup":
            rounds["blowup", frozenset(open_calls.intersection(kinds))] += 1
        else:
            rounds["call", move.relation.kind, bool(move.relation.jibs)] += 1
        bundle = respond(state, move, policy)
        state, _ = umpire(apply_round)(state, move, bundle)
        dido = dido.observe(state, move, bundle)
    assert state.won
    assert rounds["blowup", frozenset(kinds)]
    assert rounds["call", "transversality", True] and rounds["call", "quotient", False]
    assert rounds["call", "relaxation", True]
    for kind in kinds:
        assert built["mephisto", f"{kind}_response"], kind
        assert built["umpire", f"{kind}_response"] == 0, kind


@pytest.mark.parametrize("seed, rounds", [(0, 7), (24, 11)])
def test_each_blowup_transform_is_checked_once_per_value(monkeypatch, seed, rounds):
    state, move = _adversarial_state(seed, rounds)
    assert move.kind == "blowup"
    checked = Counter()
    check = transform._check_blowup_transform

    def counting(c, c1, bt):
        checked[c, bt, c1] += 1
        return check(c, c1, bt)

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
    while state.round_no < rounds:
        move, dido = dido.decide(state)
        if move is None:
            return
        bundle = respond(state, move, policy)
        if move.kind == "blowup":
            yield state, move, bundle
        state, _ = apply_round(state, move, bundle)
        dido = dido.observe(state, move, bundle)


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
    # The random: stream has no stop, so every candidate is built. Valid or
    # not, each response holds singular only nodes of its ceiling's S, at
    # orders no higher than the ceiling's, so no total |S| exceeds UB(keep).
    # The ceilings are built for the policy's own levels; built one level
    # lower, they fall below some candidate's orders.
    assembled = []
    assemble = mephisto._assemble_blowup

    def recording(state, bt, root_new, bump, relations, *tables):
        bundle = assemble(state, bt, root_new, bump, relations, *tables)
        if bundle is not None:
            assembled.append((bt, relations, bundle))
        return bundle

    monkeypatch.setattr(mephisto, "_assemble_blowup", recording)
    for steps in (0, 2, 4):
        policy = Policy("random", 1, max_order_steps=steps)
        checked = shrunk = finite = 0
        for state, z in _stop_cases():
            assembled.clear()
            list(enumerate_blowup_bundles(state, Move.blowup(z), policy))
            if not assembled:
                continue
            bt, relations, _ = assembled[0]
            root = state.root.scenario
            keep_max = _root_keep_max(root, bt)
            ceilings = _order_ceilings(state, bt, keep_max, relations, policy.bump_levels())
            for _, _, bundle in assembled:
                for qid, sc in bundle.responses.items():
                    assert sc.S <= ceilings[qid].S
                    assert all(sc.ord[x] <= ceilings[qid].ord[x] for x in sc.S), steps
                score = _bundle_score(bundle)[0]
                assert score <= _keep_bound(ceilings, bundle.responses[0].S)
                checked += 1
            # the ceilings bite: some quotient child holds fewer nodes than its
            # parent, and some free order of a quest that is not tight is finite
            shrunk += sum(
                rel.kind == "quotient"
                and ceilings[qid].S < ceilings[state.quests[qid].parent_id].S
                for qid, rel in relations.items()
            )
            fixed = _fixed_orders(root, bt)
            finite += not is_tight(root) and any(
                is_finite(v) for x, v in ceilings[0].ord.items() if x not in fixed
            )
        assert checked and shrunk and finite, steps


def _root_ceiling_loop(root, bt, keep_max, levels):
    """Reference: the root ceiling's orders as a loop of their own placed
    them, top-down: the fixed order, else 1 in a tight quest, else INF at
    dimension d, else max(floor, 1 + L/B) for the top level L."""
    board1 = bt.target
    fixed = _fixed_orders(root, bt)
    gens1 = blowup_jibs(root, bt)[1].generators
    top = 1 + Fraction(max(levels), root.B)
    ords = {}
    for f in sorted(keep_max, key=lambda s: (-board1.dim(s), s)):
        if f in fixed:
            ords[f] = fixed[f]
        elif is_tight(root):
            ords[f] = Fraction(1)
        elif board1.dim(f) == root.d:
            ords[f] = INF
        else:
            ords[f] = max(order_floor(board1, root.d, gens1, ords, f), top)
    return ords


def test_the_root_ceiling_places_its_orders_as_its_own_loop_did():
    met = Counter()
    for state, z in _stop_cases():
        root = state.root.scenario
        bt = blowup_transform(state.board, z)
        keep_max = _root_keep_max(root, bt)
        fixed = _fixed_orders(root, bt)
        for steps in (0, 2, 4):
            levels = Policy("adversarial", max_order_steps=steps).bump_levels()
            ords = _order_ceilings(state, bt, keep_max, {}, levels)[0].ord
            assert ords == _root_ceiling_loop(root, bt, keep_max, levels), (z, steps)
            free = [v for x, v in ords.items() if x not in fixed]
            met["tight"] += is_tight(root) and bool(free)
            met["raised"] += any(v == 1 + Fraction(steps, root.B) > 1 for v in free)
            met["floor"] += any(is_finite(v) and v > 1 + Fraction(steps, root.B) for v in free)
    # free nodes in a tight quest, at the top level and above it were all met
    assert met["tight"] and met["raised"] and met["floor"], met


def test_a_ceiling_the_call_does_not_admit_keeps_the_parents_nodes_at_inf():
    # No game reaches this: the root's factor is uncapped above s, whose
    # order is finite, so the quotient of the root's ceiling raises, and the
    # child's ceiling is the root's S at order INF.
    board = Board({"s": 0, "u": 0, "h": 1, "w": 2}, [("s", "h"), ("u", "h"), ("h", "w")])
    root = Scenario(
        board=board, d=2, B=1, H={"h"}, S={"s"}, T=board.ids, ord={"s": 2},
        M=[MonomialFactor({"h": INF})],
    )
    bt = blowup_transform(board, "u")
    (uncapped,) = blowup_jibs(root, bt)[1].generators  # h at INF, e at 0
    rel = QuestRelation.quotient(uncapped, Fraction(1))
    state = GameState({0: Quest(0, None, None, root), 1: Quest(1, 0, rel, root)})
    ceilings = _order_ceilings(state, bt, frozenset({"s"}), {1: rel}, (0, 1, 2))
    assert ceilings[0].ord == {"s": 2}
    with pytest.raises(ValueError, match="uncapped below a finite order"):
        quotient_response(ceilings[0], uncapped, Fraction(1))
    assert ceilings[1].S == ceilings[0].S == {"s"}
    assert ceilings[1].ord == {"s": INF}


@pytest.mark.parametrize("limit", [_KEEP_ENUM_LIMIT, 0])
def test_the_stop_cuts_only_bundles_below_the_incumbent(monkeypatch, limit):
    # The adversarial stream is a prefix of the random: stream, which has no
    # stop, and what it leaves out scores strictly less on total |S| than
    # its incumbent, the best bundle it yielded: a tie never stops it. A
    # stream's first bundles are its best, so a later keep's bound seldom
    # ties the incumbent. The stream is therefore also run with every bundle
    # scored at each total |S| of the whole stream and one above, so the
    # incumbent is that value once it has yielded, under its own bound and
    # under the tightest admissible one, the best total |S| each keep
    # reaches. Limit 0 sends every keep set of these streams down the repair
    # path; the games that lead to the states keep the real limit.
    adversarial = Policy.parse("adversarial")
    cut = 0
    for state, z in _stop_cases():
        with monkeypatch.context() as patch:
            patch.setattr(mephisto, "_KEEP_ENUM_LIMIT", limit)
            whole = list(enumerate_blowup_bundles(state, Move.blowup(z), Policy.parse("random:1")))
            got = list(enumerate_blowup_bundles(state, Move.blowup(z), adversarial))
            runs = [(got, max((_bundle_score(b)[0] for b in got), default=None))]
            reach = Counter()
            for b in whole:
                keep = b.responses[0].S
                reach[keep] = max(reach[keep], _bundle_score(b)[0])
            totals = set(reach.values())
            for bound in (_keep_bound, lambda ceilings, keep: reach[keep]):
                patch.setattr(mephisto, "_keep_bound", bound)
                for v in sorted(totals | {t + 1 for t in totals}):
                    patch.setattr(mephisto, "_bundle_score", lambda bundle, v=v: (v, 0))
                    stopped = list(enumerate_blowup_bundles(state, Move.blowup(z), adversarial))
                    runs.append((stopped, v if stopped else None))
        for stopped, best in runs:
            assert stopped == whole[: len(stopped)]
            if best is not None:
                assert all(_bundle_score(b)[0] < best for b in whole[len(stopped):])
        cut += len(got) < len(whole)
    assert cut


def test_adversarial_stop_keeps_the_choice_of_the_whole_window(monkeypatch):
    # On every blowup of adversarial seeds 0-19, of the first 40 rounds of
    # seed 361 and of the first 123 rounds of seed 68 (whose later blowups
    # take the repair path), respond plays the bundle that the first 64
    # bundles of the random: stream, which has no stop, choose. What it
    # takes from its own stream is a prefix of that window, and the stop
    # adds no truncation reason.
    taken = []
    choose = mephisto._choose

    def recording(state, policy, stream, what, truncated=()):
        pool = []
        bundle = choose(state, policy, (pool.append(b) or b for b in stream), what, truncated)
        taken.append((pool, list(truncated)))
        return bundle

    monkeypatch.setattr(mephisto, "_choose", recording)
    unstopped = Policy.parse("random:1")
    fired = Counter()
    games = [(seed, 10**4) for seed in range(20)] + [(361, 40), (68, 123)]
    for seed, rounds in games:
        for state, move, bundle in _adversarial_blowups(seed, rounds):
            stream = enumerate_blowup_bundles(state, move, unstopped)
            window = list(itertools.islice(stream, 64))
            assert bundle == max(window, key=_bundle_score)
            pool, truncated = taken[-1]
            assert pool == window[: len(pool)]
            if len(pool) < len(window):
                repaired = [r for r in truncated if r.endswith("repaired, not enumerated")]
                assert truncated == repaired
                fired[bool(repaired)] += 1
    assert fired[False] and fired[True]


# ---- the level pruning ----------------------------------------------------------


def test_the_level_pruning_changes_no_stream(monkeypatch):
    # A keep whose orders no bump level moves is built at its first level
    # only: its other levels would repeat that build. Switched off, so that
    # every keep is built at every level (the empty keep, which holds no
    # order at all, stays steady), the streams yield the same bundles in
    # the same order, and a candidate cap of 1 to 6 cuts them at the same
    # candidate with the same reason.
    built = Counter()

    def counting(off, build=mephisto._root_response):
        def wrapped(*args):
            built[off] += 1
            return build(*args)

        return wrapped

    policies = [Policy.parse("random:1"), Policy.parse("adversarial"), Policy(mephisto.EXPLORE)]
    for state, z in _stop_cases():
        for policy in policies:
            for cap in [*range(1, 7), mephisto._CANDIDATE_CAP]:
                runs = []
                for off in (False, True):
                    with monkeypatch.context() as patch:
                        patch.setattr(mephisto, "_CANDIDATE_CAP", cap)
                        patch.setattr(mephisto, "_root_response", counting(off))
                        if off:
                            patch.setattr(mephisto, "_bump_blind_nodes", lambda *args: frozenset())
                        truncated = []
                        stream = enumerate_blowup_bundles(state, Move.blowup(z), policy, truncated)
                        bundles = list(stream)
                    runs.append((bundles, truncated))
                assert runs[0] == runs[1], (policy.kind, cap)
    assert built[False] < built[True]


# ---- call responses -----------------------------------------------------------


def test_call_bundle_shapes(crossing_scenario):
    st = _root_state(crossing_scenario)
    rel = QuestRelation.transversality({"h1", "h2"})
    bundle = respond(st, Move.call(0, rel), Policy.parse("canonical"))
    assert bundle.transform is trivial_refinement(st.board)
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
