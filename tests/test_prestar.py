import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from smpds import (
    EPS,
    Configuration,
    Initial,
    PAutomaton,
    PdsRule,
    Phase,
    Plain,
    SelfModRule,
    SMPDS,
    from_configs,
    phase_closure,
    to_pds,
)
from smpds.bench import GenParams, generate
from smpds.poststar import poststar
from smpds.prestar import prestar
from smpds.translate import pds_prestar

from classical_reference import reference_pds_prestar, useful
from fixtures import (POST_FANOUT_FAMILY, TRANSLATED_FAMILY, cli_stats,
                      multi_phase_target, pop_chain_example, swap_example,
                      wide_enable_example)
from oracles import raw_reach, raw_step, to_raw
from test_classical_reference import _same_useful_part


def test_solve_predecessor_phases():
    r = SelfModRule("p", 5, 1, "q")
    rules = {rid: PdsRule("p", "a", "p", ()) for rid in range(1, 6)}
    m = SMPDS({"p", "q"}, {"a"}, {**rules, 6: r})
    # theta1 = {1,2,3,4,6} arises from {2,3,4,5,6} (5 swapped for 1)
    theta1 = Phase.of([1, 2, 3, 4, 6])
    preds = m.mod_predecessors("q", theta1)
    assert ("p", Phase.of([2, 3, 4, 5, 6])) in preds
    # and from {1,2,3,4,5,6} (1 already present)
    assert ("p", Phase.of([1, 2, 3, 4, 5, 6])) in preds
    assert len(preds) == 2
    # no predecessors when the added rule is absent
    assert m.mod_predecessors("q", Phase.of([2, 3, 6])) == []
    # the smrule itself must be in the predecessor
    assert m.mod_predecessors("q", Phase.of([1])) == []
    # and the rule leads into q only
    assert m.mod_predecessors("p", theta1) == []


def test_prestar_pop_chain_fixture():
    """Frozen membership facts derived with the reference interpreter."""
    m, th0, th1 = pop_chain_example()
    target = Configuration("p0", (), th1)
    sat = prestar(m, from_configs(m, [target]))
    positives = [
        ("p0", (), th1),
        ("p2", ("g2", "g0"), th0),
        ("p3", ("g0",), th0),
        ("p4", ("g0",), th1),
        ("p5", ("g1",), th0),
    ]
    for state, stack, phase in positives:
        assert sat.accepts(Configuration(state, stack, phase)), (state, stack)
    # everything else with stack depth <= 2 is a non-member; the only
    # interpreter-truncated starts are (p5, g2 ..., th1), where control
    # can never leave p5
    import itertools
    pos = {(s, w, th) for s, w, th in positives}
    for state in sorted(m.states):
        for n in range(3):
            for stack in itertools.product(sorted(m.alphabet), repeat=n):
                for phase in (th0, th1):
                    c = Configuration(state, stack, phase)
                    want = (state, stack, phase) in pos
                    assert sat.accepts(c) == want, c


def test_prestar_includes_target_language():
    m, theta0, theta1, c0 = swap_example()
    target = Configuration("p3", ("g3", "g1"), theta1)
    sat = prestar(m, from_configs(m, [target]))
    assert sat.accepts(target)
    assert sat.accepts(c0)


def test_prestar_does_not_mutate_input():
    m, theta0, theta1, c0 = swap_example()
    aut = from_configs(m, [Configuration("p3", ("g3",), theta1)])
    before = set(aut.transitions)
    prestar(m, aut)
    assert aut.transitions == before


def test_prestar_follows_a_word_past_the_automaton_alphabet():
    """A rule may push a symbol that the automaton's alphabet lacks: no
    fact reads it, so the rule waits there and never fires."""
    m = SMPDS({"p", "q"}, {"a", "b"},
              {0: PdsRule("p", "a", "q", ("a", "b")), 1: PdsRule("p", "a", "q", ("a",))})
    theta = m.all_rules_phase()
    aut = PAutomaton({"a"})
    aut.add_transition(Initial("q", theta), "a", Plain("f"))
    aut.add_final(Plain("f"))
    sat = prestar(m, aut)
    assert sat.transitions == aut.transitions | {(Initial("p", theta), "a", Plain("f"))}


@pytest.mark.parametrize("engine", [prestar, poststar])
@pytest.mark.parametrize("seed", range(5))
def test_phases_materialized_counts_result_phases(engine, seed, capsys, tmp_path):
    """`smpds --stats prestar|poststar` prints the distinct phases on the
    result's initial states, and the transitions and finals it added."""
    inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=6,
                              num_smrules=3, seed=7000 + seed))
    aut = from_configs(inst.smpds, [inst.initial])
    result = engine(inst.smpds, aut)
    code, stats = cli_stats(capsys, tmp_path, inst.smpds, aut, engine.__name__)
    assert code == 0
    assert stats["phases"] == len({q.phase for q in result.initial_states()})
    assert stats["transitions added"] == \
        len(result.transitions) - len(aut.transitions)
    assert stats["finals added"] == len(result.finals) - len(aut.finals)
    assert stats["wall seconds"] >= 0


def test_prestar_idempotent():
    m, th0, th1 = pop_chain_example()
    target = Configuration("p0", (), th1)
    once = prestar(m, from_configs(m, [target]))
    twice = prestar(m, once)
    assert twice.transitions == once.transitions
    assert twice.finals == once.finals


def test_prestar_saturates_self_removing_rules():
    # smrule 0 removes itself and adds itself back, so it loops on every
    # phase that holds it; rule 1 pops
    rules = {0: SelfModRule("p", 0, 0, "p"), 1: PdsRule("p", "a", "p", ())}
    m = SMPDS({"p"}, {"a"}, rules)
    target = Configuration("p", ("a",), Phase.of([0, 1]))
    sat = prestar(m, from_configs(m, [target]))
    # a configuration up to depth 2 is a predecessor exactly when the
    # oracle reaches the target from it
    for ids in ((), (0,), (1,), (0, 1)):
        for stack in ((), ("a",), ("a", "a")):
            c = Configuration("p", stack, Phase.of(ids))
            reach, truncated = raw_reach(m, c, 3, 1000)
            assert not truncated
            assert sat.accepts(c) == (target in reach), c


def test_prestar_takes_pushes_of_any_length():
    # rules 0 and 2 push three symbols, which rules 1 and 3 pop one by one;
    # every run is finite, so the oracle's reach of a short stack is exact
    rules = {0: PdsRule("p", "a", "q", ("b", "c", "d")),
             1: PdsRule("q", "b", "q", ()),
             2: PdsRule("q", "c", "r", ("d", "d", "d")),
             3: PdsRule("r", "d", "r", ())}
    m = SMPDS({"p", "q", "r"}, {"a", "b", "c", "d"}, rules)
    th = Phase.of(rules)
    starts = [Configuration(p, stack, th) for p in "pqr" for n in range(4)
              for stack in itertools.product("abcd", repeat=n)]
    reach = {}
    for c in starts:
        reach[c], truncated = raw_reach(m, c, 12, 10000)
        assert not truncated
    for p, stack in (("q", ("c", "d")), ("r", ("d", "d")), ("r", ())):
        target = Configuration(p, stack, th)
        sat = prestar(m, from_configs(m, [target]))
        assert sat.accepts(Configuration("p", ("a",), th))
        for c in starts:
            assert sat.accepts(c) == (target in reach[c]), (target, c)


def test_prestar_reaches_back_to_a_modifying_rule_that_enables_a_push():
    m, c0, target = wide_enable_example()
    reach, truncated = raw_reach(m, c0, 5, 1000)
    assert not truncated and target in reach
    sat = prestar(m, from_configs(m, [target]))
    assert sat.accepts(c0)
    for c in reach:
        c_reach, truncated = raw_reach(m, c, 5, 1000)
        assert not truncated
        assert sat.accepts(c) == (target in c_reach), c


def test_prestar_empty_stack_smrule_predecessors():
    # p --sm--> q with an empty stack: (p, eps) must be recognized as a
    # predecessor of (q, eps), which requires marking initials final
    rules = {0: SelfModRule("p", 1, 1, "q"), 1: PdsRule("q", "a", "q", ("a",))}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    th = Phase.of([0, 1])
    sat = prestar(m, from_configs(m, [Configuration("q", (), th)]))
    assert sat.accepts(Configuration("p", (), th))
    assert not sat.accepts(Configuration("p", ("a",), th))


def test_prestar_matches_two_symbols_across_an_eps_edge():
    # the input path p --a--> m --eps--> n --c--> f: the two-symbol rule
    # <q,b> -> <p, a c> must read it as <p, a c>
    rules = {0: PdsRule("q", "b", "p", ("a", "c"))}
    m = SMPDS({"p", "q"}, {"a", "b", "c"}, rules)
    th = Phase.of([0])
    aut = PAutomaton(m.alphabet)
    aut.add_transition(Initial("p", th), "a", Plain("m"))
    aut.add_transition(Plain("m"), EPS, Plain("n"))
    aut.add_transition(Plain("n"), "c", Plain("f"))
    aut.add_final(Plain("f"))
    sat = prestar(m, aut)
    assert sat.accepts(Configuration("q", ("b",), th))
    assert not sat.accepts(Configuration("q", ("b", "c"), th))


def test_prestar_keeps_no_dead_transition():
    """Direct pre* fires a pop rule only into a state that reaches a final
    state, so on inputs without dead ends (from_configs automata, with
    empty-stack configurations too, and post* results with eps edges)
    every transition of the result leads to a final state."""
    for seed in range(300):
        inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=7,
                                  num_smrules=2, seed=9000 + seed))
        m = inst.smpds
        empty = Configuration(inst.target.state, (), inst.target.phase)
        post = poststar(m, from_configs(m, [inst.initial]))
        for aut in (from_configs(m, [inst.target]),
                    from_configs(m, [inst.target, empty]), post):
            sat = prestar(m, aut)
            assert useful(sat) == sat.transitions, seed


def test_prestar_answers_edges_into_initial_states_only_when_unchanged():
    """An input with an eps or a symbol edge into an initial state: pre*
    refuses it unless the saturation leaves it as it is, and every answer
    it gives is the oracle's.  Adding at such a state would also add to
    the words read through the edge."""
    answered = refused = 0
    for seed in range(300):
        inst = generate(GenParams(num_states=3, num_symbols=2, num_rules=6,
                                  num_smrules=2, seed=12000 + seed))
        m, theta = inst.smpds, inst.target.phase
        rng = random.Random(seed)
        states = sorted(m.states)
        aut = from_configs(m, [inst.target,
                               Configuration(rng.choice(states), (), theta)])
        inits = [Initial(p, theta) for p in states]
        dst = rng.choice(inits)
        if seed % 2:
            aut.add_transition(rng.choice([q for q in inits if q is not dst]),
                               EPS, dst)
        else:
            aut.add_transition(rng.choice(sorted(aut.states, key=repr)),
                               rng.choice(sorted(m.alphabet)), dst)
        try:
            sat = prestar(m, aut)
        except ValueError as e:
            assert "transition into an initial state" in str(e)
            refused += 1
            continue
        answered += 1
        assert sat.transitions == aut.transitions and sat.finals == aut.finals
        for q in sorted(sat.initial_states(), key=repr):
            for n in range(3):
                for stack in itertools.product(sorted(m.alphabet), repeat=n):
                    c = Configuration(q.control, stack, q.phase)
                    reach, truncated = raw_reach(m, c, 4, 2000)
                    hit = any(map(aut.accepts, reach))
                    if hit or not truncated:
                        assert sat.accepts(c) == hit, (seed, c)
    assert answered and refused


@pytest.mark.parametrize("seed", range(30))
def test_prestar_agrees_with_interpreter(seed):
    inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=5,
                              num_smrules=2, seed=1000 + seed))
    m, c0 = inst.smpds, inst.initial
    # a truncated run still reaches each configuration it found
    reach, _ = raw_reach(m, c0, 5, 8000)
    rng = random.Random(seed)
    targets = rng.sample(sorted(reach, key=repr), min(2, len(reach)))
    for target in targets:
        sat = prestar(m, from_configs(m, [target]))
        assert sat.accepts(c0), target
        for c in reach:
            fwd, t2 = raw_reach(m, c, 5, 8000)
            # a miss counts only where the forward run finished
            if target in fwd or not t2:
                assert sat.accepts(c) == (target in fwd), (c, target)


@pytest.mark.parametrize("params", POST_FANOUT_FAMILY + TRANSLATED_FAMILY,
                         ids=lambda p: "-".join(map(str, p)))
def test_prestar_matches_the_reference_at_benchmark_size(params):
    """Multi-phase pre* at full size: direct pre* and classical pre* on the
    paired PDS of the phases reachable from the initial and the target
    phase both build the useful part of the per-transition reference,
    for a target at the smallest phase that post* reaches."""
    inst = generate(GenParams(*params[:4], seed=params[4]))
    m = inst.smpds
    target = multi_phase_target(inst)
    aut = from_configs(m, [target])
    pds = to_pds(m, phase_closure(m, [inst.initial.phase, target.phase]))
    want = reference_pds_prestar(pds, aut)
    got = prestar(m, aut)
    assert _same_useful_part(got, want, aut)
    assert _same_useful_part(pds_prestar(pds, aut), want, aut)
    # both answers are checked: each post_fanout target is reached from
    # the initial configuration, no translated one is
    assert got.accepts(inst.initial) == (params in POST_FANOUT_FAMILY)


@pytest.mark.parametrize("params, translated", [((8, 8, 1009, 10, 1), False),
                                                (TRANSLATED_FAMILY[0], True)],
                         ids=["pre_wide", "translated"])
def test_prestar_interns_each_initial_state_once(params, translated):
    """A pre* run calls no `Initial` constructor: its moves read the
    intern table, `Initial._table`, with one subscript each, which builds
    a missing state in the table itself, and the run keeps no memo of
    its own.  Direct pre* at a `pre_wide`-sized model's all-rules phase,
    and classical pre* of a `translated` pool instance through `to_pds`."""
    inst = generate(GenParams(*params[:4], seed=params[4]))
    m = inst.smpds
    aut = from_configs(m, [inst.target])
    if translated:
        rules, engine = to_pds(m, phase_closure(m, [inst.target.phase])), pds_prestar
    else:
        rules, engine = m, prestar
    constructor = Initial.__dict__["__new__"]
    calls = []

    def counting(cls, control, phase):
        calls.append((control, phase))
        return constructor.__func__(cls, control, phase)

    Initial.__new__ = counting
    try:
        result = engine(rules, aut)
    finally:
        Initial.__new__ = constructor
    states = {(q.control, q.phase) for q in result.initial_states()}
    assert len(states) > 1
    assert calls == []


# the oracle's bounds for the joined-path questions
JOINED_STACK = 6
JOINED_STEPS = 3000


@st.composite
def joined_path_questions(draw):
    """A corpus draw with pushes of two or three symbols, a start, and an
    input automaton: targets that the start reaches, and the draw's own
    target, each with up to two more configurations that share a prefix
    of its stack, so that one fact reaches several states which have
    facts of their own; optionally a target with an empty stack; and up
    to two eps edges between the chains' states."""
    inst = generate(GenParams(num_states=draw(st.integers(2, 4)),
                              num_symbols=draw(st.integers(2, 3)),
                              num_rules=draw(st.integers(2, 9)),
                              num_smrules=draw(st.integers(0, 3)),
                              max_rhs_len=draw(st.sampled_from([2, 3])),
                              seed=draw(st.integers(0, 10**6))))
    m, c0 = inst.smpds, inst.initial
    reach = sorted(raw_reach(m, c0, JOINED_STACK, JOINED_STEPS)[0], key=repr)
    symbols = st.sampled_from(sorted(m.alphabet))
    targets = []
    for t in [*(draw(st.sampled_from(reach)) for _ in range(draw(st.integers(0, 2)))),
              inst.target]:
        targets.append(t)
        for _ in range(draw(st.integers(0, 2)) if t.stack else 0):
            shared = t.stack[:draw(st.integers(1, len(t.stack)))]
            tail = tuple(draw(st.lists(symbols, max_size=2)))
            targets.append(Configuration(t.state, shared + tail, t.phase))
    if draw(st.booleans()):
        targets.append(Configuration(draw(st.sampled_from(sorted(m.states))), (),
                                     draw(st.sampled_from(reach)).phase))
    aut = from_configs(m, targets)
    inner = sorted((q for q in aut.states if not isinstance(q, Initial)), key=repr)
    for _ in range(draw(st.integers(0, 2))):
        aut.add_transition(draw(st.sampled_from(inner)), EPS, draw(st.sampled_from(inner)))
    return m, c0, reach, targets, aut


def _one_step_back(m, c: Configuration) -> list[Configuration]:
    """Configurations one step before `c`, as candidates for pre*: each is
    kept only if the oracle's forward step reaches `c` from it."""
    found = []
    for rid in sorted(m.rules):
        r = m.rules[rid]
        if isinstance(r, PdsRule):
            n = len(r.rhs_word)
            if r.rhs_state == c.state and c.stack[:n] == r.rhs_word:
                found.append(Configuration(r.lhs_state, (r.lhs_symbol, *c.stack[n:]),
                                           c.phase))
        elif r.to_state == c.state:
            base = set(c.phase) - {r.added}
            found += [Configuration(r.from_state, c.stack, Phase.of(ids))
                      for ids in (base | {r.removed}, base | {r.removed, r.added})]
    raw = to_raw(c)
    return [b for b in found if raw in raw_step(m, to_raw(b))]


@given(joined_path_questions())
@settings(max_examples=120, deadline=None)
def test_joined_waiting_groups_agree_with_the_oracle(question):
    """pre* moves a group of half-matched rules on with the OR of the
    facts at every state it reaches.  Direct pre* gives the oracle's
    answer on the configurations the start reaches and on those up to
    three steps before a target; so does classical pre*, on nonempty
    stacks, when no target has an empty stack (the paired PDS fires no
    modifying rule on one).  A configuration whose own reach the oracle
    does not finish is left out."""
    m, c0, reach, targets, aut = question
    direct = prestar(m, aut)
    classical = None
    if all(t.stack for t in targets):
        pds = to_pds(m, phase_closure(m, [c0.phase, *(t.phase for t in targets)]))
        classical = pds_prestar(pds, aut)
    probes = dict.fromkeys(reach[:40])
    level = targets
    for _ in range(3):
        level = [b for c in level for b in _one_step_back(m, c) if b not in probes][:20]
        probes.update(dict.fromkeys(level))
    for c in probes:
        c_reach, truncated = raw_reach(m, c, JOINED_STACK, JOINED_STEPS)
        if truncated:
            continue
        want = any(map(aut.accepts, c_reach))
        assert direct.accepts(c) == want, c
        if classical is not None and c.stack:
            assert classical.accepts(c) == want, c
