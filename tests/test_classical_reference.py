"""The classical pre*/post* of `smpds.translate` against the
per-transition references of `classical_reference.py`.

The current functions must build the same rule list as
`reference_to_pds` and, for post*, exactly the same automaton (states,
finals and transitions) as `reference_pds_poststar`.  Classical pre* is
goal-directed and builds the reference's useful part: the transitions
whose target reaches a final state, the same finals, and as states the
input's plus the endpoints of its transitions.
"""

import random
from collections import deque

from smpds import (from_configs, pds_poststar, pds_prestar, phase_closure,
                   prestar, to_pds)
from smpds.automaton import Initial, PAutomaton, Plain
from smpds.bench import GenParams, generate
from smpds.model import Phase
from smpds.translate import PDS, PairedRule

from classical_reference import (reference_pds_poststar, reference_pds_prestar,
                                 reference_to_pds, solve_predecessor_phases,
                                 useful)
from fixtures import TRANSLATED_FAMILY
from oracles import raw_reach
from test_acceptance import CORPUS_SIZE, ORACLE_STACK, ORACLE_STEPS, _corpus_draw


def _same_automaton(got, want):
    return (got.states == want.states and got.finals == want.finals
            and got.transitions == want.transitions)


def _same_useful_part(got, want, aut):
    """`got` is `want` trimmed to its useful transitions, over the states
    of the input `aut` and of those transitions."""
    ends = {q for src, _, dst in got.transitions for q in (src, dst)}
    return (got.transitions == useful(want) and got.finals == want.finals
            and got.states == aut.states | ends)


def _check_instance(inst):
    """Both saturations and the rule list agree with the references on one
    instance; returns the number of transitions compared."""
    m = inst.smpds
    phases = phase_closure(m, [inst.initial.phase, inst.target.phase])
    pds = to_pds(m, phases)
    assert [(r.lhs_state, r.lhs_symbol, r.rhs_state, r.rhs_word)
            for r in pds.rules] == reference_to_pds(m, phases)
    aut = from_configs(m, [inst.target])
    got, want = pds_prestar(pds, aut), reference_pds_prestar(pds, aut)
    assert _same_useful_part(got, want, aut)
    compared = len(want.transitions)
    aut = from_configs(m, [inst.initial])
    got, want = pds_poststar(pds, aut), reference_pds_poststar(pds, aut)
    assert _same_automaton(got, want)
    return compared + len(want.transitions)


def _corpus_draw_seeds():
    """Seeds 1..n, where n is the seed of the acceptance corpus's last kept
    system: every system the corpus generator draws, kept or not."""
    kept = seed = 0
    while kept < CORPUS_SIZE:
        seed += 1
        _, inst = _corpus_draw(seed)
        kept += not raw_reach(inst.smpds, inst.initial, ORACLE_STACK,
                              ORACLE_STEPS)[1]
    return range(1, seed + 1)


def test_classical_saturations_match_the_reference_on_every_corpus_draw():
    seeds = _corpus_draw_seeds()
    assert len(seeds) >= CORPUS_SIZE
    for seed in seeds:
        _check_instance(_corpus_draw(seed)[1])


def test_classical_saturations_match_the_reference_on_the_translated_family():
    for params in TRANSLATED_FAMILY:
        inst = generate(GenParams(*params[:4], seed=params[4]))
        # full size: thousands of transitions per instance
        assert _check_instance(inst) > 1000, params


def _random_pds_and_input(rng):
    """A small ordinary PDS over paired states and an eps-free input with
    no transition into an initial state, drawn from `rng`.  Some initial
    states are final (empty-stack targets) and some transitions lead to
    a plain state that reaches no final state (dead ends)."""
    phases = [Phase.of([0]), Phase.of([1])]
    pairs = [(p, theta) for p in "pqr" for theta in phases]
    symbols = ["a", "b", "c"]
    rules = tuple(PairedRule(rng.choice(pairs), rng.choice(symbols), rng.choice(pairs),
                             tuple(rng.choices(symbols, k=rng.choice((0, 1, 1, 2)))))
                  for _ in range(rng.randint(3, 10)))
    pds = PDS(frozenset(pairs), frozenset(symbols), rules)
    aut = PAutomaton(symbols)
    inits = [Initial(*pair) for pair in pairs]
    plains = [Plain(f"s{i}") for i in range(3)]
    dead = Plain("dead")
    for q in rng.sample(inits, rng.randint(1, 3)):
        aut.add_state(q)
    for q in rng.sample(inits, rng.randint(0, 2)):
        aut.add_final(q)
    aut.add_final(plains[0])
    for _ in range(rng.randint(1, 6)):
        aut.add_transition(rng.choice(inits + plains), rng.choice(symbols),
                           rng.choice(plains))
    for _ in range(rng.randint(0, 2)):
        aut.add_transition(rng.choice(inits), rng.choice(symbols), dead)
    return pds, aut


def test_prestar_lies_between_the_useful_part_and_the_reference():
    """On small random systems and inputs the corpus does not draw (empty-
    stack finals, dead-end transitions leaving initial states), classical
    pre* keeps every useful transition of the reference, adds none the
    reference lacks, and accepts the same configurations."""
    trimmed = 0
    for seed in range(400):
        pds, aut = _random_pds_and_input(random.Random(seed))
        got = pds_prestar(pds, aut)
        want = reference_pds_prestar(pds, aut)
        assert useful(want) <= got.transitions <= want.transitions, seed
        assert aut.transitions <= got.transitions, seed
        assert got.finals == want.finals, seed
        assert got.enumerate_configs(3) == want.enumerate_configs(3), seed
        trimmed += len(got.transitions) < len(want.transitions)
    # the goal-direction drops transitions on a good share of the draws
    assert trimmed > 100


def test_poststar_on_an_explicit_pds_matches_the_reference():
    """On the same random explicit PDSs and inputs, classical post* builds
    exactly the reference's automaton: post* checks the names of the PDS's
    control points, so this also runs that check on an explicit `PDS`."""
    for seed in range(400):
        pds, aut = _random_pds_and_input(random.Random(seed))
        got = pds_poststar(pds, aut)
        assert _same_automaton(got, reference_pds_poststar(pds, aut)), seed


def _phases_reaching(m, goal):
    """The phases from which modifying rules lead to `goal`, itself included."""
    found = {goal}
    queue = deque(found)
    while queue:
        theta = queue.popleft()
        for rid in m.delta_c:
            for pred in solve_predecessor_phases(theta, rid, m.rules[rid]):
                if pred not in found:
                    found.add(pred)
                    queue.append(pred)
    return found


def _step(aut, states, g):
    """The states reached from the eps-closed set `states` by one `g`,
    eps moves free: the union of the public `reach_states` of each."""
    return frozenset().union(*(aut.reach_states(q, (g,)) for q in states))


def _same_language(a, b):
    """`a` and `b` accept the same configurations: one subset construction
    run on both at once from every initial state of either."""
    symbols = sorted(a.alphabet | b.alphabet)
    todo = [(frozenset(a.reach_states(q, ())), frozenset(b.reach_states(q, ())))
            for q in a.initial_states() | b.initial_states()]
    seen = set(todo)
    while todo:
        sa, sb = todo.pop()
        if bool(sa & a.finals) != bool(sb & b.finals):
            return False
        for g in symbols:
            nxt = (_step(a, sa, g), _step(b, sb, g))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def test_prestar_stays_in_phases_that_reach_the_target_on_the_translated_family():
    """Each initial state of the result lies in a phase from which modifying
    rules lead to the target's phase, and the result accepts what direct
    pre* accepts."""
    for params in TRANSLATED_FAMILY:
        inst = generate(GenParams(*params[:4], seed=params[4]))
        m = inst.smpds
        pds = to_pds(m, phase_closure(m, [inst.initial.phase, inst.target.phase]))
        got = pds_prestar(pds, from_configs(m, [inst.target]))
        reaching = _phases_reaching(m, inst.target.phase)
        assert {q.phase for q in got.initial_states()} <= reaching, params
        assert _same_language(got, prestar(m, from_configs(m, [inst.target]))), params
