"""The classical pre*/post* of `smpds.translate` against per-transition
reference versions.

`_reference_pds_prestar` and `_reference_pds_poststar` are the saturations
as they were before states were interned once per call and both moved
whole target sets through the shared `DeltaWorklist`: one worklist entry
per transition, each inserted with `add_transition`, and rules indexed by
(control, phase, symbol).  They share no code with the saturations they
check.  `_reference_to_pds` is `to_pds` as it was before paired states
were shared.  The current functions must build the same rule list and,
for post*, exactly the same automaton (states, finals and transitions).
Classical pre* is goal-directed and builds the reference's useful part:
the transitions whose target reaches a final state, the same finals, and
as states the input's plus the endpoints of its transitions.
"""

import random
from collections import deque

from smpds import (from_configs, pds_poststar, pds_prestar, phase_closure,
                   prestar, to_pds)
from smpds.automaton import EPS, Generated, Initial, PAutomaton, Plain
from smpds.bench import GenParams, generate
from smpds.model import Phase, PdsRule, solve_predecessor_phases
from smpds.translate import PDS, PairedRule

from oracles import raw_reach
from test_acceptance import CORPUS_SIZE, ORACLE_STACK, ORACLE_STEPS, _corpus_draw

# the pool of the `translated` benchmark workload: (states, symbols,
# rules, modifying rules, seed), drawn at full size
TRANSLATED_FAMILY = [(8, 8, 60, 4, 3), (8, 8, 67, 4, 4), (8, 8, 74, 4, 5),
                     (8, 8, 60, 4, 6), (8, 8, 67, 4, 7), (8, 8, 60, 4, 9),
                     (8, 8, 67, 4, 10), (8, 8, 60, 4, 12)]


def _reference_to_pds(smpds, phases):
    phase_set = set(phases)
    rules = []
    gammas = sorted(smpds.alphabet)
    for theta in sorted(phase_set, key=tuple):
        for rid in theta:
            r = smpds.rules.get(rid)
            if r is None:
                continue
            if isinstance(r, PdsRule):
                rules.append(((r.lhs_state, theta), r.lhs_symbol,
                              (r.rhs_state, theta), r.rhs_word))
            elif r.removed in theta:
                theta2 = theta.update(r.removed, r.added)
                for g in gammas:
                    rules.append(((r.from_state, theta), g,
                                  (r.to_state, theta2), (g,)))
    return rules


def _reference_pds_prestar(pds, aut):
    result = aut.copy()
    one_rules = {}
    two_rules = {}
    worklist = deque(result.transitions)
    pending = {}
    out_index = {}

    def add(src, label, dst):
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    for r in pds.rules:
        lhs = Initial(*r.lhs_state)
        if len(r.rhs_word) == 0:
            add(lhs, r.lhs_symbol, Initial(*r.rhs_state))
        elif len(r.rhs_word) == 1:
            one_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol))
        else:
            two_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol, r.rhs_word[1]))
    while worklist:
        src, label, dst = worklist.popleft()
        out_index.setdefault((src, label), set()).add(dst)
        for wsrc, wlabel in pending.get((src, label), set()):
            add(wsrc, wlabel, dst)
        if isinstance(src, Initial):
            key = (src.control, src.phase, label)
            for lhs, symbol in one_rules.get(key, ()):
                add(lhs, symbol, dst)
            for lhs, symbol, second in two_rules.get(key, ()):
                pending.setdefault((dst, second), set()).add((lhs, symbol))
                for d2 in out_index.get((dst, second), ()):
                    add(lhs, symbol, d2)
    return result


def _reference_pds_poststar(pds, aut):
    result = aut.copy()
    by_lhs = {}
    for r in pds.rules:
        by_lhs.setdefault((*r.lhs_state, r.lhs_symbol), []).append(r)
    worklist = deque(result.transitions)
    facts = {}
    eps_into = {}

    def add(src, label, dst):
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    def new_fact(init, symbol, q):
        key = (init.control, init.phase, symbol)
        known = facts.setdefault(key, set())
        if q in known:
            return
        known.add(q)
        for r in by_lhs.get(key, ()):
            src = Initial(*r.rhs_state)
            if len(r.rhs_word) == 0:
                add(src, EPS, q)
            elif len(r.rhs_word) == 1:
                add(src, r.rhs_word[0], q)
            else:
                gen = Generated(src.control, r.rhs_word[0], src.phase)
                add(src, r.rhs_word[0], gen)
                add(gen, r.rhs_word[1], q)

    while worklist:
        src, label, dst = worklist.popleft()
        if isinstance(src, Initial):
            if label is EPS:
                eps_into.setdefault(dst, set()).add(src)
                for symbol, targets in list(result._out.get(dst, {}).items()):
                    if symbol is not EPS:
                        for q in list(targets):
                            new_fact(src, symbol, q)
            else:
                new_fact(src, label, dst)
        else:
            for init in list(eps_into.get(src, ())):
                new_fact(init, label, dst)
    return result


def _same_automaton(got, want):
    return (got.states == want.states and got.finals == want.finals
            and got.transitions == want.transitions)


def _useful(aut):
    """The transitions of `aut` whose target reaches a final state."""
    transitions = aut.transitions
    into = {}
    for src, _, dst in transitions:
        into.setdefault(dst, []).append(src)
    alive = set(aut.finals)
    stack = list(alive)
    while stack:
        for src in into.get(stack.pop(), ()):
            if src not in alive:
                alive.add(src)
                stack.append(src)
    return {t for t in transitions if t[2] in alive}


def _same_useful_part(got, want, aut):
    """`got` is `want` trimmed to its useful transitions, over the states
    of the input `aut` and of those transitions."""
    ends = {q for src, _, dst in got.transitions for q in (src, dst)}
    return (got.transitions == _useful(want) and got.finals == want.finals
            and got.states == aut.states | ends)


def _check_instance(inst):
    """Both saturations and the rule list agree with the references on one
    instance; returns the number of transitions compared."""
    m = inst.smpds
    phases = phase_closure(m, [inst.initial.phase, inst.target.phase])
    pds = to_pds(m, phases)
    assert [(r.lhs_state, r.lhs_symbol, r.rhs_state, r.rhs_word)
            for r in pds.rules] == _reference_to_pds(m, phases)
    aut = from_configs(m, [inst.target])
    got, want = pds_prestar(pds, aut), _reference_pds_prestar(pds, aut)
    assert _same_useful_part(got, want, aut)
    compared = len(want.transitions)
    aut = from_configs(m, [inst.initial])
    got, want = pds_poststar(pds, aut), _reference_pds_poststar(pds, aut)
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
        want = _reference_pds_prestar(pds, aut)
        assert _useful(want) <= got.transitions <= want.transitions, seed
        assert aut.transitions <= got.transitions, seed
        assert got.finals == want.finals, seed
        assert got.enumerate_configs(3) == want.enumerate_configs(3), seed
        trimmed += len(got.transitions) < len(want.transitions)
    # the goal-direction drops transitions on a good share of the draws
    assert trimmed > 100


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
            nxt = (frozenset(a._step(sa, g)), frozenset(b._step(sb, g)))
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
