"""The classical pre*/post* of `smpds.translate` against per-transition
reference versions.

`_reference_pds_prestar` and `_reference_pds_poststar` are the saturations
as they were before states were interned once per call and both moved
whole target sets through the shared `DeltaWorklist`: one worklist entry
per transition, each inserted with `add_transition`, and rules indexed by
(control, phase, symbol).  They share no code with the saturations they
check.  `_reference_to_pds` is `to_pds` as it was before paired states
were shared.  The current functions must build exactly the same automata
(states, finals and transitions) and the same rule list.
"""

from collections import deque

from smpds import from_configs, pds_poststar, pds_prestar, phase_closure, to_pds
from smpds.automaton import EPS, Generated, Initial
from smpds.bench import GenParams, generate
from smpds.model import PdsRule

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


def _check_instance(inst):
    """Both saturations and the rule list agree with the references on one
    instance; returns the number of transitions compared."""
    m = inst.smpds
    phases = phase_closure(m, [inst.initial.phase, inst.target.phase])
    pds = to_pds(m, phases)
    assert [(r.lhs_state, r.lhs_symbol, r.rhs_state, r.rhs_word)
            for r in pds.rules] == _reference_to_pds(m, phases)
    compared = 0
    for new, reference, c in ((pds_prestar, _reference_pds_prestar, inst.target),
                              (pds_poststar, _reference_pds_poststar, inst.initial)):
        got = new(pds, from_configs(m, [c]))
        want = reference(pds, from_configs(m, [c]))
        assert _same_automaton(got, want), new.__name__
        compared += len(want.transitions)
    return compared


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
