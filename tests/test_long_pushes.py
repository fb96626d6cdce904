"""Rules that push more than two symbols, saturated as they are.

pre* follows a pushed word along the automaton one symbol at a time, and
post* adds one generated state per pushed prefix.  The systems here are
drawn by `bench.generate` with words of up to four symbols, and each is
checked three ways: both directions against the brute-force oracle, pre*
on inputs with eps edges (a post* result) and with an empty stack, and
the classical route (`phase_closure`, `to_pds`, `pds_prestar`,
`pds_poststar`) against the direct cores on nonempty stacks.
"""

import random

from smpds import (
    Configuration,
    PdsRule,
    Phase,
    SMPDS,
    from_configs,
    pds_poststar,
    pds_prestar,
    phase_closure,
    poststar,
    prestar,
    to_pds,
)
from smpds.automaton import Generated
from smpds.bench import GenParams, generate
from smpds.formats import SmpdsDocument, parse_automaton, print_automaton

from oracles import raw_reach

SYSTEMS = 300
DEPTH = 4
ORACLE_STACK = 7
ORACLE_STEPS = 4000


def _draw(seed):
    """A system, its random stream, and a start at the left side of one of
    its wide rules, if it has one."""
    rng = random.Random(seed)
    params = GenParams(num_states=rng.randint(2, 5), num_symbols=rng.randint(2, 5),
                       num_rules=rng.randint(2, 12), num_smrules=rng.randint(0, 4),
                       max_rhs_len=4, seed=seed)
    inst = generate(params)
    m = inst.smpds
    plain = [m.rules[rid] for rid in sorted(m.delta)]
    r = rng.choice([r for r in plain if len(r.rhs_word) > 2] or plain)
    c0 = Configuration(r.lhs_state, (r.lhs_symbol, *inst.initial.stack[1:]),
                       inst.initial.phase)
    return rng, inst, c0


def _reach(m, c):
    reach, truncated = raw_reach(m, c, ORACLE_STACK, ORACLE_STEPS)
    return None if truncated else reach


def _nonempty(aut, depth):
    return {c for c in aut.enumerate_configs(depth) if c.stack}


def test_long_pushes_agree_with_the_oracle_and_across_routes():
    checked = pushed = 0
    for seed in range(20 * SYSTEMS):
        if checked == SYSTEMS:
            break
        rng, inst, c0 = _draw(seed)
        m = inst.smpds
        reach = _reach(m, c0)
        if reach is None:
            continue
        checked += 1
        # a stack four deep was reached from a start one or two deep
        pushed += any(len(c.stack) >= 4 for c in reach)
        post = poststar(m, from_configs(m, [c0]))
        assert set(post.enumerate_configs(DEPTH)) == {
            c for c in reach if len(c.stack) <= DEPTH}, seed
        # targets the start reaches, the generated target and an empty
        # stack, each probed from every configuration the start reaches,
        # whose own reach is a part of the start's
        probes = {c: _reach(m, c) for c in reach}
        phases = sorted({c.phase for c in reach}, key=repr)
        targets = rng.sample(sorted(reach, key=repr), min(2, len(reach)))
        targets += [inst.target, Configuration(rng.choice(sorted(m.states)), (),
                                               rng.choice(phases))]
        for t in targets:
            pre = prestar(m, from_configs(m, [t]))
            for c, c_reach in probes.items():
                assert pre.accepts(c) == (t in c_reach), (seed, t, c)
        # pre* of post*: an input with eps edges and generated states
        back = prestar(m, post)
        assert all(map(back.accepts, reach)), seed
        for t in targets:
            t_reach = _reach(m, t)
            if t_reach is not None:
                assert back.accepts(t) == (not t_reach.isdisjoint(reach)), (seed, t)
        # the classical route runs the same cores on the paired rules
        pds = to_pds(m, phase_closure(m, [c0.phase, inst.target.phase]))
        for direct, classical, c in ((prestar, pds_prestar, inst.target),
                                     (poststar, pds_poststar, c0)):
            assert (_nonempty(classical(pds, from_configs(m, [c])), 3)
                    == _nonempty(direct(m, from_configs(m, [c])), 3)), (
                        seed, direct.__name__)
    assert checked == SYSTEMS
    assert pushed >= SYSTEMS * 3 // 4


def test_push_depth_is_not_stack_depth():
    # a push of 1,000 symbols: both cores follow the word with loops, and
    # the post* result, whose generated states spell their prefixes,
    # prints and reads back
    n = 1000
    word = tuple(f"g{i % 7}" for i in range(n))
    m = SMPDS({"p", "q"}, {f"g{i}" for i in range(7)} | {"a"},
              {0: PdsRule("p", "a", "q", word)})
    th = Phase.of([0])
    c0 = Configuration("p", ("a",), th)
    target = Configuration("q", word, th)
    post = poststar(m, from_configs(m, [c0]))
    assert post.accepts(target)
    assert not post.accepts(Configuration("q", word[:-1], th))
    assert Generated("q", ":".join(word[:n - 1]), th) in post.states
    assert prestar(m, from_configs(m, [target])).accepts(c0)
    doc = SmpdsDocument(m, {"th": th})
    back = parse_automaton(print_automaton(post, doc), doc)
    assert back.transitions == post.transitions and back.finals == post.finals
