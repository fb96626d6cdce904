import sys

import pytest
from hypothesis import given, settings, strategies as st

from smpds import (
    Configuration,
    PdsRule,
    Phase,
    SelfModRule,
    SMPDS,
    from_configs,
    phase_closure,
    to_pds,
)
from smpds.bench import GenParams, generate
from smpds.poststar import poststar
from smpds.prestar import prestar
from smpds.translate import pds_poststar

from classical_reference import reference_pds_poststar
from fixtures import (POST_FANOUT_FAMILY, push_loop_example, swap_example,
                      wide_enable_example)
from oracles import raw_reach


def test_poststar_push_loop_fixture():
    """Frozen successor set derived with the reference interpreter."""
    m, th0, th1, c0 = push_loop_example()
    sat = poststar(m, from_configs(m, [c0]))
    expected = {
        ("p0", ("g0",), th0),
        ("p1", ("g1", "g0"), th0),
        ("p1", ("g1", "g0"), th1),
        ("p2", ("g2", "g1", "g0"), th0),
        ("p2", ("g2", "g1", "g0"), th1),
        ("p3", ("g0", "g1", "g0"), th0),
        ("p4", ("g0", "g1", "g0"), th1),
        ("p4", ("g1", "g1", "g0"), th1),
    }
    got = sat.enumerate_configs(4)
    assert got == {Configuration(s, w, th) for s, w, th in expected}


def test_poststar_swap_example_endpoints():
    m, theta0, theta1, c0 = swap_example()
    sat = poststar(m, from_configs(m, [c0]))
    assert sat.accepts(c0)
    assert sat.accepts(Configuration("p3", ("g3", "g1"), theta1))
    assert not sat.accepts(Configuration("p3", ("g3", "g1"), theta0))
    assert not sat.accepts(Configuration("p3", ("g3", "g3"), theta1))


def test_poststar_does_not_mutate_input():
    m, theta0, theta1, c0 = swap_example()
    aut = from_configs(m, [c0])
    before = set(aut.transitions)
    poststar(m, aut)
    assert aut.transitions == before


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("direction", ["pre", "post"])
def test_long_empty_stack_chain_needs_no_recursion(direction):
    """3000 modifying rules s_i --(0,0)--> s_{i+1} on an empty stack, and
    a rule s0 g -> s3000 g^3000 whose word pre* follows along a
    3000-symbol target stack, run with 100 frames to spare."""
    n = 3000
    rules = {0: PdsRule("s0", "g", "s0", ("g",)),
             n + 1: PdsRule("s0", "g", f"s{n}", ("g",) * n)}
    for i in range(n):
        rules[i + 1] = SelfModRule(f"s{i}", 0, 0, f"s{i + 1}")
    m = SMPDS({f"s{i}" for i in range(n + 1)}, {"g"}, rules)
    theta = m.all_rules_phase()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        if direction == "post":
            sat = poststar(m, from_configs(m, [Configuration("s0", (), theta)]))
        else:
            sat = prestar(m, from_configs(m, [Configuration(f"s{n}", (), theta),
                                              Configuration(f"s{n}", ("g",) * n, theta)]))
    finally:
        sys.setrecursionlimit(limit)
    inits = sat.initial_states()
    assert len(inits) == n + 1
    assert inits <= sat.finals
    if direction == "pre":
        # <s0, g> pushes the whole target stack; <s0, g g> reaches none
        assert sat.accepts(Configuration("s0", ("g",), theta))
        assert not sat.accepts(Configuration("s0", ("g", "g"), theta))
        assert sat.accepts(Configuration("s0", ("g",) * n, theta))


def test_poststar_idempotent():
    m, th0, th1, c0 = push_loop_example()
    once = poststar(m, from_configs(m, [c0]))
    twice = poststar(m, once)
    assert twice.transitions == once.transitions
    assert twice.finals == once.finals


def test_poststar_takes_pushes_of_any_length():
    # rule 0 pushes three symbols, which rule 1 pops one by one
    rules = {0: PdsRule("p", "a", "q", ("a", "a", "a")),
             1: PdsRule("q", "a", "q", ())}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    c0 = Configuration("p", ("a",), Phase.of(rules))
    reach, truncated = raw_reach(m, c0, 3, 1000)
    assert not truncated
    assert Configuration("q", ("a", "a", "a"), Phase.of(rules)) in reach
    sat = poststar(m, from_configs(m, [c0]))
    assert set(sat.enumerate_configs(4)) == reach


def test_poststar_four_symbol_push_with_a_swap_matches_the_oracle():
    # rule 0 pushes four symbols and smrule 3 swaps it out for rule 1
    rules = {
        0: PdsRule("p", "a", "p", ("b", "a", "b", "a")),
        1: PdsRule("p", "b", "q", ()),
        2: PdsRule("q", "a", "p", ()),
        3: SelfModRule("q", 0, 1, "p"),
    }
    m = SMPDS({"p", "q"}, {"a", "b"}, rules)
    c0 = Configuration("p", ("a",), Phase.of([0, 1, 2, 3]))
    reach, truncated = raw_reach(m, c0, 8, 50000)
    assert not truncated
    sat = poststar(m, from_configs(m, [c0]))
    assert set(sat.enumerate_configs(8)) == reach


def test_poststar_reaches_a_push_that_a_modifying_rule_enables():
    m, c0, target = wide_enable_example()
    reach, truncated = raw_reach(m, c0, 5, 1000)
    assert not truncated and target in reach
    sat = poststar(m, from_configs(m, [c0]))
    assert sat.accepts(target)
    assert set(sat.enumerate_configs(5)) == reach


def test_poststar_saturates_self_removing_rules():
    # smrule 0 removes itself and adds itself back, so it loops on every
    # phase that holds it; rule 1 pops
    rules = {0: SelfModRule("p", 0, 0, "p"), 1: PdsRule("p", "a", "p", ())}
    m = SMPDS({"p"}, {"a"}, rules)
    c0 = Configuration("p", ("a",), Phase.of([0, 1]))
    reach, truncated = raw_reach(m, c0, 3, 1000)
    assert not truncated
    sat = poststar(m, from_configs(m, [c0]))
    assert set(sat.enumerate_configs(3)) == reach


def test_both_poststar_entry_points_keep_colon_names_apart():
    """The pushes 'a:b c' and 'a b d' into q would both pass through the
    state after the prefix 'a:b' if post* named that state by joining the
    prefix with ':', and (<q, a:b d>, {0,1}), which no run reaches, would
    be accepted.  The prefixes ('a:b',) and ('a', 'b') are two states, so
    both entry points accept exactly what the oracle reaches."""
    rules = {0: PdsRule("p", "s", "q", ("a:b", "c")),
             1: PdsRule("p", "t", "q", ("a", "b", "d"))}
    m = SMPDS({"p", "q"}, {"s", "t", "a", "b", "c", "d", "a:b"}, rules)
    theta = Phase.of([0, 1])
    starts = [Configuration("p", ("s",), theta), Configuration("p", ("t",), theta)]
    reach = set()
    for c in starts:
        found, truncated = raw_reach(m, c, 3, 100)
        assert not truncated
        reach |= found
    aut = from_configs(m, starts)
    pds = to_pds(m, phase_closure(m, [theta]))
    for post in (poststar(m, aut), pds_poststar(pds, aut)):
        assert not post.accepts(Configuration("q", ("a:b", "d"), theta))
        assert post.enumerate_configs(3) == reach


@st.composite
def colon_named_systems(draw):
    """A small `bench.generate` system and its initial configuration, with
    every control point p renamed f:p and every symbol g a:g.  Where a
    push of three symbols x y z and another push of two or more go to one
    control point, the other push's first symbol is renamed after x and y
    joined with ':' (a:g0:a:g1), so that a post* which named a prefix by
    joining its symbols would let the two pushes meet in one state."""
    inst = generate(GenParams(num_states=draw(st.integers(1, 3)),
                              num_symbols=draw(st.integers(2, 4)),
                              num_rules=draw(st.integers(1, 8)),
                              num_smrules=draw(st.integers(0, 2)),
                              max_rhs_len=3,
                              seed=draw(st.integers(0, 10**6))))
    m, c0 = inst.smpds, inst.initial
    state = {p: f"f:{p}" for p in m.states}
    symbol = {g: f"a:{g}" for g in m.alphabet}
    pushes = [r for r in m.rules.values()
              if isinstance(r, PdsRule) and len(r.rhs_word) >= 2]
    meets = [(r.rhs_word, s.rhs_word[0]) for r in pushes for s in pushes
             if len(r.rhs_word) == 3 and r.rhs_state == s.rhs_state
             and s.rhs_word[0] not in r.rhs_word[:2]]
    if meets:
        (x, y, _), g = draw(st.sampled_from(meets))
        symbol[g] = f"{symbol[x]}:{symbol[y]}"

    def word(w):
        return tuple(map(symbol.__getitem__, w))

    rules = {rid: PdsRule(state[r.lhs_state], symbol[r.lhs_symbol],
                          state[r.rhs_state], word(r.rhs_word))
             if isinstance(r, PdsRule) else
             r._replace(from_state=state[r.from_state], to_state=state[r.to_state])
             for rid, r in m.rules.items()}
    renamed = SMPDS(set(state.values()), set(symbol.values()), rules)
    return renamed, Configuration(state[c0.state], word(c0.stack), c0.phase)


@given(colon_named_systems(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_names_that_hold_colons_saturate_as_the_oracle_runs(system, rng):
    """Direct pre* and post*, and classical post*, give the oracle's
    answers up to stack depth 3 on systems whose names hold ':'.  Where
    the oracle hit its bound, a configuration that post* accepts and the
    oracle did not reach must have the initial one in its pre*, which
    builds no generated state."""
    m, c0 = system
    reach, truncated = raw_reach(m, c0, 3, 2000)
    post = poststar(m, from_configs(m, [c0]))
    for c in reach:
        assert post.accepts(c), c
    configs = post.enumerate_configs(3)
    for c in configs - reach:
        assert truncated and prestar(m, from_configs(m, [c])).accepts(c0), c
    # the paired PDS fires no modifying rule on an empty stack, and no run
    # between nonempty stacks passes through one
    ppost = pds_poststar(to_pds(m, phase_closure(m, [c0.phase])), from_configs(m, [c0]))
    assert ({c for c in ppost.enumerate_configs(3) if c.stack}
            == {c for c in configs if c.stack})
    target = rng.choice(sorted(reach, key=repr))
    pre = prestar(m, from_configs(m, [target]))
    for c in reach:
        fwd, t2 = raw_reach(m, c, 3, 2000)
        if target in fwd or not t2:
            assert pre.accepts(c) == (target in fwd), (c, target)


def test_poststar_empty_stack_smrule_successors():
    # an smrule fires on the empty stack, so (q, eps) succeeds (p, eps)
    rules = {0: SelfModRule("p", 1, 1, "q"), 1: PdsRule("q", "a", "q", ("a",))}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    th = Phase.of([0, 1])
    sat = poststar(m, from_configs(m, [Configuration("p", (), th)]))
    assert sat.accepts(Configuration("q", (), th))
    assert not sat.accepts(Configuration("q", ("a",), th))


def test_poststar_pop_then_continue():
    # after a pop empties the stack, an smrule can still fire
    rules = {
        0: PdsRule("p", "a", "q", ()),
        1: SelfModRule("q", 0, 0, "r"),
    }
    m = SMPDS({"p", "q", "r"}, {"a"}, rules)
    th = Phase.of([0, 1])
    sat = poststar(m, from_configs(m, [Configuration("p", ("a",), th)]))
    assert sat.accepts(Configuration("q", (), th))
    assert sat.accepts(Configuration("r", (), th))


@pytest.mark.parametrize("seed", range(30))
def test_poststar_agrees_with_interpreter(seed):
    inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=5,
                              num_smrules=2, seed=2000 + seed))
    m, c0 = inst.smpds, inst.initial
    reach, truncated = raw_reach(m, c0, 5, 8000)
    sat = poststar(m, from_configs(m, [c0]))
    # what the oracle reached is reachable, even where it hit its bound
    for c in reach:
        assert sat.accepts(c), c
    if not truncated:
        for c in sat.enumerate_configs(4):
            assert c in reach, c


@pytest.mark.parametrize("params", POST_FANOUT_FAMILY,
                         ids=lambda p: "-".join(map(str, p)))
def test_poststar_matches_the_reference_at_benchmark_size(params):
    """Direct post* from the initial configuration builds the same
    states, finals and transitions as the per-transition classical
    reference on the paired PDS of the phases reachable from it."""
    inst = generate(GenParams(*params[:4], seed=params[4]))
    m, initial = inst.smpds, inst.initial
    got = poststar(m, from_configs(m, [initial]))
    pds = to_pds(m, phase_closure(m, [initial.phase]))
    want = reference_pds_poststar(pds, from_configs(m, [initial]))
    assert got.states == want.states and got.finals == want.finals
    # full size: thousands of transitions per instance
    assert len(want.transitions) > 1000
    assert got.transitions == want.transitions
