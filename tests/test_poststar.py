import pytest

from smpds import (
    Configuration,
    PdsRule,
    Phase,
    SelfModRule,
    SMPDS,
    from_configs,
    pds_poststar,
    phase_closure,
    poststar,
    to_pds,
)
from smpds.bench import GenParams, generate

from fixtures import push_loop_example, swap_example, wide_enable_example
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


def test_poststar_long_empty_stack_chain_needs_no_recursion():
    """3000 modifying rules s_i --(0,0)--> s_{i+1} from an empty stack."""
    n = 3000
    rules = {0: PdsRule("s0", "g", "s0", ("g",))}
    for i in range(n):
        rules[i + 1] = SelfModRule(f"s{i}", 0, 0, f"s{i + 1}")
    m = SMPDS({f"s{i}" for i in range(n + 1)}, {"g"}, rules)
    theta = m.all_rules_phase()
    sat = poststar(m, from_configs(m, [Configuration("s0", (), theta)]))
    inits = sat.initial_states()
    assert len(inits) == n + 1
    assert inits <= sat.finals


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


def test_both_poststar_entry_points_refuse_colon_names():
    """The pushes 'a:b c' and 'a b d' into q both pass through the state
    after the prefix 'a:b', so a post* that took the names as they are
    would accept the unreachable (<q, a:b d>, {0,1}).  Both entry points
    raise with `validate`'s text instead."""
    rules = {0: PdsRule("p", "s", "q", ("a:b", "c")),
             1: PdsRule("p", "t", "q", ("a", "b", "d"))}
    m = SMPDS({"p", "q"}, {"s", "t", "a", "b", "c", "d", "a:b"}, rules)
    theta = Phase.of([0, 1])
    aut = from_configs(m, [Configuration("p", ("s",), theta),
                           Configuration("p", ("t",), theta)])
    with pytest.raises(ValueError, match="^symbol 'a:b' holds ':'$"):
        poststar(m, aut)
    with pytest.raises(ValueError, match="^symbol 'a:b' holds ':'$"):
        pds_poststar(to_pds(m, phase_closure(m, [theta])), aut)
    named = SMPDS({"p", "q", "r:s"}, {"s", "t", "a", "b", "c", "d"},
                  {1: rules[1]})
    with pytest.raises(ValueError, match="^state 'r:s' holds ':'$"):
        poststar(named, from_configs(named, [Configuration("p", ("t",), theta)]))


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
    if truncated:
        pytest.skip("interpreter bound hit")
    sat = poststar(m, from_configs(m, [c0]))
    for c in reach:
        assert sat.accepts(c), c
    for c in sat.enumerate_configs(4):
        assert c in reach, c
