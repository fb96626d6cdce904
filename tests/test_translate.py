import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from smpds import (
    Configuration,
    Initial,
    PdsRule,
    Phase,
    Plain,
    SelfModRule,
    SMPDS,
    from_configs,
    phase_closure,
    to_pds,
)
from smpds import model, translate
from smpds.bench import GenParams, generate
from smpds.formats import SmpdsDocument, parse_automaton, parse_smpds, print_symbolic_pds
from smpds.model import step
from smpds.poststar import poststar
from smpds.prestar import prestar
from smpds.translate import (
    PDS,
    config_to_pds,
    pds_accepts,
    pds_from_configs,
    pds_poststar,
    pds_prestar,
)

from classical_reference import (pds_step, reference_pds_poststar,
                                 reference_pds_prestar, reference_phase_closure,
                                 reference_to_pds, solve_predecessor_phases,
                                 symbolic_step)
from fixtures import POST_FANOUT_FAMILY, TRANSLATED_FAMILY, swap_example
from oracles import raw_reach
from test_acceptance import _corpus_draw
from test_classical_reference import _corpus_draw_seeds

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = Path(__file__).parent.parent / "samples"


def test_phase_closure_contains_seeds_and_successors():
    m, theta0, theta1, _ = swap_example()
    closed = phase_closure(m, [theta0])
    assert theta0 in closed and theta1 in closed


def test_phase_closure_backward():
    m, theta0, theta1, _ = swap_example()
    closed = phase_closure(m, [theta1])
    assert theta0 in closed


def test_to_pds_requires_closed_set():
    m, theta0, theta1, _ = swap_example()
    with pytest.raises(ValueError, match="closed"):
        to_pds(m, [theta0])


def test_to_pds_rule_shape():
    m, theta0, theta1, _ = swap_example()
    pds = to_pds(m, phase_closure(m, [theta0]))
    # the modifying rule becomes one paired rule per stack symbol
    paired = [r for r in pds.rules
              if r.lhs_state == ("p3", theta0) and r.rhs_state[0] == "p4"]
    assert {r.lhs_symbol for r in paired} == set(m.alphabet)
    for r in paired:
        assert r.rhs_word == (r.lhs_symbol,)
        assert r.rhs_state[1] is theta1


def test_to_pds_emits_phases_in_sorted_member_order():
    rules = {0: PdsRule("p", "a", "p", ()), 5: PdsRule("p", "a", "p", ()),
             -3: PdsRule("p", "a", "p", ()), 10**12: PdsRule("p", "a", "p", ())}
    m = SMPDS({"p"}, {"a"}, rules)
    phases = [Phase.of(ids) for ids in
              ([5, 10**12], [-3], [0, 5], [-3, 0], [0], [10**12])]
    pds = to_pds(m, phase_closure(m, reversed(phases)))
    order = []
    for r in pds.rules:
        if not order or order[-1] is not r.lhs_state[1]:
            order.append(r.lhs_state[1])
    assert [tuple(ph) for ph in order] == sorted(tuple(ph) for ph in phases)


def _count_builds(pds):
    """The phases that `pds.rules._build` is called on from here on, in
    order."""
    calls = []
    build = pds.rules._build

    def counted(theta):
        calls.append(theta)
        return build(theta)

    pds.rules._build = counted
    return calls


def _check_rule_list(m, phases):
    """On the closure `phases`: `len(pds.rules)` counts without building a
    phase, and equals the number of rules that iterating builds, one phase
    at a time in `reference_to_pds`'s order."""
    pds = to_pds(m, phases)
    built = _count_builds(pds)
    count = len(pds.rules)
    assert not built
    rules = [tuple(r) for r in pds.rules]
    assert count == len(rules)
    assert rules == reference_to_pds(m, phases)
    assert built == sorted(phases, key=tuple)


def test_rule_count_and_order_on_every_corpus_draw():
    """Also on the closures of the `translated` and `post_fanout` pool
    instances, of 31-189 phases each."""
    instances = [_corpus_draw(seed)[1] for seed in _corpus_draw_seeds()]
    instances += [generate(GenParams(*params[:4], seed=params[4]))
                  for params in TRANSLATED_FAMILY + POST_FANOUT_FAMILY]
    for inst in instances:
        m = inst.smpds
        _check_rule_list(m, phase_closure(m, [inst.initial.phase,
                                              inst.target.phase]))


def test_rule_count_on_closures_of_random_seeds():
    """On every corpus draw, the closure of 1-4 random phases over the
    draw's rule ids: the count, summed over the seeds' closures, which lie
    apart on at least half of the draws, is the count of the rules
    built."""
    draws = _corpus_draw_seeds()
    apart = 0
    for seed in draws:
        m = _corpus_draw(seed)[1].smpds
        rng = random.Random(seed)
        ids = sorted(m.rules)
        seeds = [Phase.of(rng.sample(ids, rng.randint(0, len(ids))))
                 for _ in range(rng.randint(1, 4))]
        apart += len({frozenset(phase_closure(m, [theta])) for theta in seeds}) > 1
        _check_rule_list(m, phase_closure(m, seeds))
    assert apart >= len(draws) // 2


# (modifying rule 2 of `_hand_model`, the seed phase's ids)
HAND_CASES = pytest.mark.parametrize("smrule, ids", [
    (SelfModRule("p", 2, 1, "q"), [0, 2]),     # removes itself
    (SelfModRule("p", 1, 1, "q"), [0, 1, 2]),  # removed == added
    (SelfModRule("p", 3, 1, "q"), [0, 2]),     # removed rule not in the phase
    (SelfModRule("p", 1, 0, "q"), [1, 2]),     # a phase with no plain rule
    (SelfModRule("p", 0, 1, "q"), [0, 2, 7]),  # an id that names no rule
    (SelfModRule("p", 9, 3, "q"), [0, 2, 3]),  # removes an id no seed holds
    (SelfModRule("p", 0, 9, "q"), [0, 2]),     # adds an id that names no rule
    (SelfModRule("p", 10**12, -7, "q"), [0, 2, -7]),  # sparse ids
    (SelfModRule("p", 3, 1, "q"), [0, 1]),     # the rule itself not in the phase
    (SelfModRule("p", 3, 2, "q"), [0, 2]),     # adds itself
], ids=["self-removing", "removed-is-added", "removed-absent", "no-plain-rule",
        "unknown-id", "removed-unseen", "added-unknown", "sparse-ids",
        "rule-absent", "adds-itself"])


def _hand_model(smrule):
    return SMPDS({"p", "q"}, {"a", "b"},
                 {0: PdsRule("p", "a", "q", ("b", "a")),
                  1: SelfModRule("q", 0, 0, "p"), 2: smrule,
                  3: PdsRule("q", "b", "p", ())})


@HAND_CASES
def test_rule_count_and_order_on_hand_cases(smrule, ids):
    m = _hand_model(smrule)
    _check_rule_list(m, phase_closure(m, [Phase.of(ids)]))


def _check_mod_moves(m, seeds):
    """At every phase of the closure and every control point, the moves of
    `mod_successors` are those of `Phase.update`, and the moves of
    `mod_predecessors` those of `solve_predecessor_phases`, each as often.
    Rule membership is read from the decoded ids, not from the masks."""
    smrules = [(rid, m.rules[rid]) for rid in sorted(m.delta_c)]
    for theta in phase_closure(m, seeds):
        ids = set(theta)
        for p in sorted(m.states):
            succ = [(r.to_state, theta.update(r.removed, r.added))
                    for rid, r in smrules
                    if r.from_state == p and {rid, r.removed} <= ids]
            pred = [(r.from_state, theta0) for rid, r in smrules if r.to_state == p
                    for theta0 in solve_predecessor_phases(theta, rid, r)]
            assert Counter(m.mod_successors(p, theta)) == Counter(succ), (theta, p)
            assert Counter(m.mod_predecessors(p, theta)) == Counter(pred), (theta, p)


@HAND_CASES
def test_mod_moves_match_the_references_on_hand_cases(smrule, ids):
    # modifying rule 1 of every hand model, q --(0, 0)--> p, has removed
    # == added: at p, each phase that holds rules 0 and 1 is its own
    # predecessor
    _check_mod_moves(_hand_model(smrule), [Phase.of(ids)])


def test_mod_moves_match_the_references_on_every_corpus_draw():
    for seed in _corpus_draw_seeds():
        inst = _corpus_draw(seed)[1]
        _check_mod_moves(inst.smpds, [inst.initial.phase, inst.target.phase])


def test_wide_closure_decodes_no_ids(monkeypatch):
    """The closure of the instance of acceptance criterion 7, a `pre_wide`
    benchmark model, 3^10 phases of about 1,000 ids, is searched, interned
    and counted on masks: no step decodes a phase into its ids, which
    every decode does through `model.mask_digits`.  The count is summed
    from the groups' parts."""
    inst = generate(GenParams(8, 8, 1009, 10, seed=123))
    seeds = {inst.initial.phase, inst.target.phase}
    decoded, mask_digits = [], model.mask_digits
    monkeypatch.setattr(model, "mask_digits",
                        lambda mask: decoded.append(mask) or mask_digits(mask))
    pds = to_pds(inst.smpds, phase_closure(inst.smpds, seeds))
    assert len(pds.phases) == 3 ** 10
    assert len(pds.rules) == 62_336_061
    assert decoded == []


def _spy_masks(monkeypatch):
    """The phases whose `mask` is read from here on.  Phases stay
    readable, but none can be made."""
    reads, slot = [], Phase.__dict__["mask"]

    def read(theta):
        reads.append(theta)
        return slot.__get__(theta, Phase)

    monkeypatch.setattr(Phase, "mask", property(read))
    return reads


def test_to_pds_takes_a_closure_of_its_own_system_as_it_is(monkeypatch):
    """`to_pds` reads no mask of a closure built for the same system, and
    refuses, with one message and reading no mask either, every other
    input: the same closure given with an equal system built apart, a set
    or frozenset of the closure's phases, and the closure less one
    phase."""
    inst = generate(GenParams(*TRANSLATED_FAMILY[0][:4], seed=TRANSLATED_FAMILY[0][4]))
    m = inst.smpds
    closure = phase_closure(m, [inst.initial.phase, inst.target.phase])
    assert isinstance(closure, translate.ClosedPhases) and closure.smpds is m
    twin = SMPDS(m.states, m.alphabet, m.rules)
    # a pickled closure comes back as the closure of the system pickled with it
    m2, closure2 = pickle.loads(pickle.dumps((m, closure)))
    assert (closure2, closure2.smpds, closure2.rule_count) == (closure, m2, closure.rule_count)
    assert isinstance(closure2, translate.ClosedPhases) and m2 is not m
    # a phase that a modifying rule leads to from another one
    theta = min((succ for theta0 in closure for p in sorted(m.states)
                 for _, succ in m.mod_successors(p, theta0) if succ is not theta0),
                key=tuple)
    rest = closure - {theta}
    assert type(rest) is frozenset
    reads = _spy_masks(monkeypatch)
    pds = to_pds(m, closure)
    assert pds.phases is closure and pds.smpds is m
    assert len(pds.rules) == closure.rule_count
    assert len(to_pds(m2, closure2).rules) == closure.rule_count
    for system, phases in ((twin, closure), (m, set(closure)),
                           (m, frozenset(closure)), (m, rest), (m2, closure)):
        with pytest.raises(ValueError, match="^to_pds takes the closed phase set "
                           "that phase_closure built for this system$"):
            to_pds(system, phases)
    assert reads == []


def _check_closure(m, seeds):
    """`phase_closure` equals the reference closure."""
    assert phase_closure(m, seeds) == reference_phase_closure(m, seeds)


@HAND_CASES
def test_phase_closure_matches_the_reference_on_hand_cases(smrule, ids):
    _check_closure(_hand_model(smrule), [Phase.of(ids)])


def test_phase_closure_matches_the_reference_on_draws_and_the_family():
    """On every corpus draw and every `translated` instance."""
    instances = [_corpus_draw(seed)[1] for seed in _corpus_draw_seeds()]
    instances += [generate(GenParams(*params[:4], seed=params[4]))
                  for params in TRANSLATED_FAMILY]
    for inst in instances:
        _check_closure(inst.smpds, [inst.initial.phase, inst.target.phase])


# rules 98 and 99 are plain, and no modifying rule of `grouped_systems`
# removes or adds them
_UNTOUCHED = (98, 99)


def _chain_example():
    """Modifying rules A = 1 and C = 4 share no id, and B = 7, after both
    in rule order, joins them: it removes 3, which A adds, and adds 5,
    which C removes."""
    rules = {1: SelfModRule("p", 2, 3, "q"), 4: SelfModRule("q", 5, 6, "p"),
             7: SelfModRule("p", 3, 5, "p")}
    rules.update((rid, PdsRule("p", "a", "q", ())) for rid in (2, 3, 5, 6, *_UNTOUCHED))
    return SMPDS({"p", "q"}, {"a"}, rules), [Phase.of({1, 2, 4, 7})]


@st.composite
def grouped_systems(draw):
    """A system whose modifying rules fall into clusters of ids, and 1-3
    seeds.  A rule removes and adds ids of its own cluster, itself and
    other modifying rules included, or now and then of another cluster,
    which chains the two.  Each seed after the first differs from the
    first only in rules no modifying rule touches, or lies in the first's
    closure, or is any phase."""
    rules = {rid: PdsRule("p", "a", "q", ()) for rid in _UNTOUCHED}
    clusters = [list(range(10 * k, 10 * k + 5)) for k in range(draw(st.integers(1, 3)))]
    every = [rid for ids in clusters for rid in ids]
    for ids in clusters:
        others = st.sampled_from(ids) | st.sampled_from(every)
        for rid in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                                 unique=True)):
            rules[rid] = SelfModRule(draw(st.sampled_from(["p", "q"])),
                                     draw(st.just(rid) | others), draw(others),
                                     draw(st.sampled_from(["p", "q"])))
    ids = draw(st.permutations(every))
    rules = {rid: rules.get(rid, PdsRule("q", "a", "p", ("a",)))
             for rid in [*ids, *_UNTOUCHED]}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    first = draw(st.sets(st.sampled_from(sorted(rules))))
    seeds = [Phase.of(first)]
    for kind in draw(st.lists(st.sampled_from(["outside", "inside", "any"]),
                              max_size=2)):
        if kind == "outside":
            flip = draw(st.sets(st.sampled_from(_UNTOUCHED), min_size=1))
            seeds.append(Phase.of(first ^ flip))
        elif kind == "inside":
            closure = sorted(reference_phase_closure(m, seeds[:1]), key=tuple)
            seeds.append(draw(st.sampled_from(closure)))
        else:
            seeds.append(Phase.of(draw(st.sets(st.sampled_from(sorted(rules))))))
    return m, seeds


@given(grouped_systems())
@example(_chain_example())
@settings(max_examples=300, deadline=None)
def test_phase_closure_is_the_product_of_its_groups(system):
    """The closure searched group by group, each group the modifying rules
    that share ids directly or through a chain, is the reference closure,
    which searches whole phases."""
    m, seeds = system
    assert phase_closure(m, seeds) == reference_phase_closure(m, seeds)


def test_saturations_build_no_paired_rule():
    """On the `translated` family, classical pre* and post* read the
    SM-PDS's moves and build no phase of the 81-phase closure, and their
    answers are those of an explicit PDS holding every paired rule."""
    for params in TRANSLATED_FAMILY:
        inst = generate(GenParams(*params[:4], seed=params[4]))
        m = inst.smpds
        phases = phase_closure(m, [inst.initial.phase, inst.target.phase])
        explicit = PDS([(p, theta) for p in m.states for theta in phases],
                       m.alphabet, to_pds(m, phases).rules)
        for route, c in ((pds_prestar, inst.target), (pds_poststar, inst.initial)):
            pds = to_pds(m, phases)
            built = _count_builds(pds)
            got = route(pds, from_configs(m, [c]))
            assert not built, (params, route.__name__)
            want = route(explicit, from_configs(m, [c]))
            assert (got.transitions, got.finals) == (want.transitions, want.finals)


def test_symbolic_size_formula():
    m, *_ = swap_example()
    lines = print_symbolic_pds(SmpdsDocument(m)).splitlines()
    assert len(lines) == len(m.delta) + len(m.delta_c) * len(m.alphabet)


def test_printed_relations_of_example1():
    """The mod(4,1,3) line of samples/example1 swaps rule 1 for rule 3,
    from theta0 = {1,2,4} to theta1 = {2,3,4}, and fires in no phase that
    lacks rule 1 or rule 4; the id(3) line keeps a phase that holds rule 3
    and fires in no other."""
    doc = parse_smpds((SAMPLES / "example1.smpds").read_text())
    lines = print_symbolic_pds(doc).splitlines()
    mod, = [line for line in lines if " p3 g1 -[mod(4,1,3)]-> p4 g1" in line]
    ident, = [line for line in lines if " p4 g1 -[id(3)]-> p2 g2 g3" in line]
    theta0, theta1 = doc.phase_names["theta0"], doc.phase_names["theta1"]
    assert symbolic_step(mod, Configuration("p3", ("g1",), theta0)) == {
        Configuration("p4", ("g1",), theta1)}
    for theta in (Phase.of([2, 4]), Phase.of([1, 2])):
        assert symbolic_step(mod, Configuration("p3", ("g1",), theta)) == set()
    assert symbolic_step(ident, Configuration("p4", ("g1", "g1"), theta1)) == {
        Configuration("p2", ("g2", "g3", "g1"), theta1)}
    assert symbolic_step(ident, Configuration("p4", ("g1",), theta0)) == set()


@pytest.mark.parametrize("seed", range(25))
def test_pds_step_equivalence(seed):
    """Single steps agree between the model and both translations
    (on nonempty stacks; the paired PDS cannot fire modifying rules
    against an empty stack)."""
    inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=5,
                              num_smrules=2, seed=3000 + seed))
    m, c0 = inst.smpds, inst.initial
    rules = list(to_pds(m, phase_closure(m, [c0.phase])).rules)
    symbolic = print_symbolic_pds(SmpdsDocument(m))
    reach, _ = raw_reach(m, c0, 4, 4000)
    for c in reach:
        if not c.stack:
            continue
        succ = step(m, c)
        state, stack = config_to_pds(c)
        assert pds_step(rules, state, stack) == {config_to_pds(s) for s in succ}
        assert symbolic_step(symbolic, c) == succ


@pytest.mark.parametrize("seed", range(15))
def test_classical_saturations_cross_check(seed):
    """Direct saturation and translate-then-classical agree."""
    inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=5,
                              num_smrules=2, seed=4000 + seed))
    m, c0 = inst.smpds, inst.initial
    # the routes are compared on what the oracle reached, which needs no
    # finished run
    reach, _ = raw_reach(m, c0, 5, 8000)
    targets = [c for c in sorted(reach, key=repr) if c.stack][:1]
    if not targets:
        pytest.skip("only empty-stack configurations reachable")
    target = targets[0]
    phases = phase_closure(m, [c0.phase, target.phase])
    pds = to_pds(m, phases)
    pre = prestar(m, from_configs(m, [target]))
    ppre = pds_prestar(pds, from_configs(m, [target]))
    post = poststar(m, from_configs(m, [c0]))
    ppost = pds_poststar(pds, from_configs(m, [c0]))
    for c in reach:
        if not c.stack:
            continue
        assert ppre.accepts(c) == pre.accepts(c), c
        assert ppost.accepts(c) == post.accepts(c), c


# the seeds of the three oracle tests above whose interpreter run hits its
# bound, where those tests check only what holds on a truncated run:
# test_prestar_agrees_with_interpreter (1004, 1007, 1014),
# test_poststar_agrees_with_interpreter (2006) and
# test_classical_saturations_cross_check (4001, 4008, 4011)
ORACLE_SEEDS = [*range(1000, 1030), *range(2000, 2030), *range(4000, 4015)]
TRUNCATED_SEEDS = [1004, 1007, 1014, 2006, 4001, 4008, 4011]


def _nonempty_configs(aut):
    return {c for c in aut.enumerate_configs(3) if c.stack}


def test_truncated_seeds_agree_with_the_translated_route():
    """Where the oracle gives up, direct pre* and post* still agree with
    phase_closure -> to_pds -> classical saturation, on nonempty stacks
    (the paired PDS fires no modifying rule on an empty stack, and no run
    between nonempty stacks passes through one).  Both routes run the
    same saturation cores, so the direct results are also compared with
    the per-transition references, which share no code with them."""
    covered = []
    for seed in ORACLE_SEEDS:
        inst = generate(GenParams(num_states=3, num_symbols=3, num_rules=5,
                                  num_smrules=2, seed=seed))
        m, c0 = inst.smpds, inst.initial
        reach, truncated = raw_reach(m, c0, 5, 8000)
        if not truncated:
            continue
        covered.append(seed)
        nonempty = sorted((c for c in reach if c.stack), key=repr)
        targets = random.Random(seed).sample(nonempty, min(2, len(nonempty)))
        pds = to_pds(m, phase_closure(m, [c0.phase] + [t.phase for t in targets]))
        post = poststar(m, from_configs(m, [c0]))
        # what the oracle did reach before its bound is reachable
        assert all(post.accepts(c) for c in reach)
        for route in (pds_poststar, reference_pds_poststar):
            assert _nonempty_configs(post) == _nonempty_configs(
                route(pds, from_configs(m, [c0]))), route.__name__
        for target in targets:
            pre = prestar(m, from_configs(m, [target]))
            assert pre.accepts(c0)
            for route in (pds_prestar, reference_pds_prestar):
                assert _nonempty_configs(pre) == _nonempty_configs(
                    route(pds, from_configs(m, [target]))), route.__name__
    assert covered == TRUNCATED_SEEDS


def test_paired_config_helpers_match_from_configs_and_accepts():
    m, theta0, theta1, c0 = swap_example()
    pds = to_pds(m, phase_closure(m, [theta0]))
    paired = pds_from_configs(pds, [config_to_pds(c0)])
    direct = from_configs(m, [c0])
    assert paired.transitions == direct.transitions
    assert paired.finals == direct.finals
    sat = pds_poststar(pds, direct)
    for c in (c0, Configuration("p3", ("g3", "g1"), theta1),
              Configuration("p3", ("g3", "g1"), theta0)):
        assert pds_accepts(sat, *config_to_pds(c)) == sat.accepts(c)


def test_classical_result_is_an_ordinary_automaton():
    from smpds.formats import SmpdsDocument, print_automaton
    m, theta0, theta1, c0 = swap_example()
    pds = to_pds(m, phase_closure(m, [theta0]))
    sat = pds_poststar(pds, from_configs(m, [c0]))
    assert Configuration("p3", ("g3", "g1"), theta1) in sat.enumerate_configs(2)
    doc = SmpdsDocument(m, {"theta0": theta0, "theta1": theta1}, [c0])
    assert "initial p3 theta1" in print_automaton(sat, doc)


def test_classical_poststar_matches_interpreter():
    m, theta0, theta1, c0 = swap_example()
    pds = to_pds(m, phase_closure(m, [theta0]))
    sat = pds_poststar(pds, from_configs(m, [c0]))
    assert sat.accepts(Configuration("p3", ("g3", "g1"), theta1))
    assert not sat.accepts(Configuration("p3", ("g3", "g1"), theta0))


def test_classical_prestar_takes_an_eps_input():
    """Classical pre* has direct pre*'s input contract: it takes eps_mid.aut,
    whose eps edge sits between two symbol edges, and agrees with direct
    pre* on nonempty stacks."""
    doc = parse_smpds((GOLDEN / "eps_mid.smpds").read_text())
    aut = parse_automaton((GOLDEN / "eps_mid.aut").read_text(), doc)
    assert aut.has_epsilon()
    m = doc.smpds
    pds = to_pds(m, phase_closure(m, doc.phase_names.values()))
    want = _nonempty_configs(prestar(m, aut))
    assert want and _nonempty_configs(pds_prestar(pds, aut)) == want


def _accepts_an_empty_stack(aut):
    return any(aut.accepts(Configuration(q.control, (), q.phase))
               for q in aut.initial_states())


def test_classical_prestar_of_a_classical_poststar_result():
    """On every corpus draw whose classical post* result accepts no empty
    stack, classical pre* of that result, eps edges and all, equals
    direct pre* of it on nonempty stacks."""
    with_eps = 0
    for seed in _corpus_draw_seeds():
        inst = _corpus_draw(seed)[1]
        m = inst.smpds
        pds = to_pds(m, phase_closure(m, [inst.initial.phase, inst.target.phase]))
        post = pds_poststar(pds, from_configs(m, [inst.initial]))
        if _accepts_an_empty_stack(post):
            continue
        assert _nonempty_configs(pds_prestar(pds, post)) == \
            _nonempty_configs(prestar(m, post)), seed
        with_eps += post.has_epsilon()
    assert with_eps >= 25


def test_classical_prestar_from_a_target_outside_the_phase_set():
    """A target at a phase that the paired PDS's set lacks: the saturation
    builds the rules of every phase it reaches, so classical pre* agrees
    with direct pre* on nonempty stacks.  The target is the draw's own
    less one plain rule, and the set is the closure of the initial phase
    alone."""
    outside = 0
    for seed in _corpus_draw_seeds():
        inst = _corpus_draw(seed)[1]
        m, target = inst.smpds, inst.target
        plain = sorted(rid for rid in target.phase if rid in m.delta)
        if not plain:
            continue
        theta = Phase.of(set(target.phase) - {plain[0]})
        goal = Configuration(target.state, target.stack, theta)
        pds = to_pds(m, phase_closure(m, [inst.initial.phase]))
        outside += theta not in pds.phases
        assert _nonempty_configs(pds_prestar(pds, from_configs(m, [goal]))) == \
            _nonempty_configs(prestar(m, from_configs(m, [goal]))), seed
    assert outside >= 100


def test_prestar_routes_refuse_an_edge_they_would_extend_alike():
    """Direct and classical pre* refuse an edge into an initial state that
    the saturation would extend with the same error."""
    m, theta0, *_ = swap_example()
    aut = from_configs(m, [Configuration("p3", ("g1",), theta0)])
    aut.add_transition(Plain("x"), "g1", Initial("p2", theta0))
    pds = to_pds(m, phase_closure(m, [theta0]))
    errors = []
    for op, system in ((prestar, m), (pds_prestar, pds)):
        with pytest.raises(ValueError) as exc:
            op(system, aut)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "would extend" in errors[0]


def test_classical_routes_are_the_cores_themselves():
    """Classical pre* and post* are no layer of their own: the names are
    the cores, with the PDS as their rule source."""
    assert translate.pds_prestar is prestar
    assert translate.pds_poststar is poststar
