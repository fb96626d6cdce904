import gc
import io
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import smpds.poststar
import smpds.prestar
from smpds import (
    Configuration,
    EPS,
    Generated,
    Initial,
    PAutomaton,
    Phase,
    Plain,
    check,
    from_configs,
    phase_closure,
    to_pds,
)
from smpds.automaton import DeltaWorklist
from smpds.bench import GenParams, generate
from smpds.cli import build_parser
from smpds.formats import (SmpdsDocument, parse_automaton, parse_smpds,
                           print_automaton, print_smpds)
from smpds.model import InternTable, collector_paused
from smpds.poststar import poststar
from smpds.prestar import prestar
from smpds.translate import pds_poststar, pds_prestar

from classical_reference import targets_of
from fixtures import POST_FANOUT_FAMILY, multi_phase_target, swap_example
from test_acceptance import _corpus_draw


def _basic():
    m, theta0, theta1, c0 = swap_example()
    aut = PAutomaton(m.alphabet)
    a = aut.add_state(Initial("p1", theta0))
    mid = Plain("m")
    acc = Plain("acc")
    aut.add_final(acc)
    aut.add_transition(a, "g1", mid)
    aut.add_transition(mid, "g2", acc)
    return m, theta0, aut, a, mid, acc


def _add(aut, work, edges, dsts):
    """Insert as a saturation does, recording the new targets in `work`."""
    return aut.insert(edges, dsts, work.deltas, work.queue)


def test_accepts_reads_the_stack():
    m, theta0, aut, *_ = _basic()
    assert aut.accepts(Configuration("p1", ("g1", "g2"), theta0))
    assert not aut.accepts(Configuration("p1", ("g1",), theta0))
    assert not aut.accepts(Configuration("p1", ("g2", "g1"), theta0))
    # unknown initial state
    assert not aut.accepts(Configuration("p2", ("g1", "g2"), theta0))


def test_empty_stack_needs_final_initial():
    m, theta0, aut, a, *_ = _basic()
    assert not aut.accepts(Configuration("p1", (), theta0))
    aut.add_final(a)
    assert aut.accepts(Configuration("p1", (), theta0))


def test_epsilon_closure():
    m, theta0, aut, a, mid, acc = _basic()
    b = aut.add_state(Initial("p2", theta0))
    aut.add_transition(b, EPS, mid)
    assert aut.accepts(Configuration("p2", ("g2",), theta0))
    assert not aut.accepts(Configuration("p2", (), theta0))
    # closure is transitive
    c = Plain("c")
    aut.add_transition(mid, EPS, c)
    aut.add_transition(c, "g3", acc)
    assert aut.accepts(Configuration("p2", ("g3",), theta0))
    assert aut.accepts(Configuration("p1", ("g1", "g3"), theta0))


def test_add_transition_reports_novelty():
    m, theta0, aut, a, mid, acc = _basic()
    assert not aut.add_transition(a, "g1", mid)   # already present
    assert aut.add_transition(a, "g2", mid)


def test_enumerate_configs():
    m, theta0, aut, *_ = _basic()
    got = aut.enumerate_configs(3)
    assert got == {Configuration("p1", ("g1", "g2"), theta0)}
    aut.add_final(Plain("m"))
    got = aut.enumerate_configs(3)
    assert Configuration("p1", ("g1",), theta0) in got


def test_from_configs_accepts_exactly():
    m, theta0, theta1, c0 = swap_example()
    c1 = Configuration("p3", ("g3", "g1"), theta1)
    c2 = Configuration("p4", (), theta1)
    aut = from_configs(m, [c0, c1, c2])
    for c in (c0, c1, c2):
        assert aut.accepts(c)
    assert aut.enumerate_configs(4) == {c0, c1, c2}
    assert not aut.has_epsilon()
    assert not aut.has_transition_into_initial()


def test_generated_states_distinct():
    th = Phase.of([1])
    assert Generated("p", ("g",), th) == Generated("p", ("g",), th)
    kinds = (Initial("p", th), Generated("p", ("g",), th), Plain("p"))
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b and b != a
    assert len(set(kinds)) == 3


def test_insert_under_one_key_adds_a_set_and_returns_what_was_new():
    m, theta0, aut, a, mid, acc = _basic()
    other = Plain("other")
    new = aut.insert(((a, "g1"),), aut.mask_of({mid, other}))
    assert new == aut.bit(other) and aut.states_of(new) == [other]
    assert (a, "g1", other) in aut.transitions and other in aut.states
    assert targets_of(aut, a, "g1") == {mid, other}
    assert aut.insert(((a, "g1"),), aut.bit(mid)) == 0
    b = Initial("p2", theta0)
    assert aut.insert(((b, "g2"),), aut.bit(acc)) == aut.bit(acc) and b in aut.states
    assert aut.insert(((b, "g3"),), 0) == 0
    assert not aut.has_epsilon()
    assert aut.insert(((b, EPS),), aut.bit(mid)) == aut.bit(mid) and aut.has_epsilon()
    assert aut.accepts(Configuration("p2", ("g2",), theta0))
    with pytest.raises(ValueError):
        aut.insert(((a, "nope"),), aut.bit(mid))
    # the views agree
    labels = sorted(aut.alphabet) + [EPS]
    assert aut.transitions == {(s, label, d) for s in aut.states for label in labels
                               for d in targets_of(aut, s, label)}
    assert aut.transition_count() == len(aut.transitions)


def test_numbering_is_the_automatons_own():
    m, theta0, aut, a, mid, acc = _basic()
    # numbered in order of first use, from bit 0: `_basic` makes acc final
    # before its first edge meets mid
    states = [a, acc, mid]
    assert [aut.bit(q) for q in states] == [1, 2, 4]
    assert aut.mask_of(states) == 7 and aut.states_of(5) == [a, mid]
    assert aut.states == set(states)
    x = Plain("x")
    assert aut.bit(x) == 8 and x in aut.states
    assert aut.states_of(0) == [] and aut.mask_of([]) == 0


def test_worklist_accumulates_adds_made_before_a_pop():
    m, theta0, aut, a, mid, acc = _basic()
    x, y, z = Plain("x"), Plain("y"), Plain("z")
    work = DeltaWorklist(aut)
    list(work)      # drain the keys the worklist starts with
    key = (a, "g3")
    _add(aut, work, [key], aut.bit(x))
    assert list(work) == [(key, aut.bit(x))]
    _add(aut, work, [key], aut.mask_of({x, y}))
    _add(aut, work, [key], aut.bit(z))
    assert list(work) == [(key, aut.mask_of({y, z}))]
    assert targets_of(aut, a, "g3") == {x, y, z}
    # an insert queues only the keys it brings something new
    _add(aut, work, [key, (a, "g1")], aut.mask_of({x, y}))
    assert list(work) == [((a, "g1"), aut.mask_of({x, y}))]


def test_insert_merges_in_place_opens_new_keys_and_queues_only_new_bits():
    m, theta0, aut, a, mid, acc = _basic()
    b = aut.add_state(Initial("p2", theta0))
    x, y = Plain("x"), Plain("y")
    aut.add_transition(b, EPS, x)
    work = DeltaWorklist(aut)
    list(work)      # drain the keys the worklist starts with
    assert aut.eclosure(b) == {b, x}
    assert not aut.accepts(Configuration("p2", ("g2",), theta0))
    # a merge into the eps key b --eps--> ... reaches the closure cache and
    # membership, and queues only the bit it brings
    assert _add(aut, work, [(b, EPS)], aut.mask_of({x, mid})) == aut.bit(mid)
    assert targets_of(aut, b, EPS) == {x, mid}
    assert aut.eclosure(b) == {b, x, mid}
    assert aut.accepts(Configuration("p2", ("g2",), theta0))
    assert list(work) == [((b, EPS), aut.bit(mid))]
    # a merge into a symbol key queues only its new bits too
    assert _add(aut, work, [(a, "g1")], aut.mask_of({mid, x, y})) == aut.mask_of({x, y})
    assert targets_of(aut, a, "g1") == {mid, x, y}
    assert list(work) == [((a, "g1"), aut.mask_of({x, y}))]
    # a new key numbers its source and refuses a label outside the
    # alphabet; the answer is what is new under the last key
    c = Plain("c")
    xa = aut.mask_of({x, acc})
    assert _add(aut, work, [(a, "g1"), (c, "g3")], xa) == xa
    assert c in aut.states and targets_of(aut, c, "g3") == {x, acc}
    with pytest.raises(ValueError, match="not in automaton alphabet"):
        _add(aut, work, [(c, "nope")], aut.bit(acc))
    # a plain state's key pops first
    assert list(work) == [((c, "g3"), xa), ((a, "g1"), aut.bit(acc))]
    # with no worklist, the same loop inserts and queues nothing
    assert aut.insert([(c, "g2"), (c, "g3")], aut.mask_of({mid, acc})) == aut.bit(mid)
    assert targets_of(aut, c, "g2") == {mid, acc}
    assert targets_of(aut, c, "g3") == {x, mid, acc}
    assert work.deltas == {} and list(work) == []


def test_a_new_worklist_yields_each_key_once_with_all_its_targets():
    m, theta0, aut, a, mid, acc = _basic()
    aut.insert(((a, "g1"),), aut.mask_of({Plain("x"), Plain("y")}))
    aut.add_transition(a, EPS, acc)
    aut.add_final(Initial("p2", theta0))     # a state with no edge has no key
    before = aut.transitions
    popped = list(DeltaWorklist(aut))
    assert len(popped) == len({key for key, _ in popped})
    assert {(src, label, d) for (src, label), delta in popped
            for d in aut.states_of(delta)} == before
    assert all(set(aut.states_of(delta)) == targets_of(aut, src, label)
               for (src, label), delta in popped)


def _phase_keys():
    """An empty automaton with a worklist over it, and one key at each of
    two phases, a plain state and a generated state of the second phase."""
    m, theta0, theta1, _ = swap_example()
    aut = PAutomaton(m.alphabet)
    k0 = (Initial("p1", theta0), "g1")
    k1 = (Initial("p4", theta1), "g1")
    plain = (Plain("m"), "g2")
    gen1 = (Generated("p2", ("g2",), theta1), "g3")
    return aut, DeltaWorklist(aut), k0, k1, plain, gen1


def test_worklist_pops_plain_state_keys_first():
    aut, work, k0, k1, plain, _ = _phase_keys()
    acc = aut.bit(Plain("acc"))
    _add(aut, work, [k1, k0, plain], acc)
    assert [key for key, _ in work] == [plain, k1, k0]


def test_worklist_pops_phases_in_the_order_first_seen_and_fifo_within_one():
    aut, work, k0, k1, _, gen1 = _phase_keys()
    x, y = aut.bit(Plain("x")), aut.bit(Plain("y"))
    # theta1 is seen first; its two keys keep the order they came in
    _add(aut, work, [k1], x)
    _add(aut, work, [k0], x)
    _add(aut, work, [gen1], x)
    _add(aut, work, [k1], y)       # a key already queued keeps its place
    assert list(work) == [(k1, x | y), (gen1, x), (k0, x)]
    # the ranks hold for the worklist's life, past an empty queue
    _add(aut, work, [k0], y)
    _add(aut, work, [k1], aut.bit(Plain("z")))
    assert [key for key, _ in work] == [k1, k0]


def test_worklist_pops_a_key_of_an_earlier_phase_before_the_later_one_drains():
    aut, work, k0, k1, plain, gen1 = _phase_keys()
    x, y = aut.bit(Plain("x")), aut.bit(Plain("y"))
    _add(aut, work, [k0], x)
    _add(aut, work, [k1, gen1], x)
    popped = []
    for key, _ in work:
        popped.append(key)
        if key == k1:
            # theta0 ranks before theta1, and a plain key before both
            _add(aut, work, [k0, plain], y)
    assert popped == [k0, k1, plain, k0, gen1]


class _FifoWorklist(DeltaWorklist):
    """`DeltaWorklist` in plain first-queued order, whatever the phase."""

    pops = 0

    def __init__(self, aut):
        self._fifo = deque()
        super().__init__(aut)

    def queue(self, key):
        self._fifo.append(key)

    def __iter__(self):
        while self._fifo:
            key = self._fifo.popleft()
            _FifoWorklist.pops += 1
            yield key, self.deltas.pop(key)


class _CountingWorklist(DeltaWorklist):
    pops = 0

    def __iter__(self):
        for item in super().__iter__():
            _CountingWorklist.pops += 1
            yield item


def test_saturations_reach_the_same_fixpoint_in_fifo_and_phase_order(monkeypatch):
    """Direct and classical pre* and post* build the same transitions and
    finals whether the worklist pops phase by phase or in plain FIFO
    order, and on the benchmark's post* family the phase order pops
    fewer keys."""
    runs = []
    for seed in range(1, 41):
        inst = _corpus_draw(seed)[1]
        m = inst.smpds
        pds = to_pds(m, phase_closure(m, [inst.initial.phase, inst.target.phase]))
        runs.append((m, pds, from_configs(m, [inst.target]),
                     from_configs(m, [inst.initial]), False))
    for params in POST_FANOUT_FAMILY:
        inst = generate(GenParams(*params[:4], seed=params[4]))
        m = inst.smpds
        target = multi_phase_target(inst)
        pds = to_pds(m, phase_closure(m, [inst.initial.phase, target.phase]))
        runs.append((m, pds, from_configs(m, [target]),
                     from_configs(m, [inst.initial]), True))
    modules = [smpds.prestar, smpds.poststar]
    results = {}
    fanout_pops = {}
    for order in (_CountingWorklist, _FifoWorklist):
        for module in modules:
            monkeypatch.setattr(module, "DeltaWorklist", order)
        got = []
        fanout_pops[order] = 0
        for m, pds, target, initial, fanout in runs:
            order.pops = 0
            for op, system, aut in [(prestar, m, target), (poststar, m, initial),
                                    (pds_prestar, pds, target),
                                    (pds_poststar, pds, initial)]:
                out = op(system, aut)
                got.append((out.transitions, out.finals))
            fanout_pops[order] += order.pops if fanout else 0
        results[order] = got
    assert results[_CountingWorklist] == results[_FifoWorklist]
    assert 0 < fanout_pops[_CountingWorklist] < fanout_pops[_FifoWorklist]


def test_every_saturation_inserts_through_the_worklist_alone(monkeypatch):
    """Direct and classical pre* and post* all insert through
    `PAutomaton.insert` with their worklist's deltas, so none of them
    reaches `add_transition`."""
    runs = []
    for seed in range(1, 41):
        inst = _corpus_draw(seed)[1]
        m = inst.smpds
        target = from_configs(m, [inst.target])
        initial = from_configs(m, [inst.initial])
        pds = to_pds(m, phase_closure(m, [inst.initial.phase, inst.target.phase]))
        runs += [("pre", prestar, m, target), ("post", poststar, m, initial),
                 ("pre", prestar, m, poststar(m, initial)),
                 ("pds_pre", pds_prestar, pds, target),
                 ("pds_post", pds_poststar, pds, initial)]

    def refuse(*args):
        raise AssertionError("add_transition called during a saturation")

    monkeypatch.setattr(PAutomaton, "add_transition", refuse)
    # keyed by route: the classical routes are the direct cores themselves
    grew = dict.fromkeys(("pre", "post", "pds_pre", "pds_post"), 0)
    for route, op, system, aut in runs:
        grew[route] += len(op(system, aut).transitions) > len(aut.transitions)
    assert all(grew.values()), grew


GOLDEN = Path(__file__).parent / "golden"


def _printed(argv: list[str]):
    """A call of the command `argv` names, its arguments parsed once, that
    returns the length of what it prints."""
    args = build_parser().parse_args(argv)

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            args.func(args)
        return len(out.getvalue())
    return call


def _paused_calls() -> dict:
    """The calls that run under `collector_paused`, by name, each on a
    corpus draw: the two parsers, the two cores, `check`, and the
    classical route, `to_pds` and its saturations; and the CLI's
    questions, each of which loads and saturates under one pause, on a
    golden model.  Each returns how much its result holds, rules or
    transitions, beyond its input, or what the command prints."""
    inst = _corpus_draw(7)[1]
    m = inst.smpds
    doc = SmpdsDocument(m, {}, [inst.initial, inst.target])
    target = from_configs(m, [inst.target])
    initial = from_configs(m, [inst.initial])
    model_text = print_smpds(doc)
    aut_text = print_automaton(target, doc)
    phases = [inst.initial.phase, inst.target.phase]

    def grew(result, aut):
        return result.transition_count() - aut.transition_count()

    return {
        "parse_smpds": lambda: len(parse_smpds(model_text).smpds.rules),
        "parse_automaton": lambda: parse_automaton(aut_text, doc).transition_count(),
        "prestar": lambda: grew(prestar(m, target), target),
        "poststar": lambda: grew(poststar(m, initial), initial),
        "check": lambda: check(m, target, inst.initial).transitions_added,
        "to_pds-pds_prestar": lambda: grew(pds_prestar(
            to_pds(m, phase_closure(m, phases)), target), target),
        "to_pds-pds_poststar": lambda: grew(pds_poststar(
            to_pds(m, phase_closure(m, phases)), initial), initial),
        **{f"cli-{command}": _printed([command, str(GOLDEN / "gen55.smpds"),
                                       str(GOLDEN / "gen55.aut"), *options])
           for command, *options in (["check", "--direction", "post"],
                                     ["prestar"], ["poststar"])},
    }


@pytest.mark.parametrize("name", list(_paused_calls()))
def test_a_parse_or_a_saturation_leaves_no_cyclic_garbage(name):
    """No call that runs with the collector paused makes a reference
    cycle: a core's nested helpers, a parsed model and the paired PDS's
    rules view among them.  So what the call builds is freed when it is
    dropped, not when the cyclic collector runs, and the collections the
    pause skips would free nothing."""
    call = _paused_calls()[name]
    call()
    gc.collect()
    gc.disable()
    try:
        assert call() > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _raising_calls() -> dict:
    """One call of each paused function that raises: a malformed model or
    automaton, an input with an edge into an initial state that pre*
    would extend, a config index out of range, and a model read as an
    automaton."""
    m, theta0, *_ = swap_example()
    aut = from_configs(m, [Configuration("p3", ("g1",), theta0)])
    aut.add_transition(Plain("x"), "g1", Initial("p2", theta0))
    doc = parse_smpds("rule 0: p a -> q\n")
    model = str(GOLDEN / "gen55.smpds")
    return {
        "parse_smpds": lambda: parse_smpds("rule 0: p a q\n"),
        "parse_automaton": lambda: parse_automaton("trans x a\n", doc),
        "prestar": lambda: prestar(m, aut),
        "poststar": lambda: poststar(m, aut),
        "check": lambda: check(m, aut),
        "cli-check": _printed(["check", model, str(GOLDEN / "gen55.aut"),
                               "--config", "9"]),
        "cli-prestar": _printed(["prestar", model, model]),
    }


def _collector_state() -> tuple:
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_the_paused_calls_leave_the_collector_as_they_found_it(enabled):
    """Each paused function, on return and on a raise, with the collector
    on or off at entry: whether it is on, its thresholds and its count of
    frozen objects read the same after the call."""
    returning, raising = _paused_calls(), _raising_calls()
    calls = [(name, returning[name], False) for name in raising]
    calls += [(name, call, True) for name, call in raising.items()]
    (gc.enable if enabled else gc.disable)()
    try:
        state = _collector_state()
        for name, call, raises in calls:
            try:
                call()
            except ValueError:
                assert raises, name
            else:
                assert not raises, name
            assert _collector_state() == state, (name, raises)
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_collector_paused_runs_its_call_with_the_collector_off(enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert collector_paused(gc.isenabled)() is False
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_interleaved_inserts_keep_one_store():
    m, theta0, aut, a, mid, acc = _basic()
    ref = set(aut.transitions)
    states = [a, mid, acc, Initial("p2", theta0), Plain("x"), Plain("y")]
    labels = sorted(m.alphabet) + [EPS]
    rng = random.Random(7)
    for _ in range(300):
        src, label = rng.choice(states), rng.choice(labels)
        if rng.random() < 0.5:
            dst = rng.choice(states)
            assert aut.add_transition(src, label, dst) == ((src, label, dst) not in ref)
            ref.add((src, label, dst))
        else:
            dsts = set(rng.sample(states, rng.randint(0, 3)))
            new = aut.insert(((src, label),), aut.mask_of(dsts))
            assert set(aut.states_of(new)) == {d for d in dsts
                                               if (src, label, d) not in ref}
            ref.update((src, label, d) for d in dsts)
        assert aut.transitions == ref
    assert {q for t in ref for q in (t[0], t[2])} <= aut.states
    assert aut.has_epsilon() == any(label is EPS for _, label, _ in ref)


def test_duplicate_add_transition_returns_false():
    m, theta0, aut, a, mid, acc = _basic()
    before = (set(aut.transitions), set(aut.states))
    assert not aut.add_transition(a, "g1", mid)
    assert (set(aut.transitions), set(aut.states)) == before
    assert aut.add_transition(a, "g1", acc)
    assert not aut.add_transition(a, "g1", acc)


def test_transitions_is_a_snapshot():
    m, theta0, aut, a, mid, acc = _basic()
    # the automaton keeps no tuple set of its own
    assert "transitions" not in vars(aut)
    snapshot = aut.transitions
    snapshot.add((mid, "g3", acc))
    snapshot.discard((a, "g1", mid))
    assert aut.transitions == {(a, "g1", mid), (mid, "g2", acc)}
    assert targets_of(aut, mid, "g3") == set() and targets_of(aut, a, "g1") == {mid}
    assert aut.accepts(Configuration("p1", ("g1", "g2"), theta0))
    with pytest.raises(AttributeError):
        aut.transitions = set()


def test_set_views_are_copies():
    """`states` and `finals` hand back new sets: changing one leaves the
    automaton unchanged."""
    m, theta0, aut, a, mid, acc = _basic()
    before = (aut.transitions, aut.states, aut.finals)
    aut.states.add(Plain("x"))
    aut.finals.add(mid)
    assert (aut.transitions, aut.states, aut.finals) == before
    assert aut.accepts(Configuration("p1", ("g1", "g2"), theta0))
    assert not aut.accepts(Configuration("p1", ("g1",), theta0))


def test_each_automaton_numbers_from_zero_after_many_saturations():
    """The numbering is per automaton: after a process has saturated 200
    corpus draws, a fresh automaton's masks are as narrow as its state
    count.  A process-wide numbering would have widened them by every
    state seen before."""
    for seed in range(200):
        inst = _corpus_draw(seed)[1]
        m = inst.smpds
        prestar(m, from_configs(m, [inst.target]))
        poststar(m, from_configs(m, [inst.initial]))
    inst = _corpus_draw(0)[1]
    aut = from_configs(inst.smpds, [inst.initial, inst.target])
    limit = 1 << len(aut.states)
    assert aut.mask_of(aut.states) == limit - 1
    assert all(targets < limit for by_label in aut._out.values()
               for targets in by_label.values())


def test_copy_is_independent():
    m, theta0, aut, a, mid, acc = _basic()
    dup = aut.copy()
    dup.add_transition(mid, "g3", acc)
    assert (mid, "g3", acc) not in aut.transitions
    assert aut.finals == dup.finals - set()


def test_copy_equals_original_and_shares_no_mutable_set():
    m, theta0, aut, a, mid, acc = _basic()
    b = aut.add_state(Initial("p2", theta0))
    aut.add_transition(b, EPS, mid)
    aut.add_transition(a, "g1", acc)
    dup = aut.copy()
    assert dup.alphabet == aut.alphabet
    assert dup.states == aut.states and dup.states is not aut.states
    assert dup.finals == aut.finals and dup.finals is not aut.finals
    assert dup.transitions == aut.transitions
    assert dup.transitions is not aut.transitions
    # the numbering is carried over
    assert [dup.bit(q) for q in aut.states] == [aut.bit(q) for q in aut.states]
    for c in aut.enumerate_configs(3) | dup.enumerate_configs(3):
        assert aut.accepts(c) and dup.accepts(c)
    # the copy's eps closures follow its own edges
    dup.add_transition(b, EPS, acc)
    assert dup.accepts(Configuration("p2", (), theta0))
    assert not aut.accepts(Configuration("p2", (), theta0))
    # mutating the copy, numbering included, leaves the original unchanged
    before = (aut.states, aut.finals, aut.transitions,
              {q: aut.bit(q) for q in aut.states})
    only_in_dup = Plain("only_in_dup")
    dup.add_transition(mid, "g3", only_in_dup)
    dup.add_transition(a, "g1", mid)
    dup.insert(((a, "g2"),), dup.mask_of({mid, acc}))
    dup.add_final(only_in_dup)
    assert (aut.states, aut.finals, aut.transitions,
            {q: aut.bit(q) for q in aut.states}) == before
    assert only_in_dup not in aut.states
    # so the original hands out the next number itself
    assert aut.bit(Plain("only_in_aut")) == 1 << len(before[0])


# -- the step table ---------------------------------------------------------

def _stepped():
    """`_basic` plus mid --g3--> x, with x not final, and the answers of
    the three queries that step masks, which fill the step table."""
    m, theta0, aut, a, mid, acc = _basic()
    x = Plain("x")
    aut.add_transition(mid, "g3", x)
    before = _step_queries(aut, theta0)
    assert aut._steps
    return theta0, aut, a, mid, acc, x, before


def _step_queries(aut, theta0):
    a = Initial("p1", theta0)
    return ([aut.accepts(Configuration("p1", stack, theta0))
             for stack in (("g1", "g3"), ("g3",), ("g1", "g2"))],
            aut.reach_states(a, ("g1", "g3")), aut.reach_states(a, ("g3",)),
            aut.enumerate_configs(2))


@pytest.mark.parametrize("insert", [
    # into a key already in the store, and into a new one
    lambda aut, a, mid, acc, x: aut.add_transition(mid, "g3", acc),
    lambda aut, a, mid, acc, x: aut.add_transition(a, "g3", acc),
    lambda aut, a, mid, acc, x: aut.insert(((mid, "g3"),), aut.bit(acc)),
    lambda aut, a, mid, acc, x: aut.insert(((a, "g3"),), aut.bit(acc)),
    lambda aut, a, mid, acc, x: aut.add_transition(x, EPS, acc),
    # a saturation's insert, which also records the new targets as work
    lambda aut, a, mid, acc, x: _add(aut, DeltaWorklist(aut), [(mid, "g3")], aut.bit(acc)),
    lambda aut, a, mid, acc, x: _add(aut, DeltaWorklist(aut), [(a, "g3")], aut.bit(acc)),
    lambda aut, a, mid, acc, x: _add(aut, DeltaWorklist(aut), [(x, EPS)], aut.bit(acc)),
], ids=["add_transition-merge", "add_transition-new", "insert-merge",
        "insert-new", "add_transition-eps", "worklist-merge", "worklist-new",
        "worklist-eps"])
def test_stepping_queries_see_the_edge_after_every_insert_path(insert):
    theta0, aut, a, mid, acc, x, before = _stepped()
    insert(aut, a, mid, acc, x)
    after = _step_queries(aut, theta0)
    assert after != before
    # a copy starts with an empty step table, so it steps afresh
    assert after == _step_queries(aut.copy(), theta0)


def test_worklist_merges_into_an_eps_key_clear_the_step_table():
    theta0, aut, a, mid, acc, x, before = _stepped()
    aut.add_transition(x, EPS, Plain("y"))
    work = DeltaWorklist(aut)
    _step_queries(aut, theta0)
    _add(aut, work, [(x, EPS)], aut.bit(acc))
    assert _step_queries(aut, theta0) == _step_queries(aut.copy(), theta0) != before


def test_a_copy_starts_with_a_step_table_of_its_own():
    theta0, aut, a, mid, acc, x, before = _stepped()
    dup = aut.copy()
    assert dup._steps == {} and dup._steps is not aut._steps
    dup.add_transition(mid, "g3", acc)
    assert _step_queries(dup, theta0) != before
    # the original's table and answers are untouched by the copy's insert
    assert aut._steps
    assert _step_queries(aut, theta0) == before


# -- interned states ------------------------------------------------------

def _three_kinds():
    th = Phase.of([1, 2])
    return Initial("p", th), Generated("p", ("g", "h"), th), Plain("p")


def test_equal_fields_give_the_same_state():
    th = Phase.of([1, 2])
    assert Initial("p", th) is Initial("p", Phase.of([2, 1]))
    assert Initial("p", th) is Initial(control="p", phase=th)
    assert Generated("p", ("g", "h"), th) is Generated("p", ("g", "h"), th)
    assert Generated("p", ("g",), th) is Generated(control="p", prefix=("g",), phase=th)
    assert Plain("acc") is Plain("acc") is Plain(name="acc")
    assert Initial("p", th) is not Initial("q", th)
    assert Generated("p", ("g", "h"), th) is not Generated("p", ("g",), th)
    # a subscript of the intern table is the constructor
    assert Initial._table["p", th] is Initial("p", th)
    assert Plain._table[("acc",)] is Plain("acc")
    assert Generated._table["p", ("g",), th] is Generated("p", ("g",), th)
    for q in _three_kinds():
        assert not hasattr(q, "__dict__")
        assert isinstance(type(q)._table, InternTable)


def test_a_state_constructor_refuses_a_wrong_number_of_fields():
    th = Phase.of([1, 2])
    for make, fields in ((Initial, ("p",)), (Initial, ("p", th, "x")),
                         (Generated, ("p", ("g",))), (Plain, ()), (Plain, ("a", "b"))):
        with pytest.raises(TypeError):
            make(*fields)


def test_parsed_states_are_the_interned_ones():
    samples = Path(__file__).parent.parent / "samples"
    doc = parse_smpds((samples / "example1.smpds").read_text())
    theta1 = doc.phase_names["theta1"]
    # theta1 named, then twice as the anonymous {2,3,4}
    aut = parse_automaton("initial p3 theta1\n"
                          "final acc\n"
                          "trans p3@theta1 g3 mid\n"
                          "trans p3@{2,3,4} g2 gen:p2:g3@{2,3,4}\n"
                          "trans mid g1 acc\n", doc)
    init = Initial("p3", theta1)
    gen = Generated("p2", ("g3",), theta1)
    # equality is identity, so these compare the very objects
    assert aut.states == {init, gen, Plain("mid"), Plain("acc")}
    assert aut.transitions == {(init, "g3", Plain("mid")), (init, "g2", gen),
                               (Plain("mid"), "g1", Plain("acc"))}


def test_state_fields_are_read_only():
    init, gen, plain = _three_kinds()
    for q, name in ((init, "control"), (init, "phase"), (gen, "prefix"),
                    (gen, "phase"), (plain, "name"), (plain, "other")):
        with pytest.raises(AttributeError):
            setattr(q, name, "x")
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert (init.control, gen.prefix, plain.name) == ("p", ("g", "h"), "p")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_states_pickle_to_the_interned_state(protocol):
    for q in _three_kinds():
        assert pickle.loads(pickle.dumps(q, protocol)) is q


def test_states_pickle_across_interpreters():
    # as for phases: the subprocess gives the ids other mask bits, and the
    # pickled states must still load as our interned ones
    ids = [778001, -778002, 10**12 + 778003]
    for rid in ids:
        Phase.of([rid])
    script = ("import pickle, sys\n"
              "from smpds import Generated, Initial, Phase, Plain\n"
              f"ids = {ids!r}\n"
              "for rid in reversed(ids):\n"
              "    Phase.of([rid])\n"
              "th = Phase.of(ids)\n"
              "states = (Initial('p', th), Generated('p', ('g', 'h'), th), Plain('acc'))\n"
              "sys.stdout.buffer.write(pickle.dumps(states))\n")
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
    th = Phase.of(ids)
    init, gen, plain = pickle.loads(data)
    assert init is Initial("p", th)
    assert gen is Generated("p", ("g", "h"), th)
    assert plain is Plain("acc")


def test_accepts_on_an_unseen_state_does_not_intern_it():
    m, theta0, aut, *_ = _basic()
    before = dict(Initial._table)
    assert not aut.accepts(Configuration("never-seen-control", ("g1",), theta0))
    assert not aut.accepts(Configuration("never-seen-control", (), theta0))
    assert Initial._table == before
