import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import smpds
from smpds import (
    Configuration,
    EPS,
    Generated,
    Initial,
    PAutomaton,
    Phase,
    Plain,
    from_configs,
)
from smpds.formats import parse_automaton, parse_smpds

from fixtures import swap_example


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
    assert Generated("p", "g", th) == Generated("p", "g", th)
    kinds = (Initial("p", th), Generated("p", "g", th), Plain("p"))
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b and b != a
    assert len(set(kinds)) == 3


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
    assert dup._out == aut._out and dup._out is not aut._out
    for q, by_label in aut._out.items():
        assert dup._out[q] is not by_label
        for label, targets in by_label.items():
            assert dup._out[q][label] is not targets
    for c in aut.enumerate_configs(3) | dup.enumerate_configs(3):
        assert aut.accepts(c) and dup.accepts(c)
    # the copy's eps closures follow its own edges
    dup.add_transition(b, EPS, acc)
    assert dup.accepts(Configuration("p2", (), theta0))
    assert not aut.accepts(Configuration("p2", (), theta0))


# -- interned states ------------------------------------------------------

def _three_kinds():
    th = Phase.of([1, 2])
    return Initial("p", th), Generated("p", "g", th), Plain("p")


def test_equal_fields_give_the_same_state():
    th = Phase.of([1, 2])
    assert Initial("p", th) is Initial("p", Phase.of([2, 1]))
    assert Initial("p", th) is Initial(control="p", phase=th)
    assert Generated("p", "g", th) is Generated("p", "g", th)
    assert Plain("acc") is Plain("acc")
    assert Initial("p", th) is not Initial("q", th)
    assert Generated("p", "g", th) is not Generated("p", "h", th)
    for q in _three_kinds():
        assert not hasattr(q, "__dict__")


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
    gen = Generated("p2", "g3", theta1)
    # equality is identity, so these compare the very objects
    assert aut.states == {init, gen, Plain("mid"), Plain("acc")}
    assert aut.transitions == {(init, "g3", Plain("mid")), (init, "g2", gen),
                               (Plain("mid"), "g1", Plain("acc"))}


def test_state_fields_are_read_only():
    init, gen, plain = _three_kinds()
    for q, name in ((init, "control"), (init, "phase"), (gen, "symbol"),
                    (gen, "phase"), (plain, "name"), (plain, "other")):
        with pytest.raises(AttributeError):
            setattr(q, name, "x")
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert (init.control, gen.symbol, plain.name) == ("p", "g", "p")


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
              "states = (Initial('p', th), Generated('p', 'g', th), Plain('acc'))\n"
              "sys.stdout.buffer.write(pickle.dumps(states))\n")
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
    th = Phase.of(ids)
    init, gen, plain = pickle.loads(data)
    assert init is Initial("p", th)
    assert gen is Generated("p", "g", th)
    assert plain is Plain("acc")


def test_accepts_on_an_unseen_state_does_not_intern_it():
    m, theta0, aut, *_ = _basic()
    before = dict(Initial._table)
    assert not aut.accepts(Configuration("never-seen-control", ("g1",), theta0))
    assert not aut.accepts(Configuration("never-seen-control", (), theta0))
    assert Initial._table == before


def test_to_dot_mentions_states():
    m, theta0, aut, *_ = _basic()
    dot = aut.to_dot()
    assert dot.startswith("digraph")
    assert "g1" in dot and "acc" in dot
