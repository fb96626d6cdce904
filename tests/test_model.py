import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import smpds
from smpds import (
    Configuration,
    PdsRule,
    Phase,
    SelfModRule,
    SMPDS,
    check_configuration,
    from_configs,
    validate,
)
from smpds.bench import GenParams, generate
from smpds.formats import parse_smpds
from smpds.model import _IDS, FrozenInstanceError, InternTable, rule_bit, step
from smpds.poststar import poststar
from smpds.prestar import prestar

from fixtures import SWAP_TRACE, swap_example
from oracles import raw_reach, raw_step, to_raw


def test_phase_interning_identity():
    a = Phase.of([3, 1, 2])
    b = Phase.of([1, 2, 3, 2])
    assert a is b
    assert a == b
    assert Phase.of([]) is Phase.of(())
    assert a is not Phase.of([1, 2])


def test_phase_pickle_round_trip_keeps_identity():
    a = Phase.of([5, 1, 9])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
    c = Configuration("p", ("g",), a)
    assert pickle.loads(pickle.dumps(c)).phase is a


def test_configuration_is_a_named_tuple():
    """A configuration equals and hashes like the plain tuple of its
    fields, as a rule does; a parsed one equals a constructed one, it
    survives pickling at every protocol, and its fields are read-only."""
    doc = parse_smpds("rule 0: p a -> q b\nphase th: 0\n"
                      "config: p th a b\nconfig: q {0}\n")
    theta = Phase.of([0])
    assert doc.configs == [Configuration("p", ("a", "b"), theta),
                           Configuration(state="q", stack=(), phase=theta)]
    c = doc.configs[0]
    assert c == ("p", ("a", "b"), theta) and hash(c) == hash(("p", ("a", "b"), theta))
    assert repr(c) == "(<p, a b>, {0})" and repr(doc.configs[1]) == "(<q, eps>, {0})"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for config in doc.configs:
            loaded = pickle.loads(pickle.dumps(config, protocol))
            assert loaded == config and type(loaded) is Configuration
            assert loaded.phase is theta
    for name in ("state", "stack", "phase"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    assert c == ("p", ("a", "b"), theta)


def test_phase_pickles_by_ids_across_interpreters():
    # the subprocess meets these ids in the opposite order, so its mask bits
    # differ from ours; the pickle must still load as our interned phase.
    # Its second phase is made by `update` alone, which decodes no phase
    # (every decode goes through `model.mask_digits`), before it is pickled.
    ids = [777001, -777002, 10**12 + 777003, 777004]
    for rid in ids:
        Phase.of([rid])
    script = ("import pickle, sys\n"
              "from smpds import Phase, model\n"
              f"ids = {ids!r}\n"
              "for rid in reversed(ids):\n"
              "    Phase.of([rid])\n"
              "decoded, mask_digits = [], model.mask_digits\n"
              "model.mask_digits = lambda mask: decoded.append(mask) or mask_digits(mask)\n"
              "updated = Phase.of(ids[:3]).update(ids[0], ids[3])\n"
              "assert decoded == []\n"
              "sys.stdout.buffer.write(pickle.dumps((Phase.of(ids), updated)))\n")
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
    whole, updated = pickle.loads(data)
    assert whole is Phase.of(ids)
    assert updated is Phase.of(ids[1:])


# negative ids and sparse huge ones must map to bits as cheaply as small ones
rule_ids = st.one_of(st.integers(-40, 40),
                     st.sampled_from([10**12, -10**12, 2**70, 10**12 + 1]))


@given(st.lists(st.lists(rule_ids, max_size=12), min_size=1, max_size=6),
       st.lists(st.tuples(rule_ids, rule_ids), max_size=6),
       st.lists(rule_ids, max_size=8))
@settings(max_examples=200, deadline=None)
def test_phase_behaves_like_a_frozenset(id_lists, updates, probes):
    sets = [frozenset(ids) for ids in id_lists]
    phases = [Phase.of(ids) for ids in id_lists]
    for fs, ph in zip(sets, phases):
        assert ph.members == fs
        assert list(ph) == sorted(fs)
        assert ph.mask.bit_length() <= len(_IDS)
        assert len(ph) == len(fs)
        assert repr(ph) == "{%s}" % ",".join(map(str, sorted(fs)))
        for rid in [*probes, *fs]:
            assert (rid in ph) == (rid in fs)
        assert Phase.of(sorted(fs, reverse=True)) is ph
        for removed, added in updates:
            expected = (fs - {removed}) | {added}
            after = ph.update(removed, added)
            assert after.members == expected
            assert after is Phase.of(expected)
    for fs1, ph1 in zip(sets, phases):
        for fs2, ph2 in zip(sets, phases):
            assert (ph1 is ph2) == (fs1 == fs2)


def test_phase_update():
    a = Phase.of([1, 2])
    assert a.update(1, 3) is Phase.of([2, 3])
    assert a.update(1, 2) is Phase.of([2])
    # removing an absent id just adds
    assert a.update(7, 3) is Phase.of([1, 2, 3])


def test_a_phase_made_from_its_mask_is_the_interned_one():
    # made first from a mask, then first from an id set
    by_mask = Phase(rule_bit(779001) | rule_bit(779002))
    assert by_mask is Phase.of([779002, 779001]) and Phase(by_mask.mask) is by_mask
    by_ids = Phase.of([779003, 779004])
    assert Phase(by_ids.mask) is by_ids
    assert Phase(0) is Phase.of([])


def test_a_mask_that_no_rule_ids_make_is_refused():
    Phase.of([10, 20, 30])
    table = dict(Phase._table)
    # a negative mask, the first bit not yet handed out, and one above it
    for mask in (-1, 1 << len(_IDS), 1 << (len(_IDS) + 1)):
        with pytest.raises(ValueError, match="holds a bit that no rule id has"):
            Phase(mask)
        # the table is the constructor: a miss there is checked the same way
        with pytest.raises(ValueError, match="holds a bit that no rule id has"):
            Phase._table[mask]
    assert Phase._table == table
    assert isinstance(Phase._table, InternTable)
    assert isinstance(Phase._by_members, InternTable)
    assert Phase(0) is Phase.of([])


def test_phase_mask_is_read_only():
    ph = Phase.of([1, 2])
    mask = ph.mask
    for name in ("mask", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(ph, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(ph, name)
    assert ph.mask == mask and Phase.of([1, 2]) is ph and list(ph) == [1, 2]


def test_phase_membership():
    a = Phase.of([1, 2])
    assert 1 in a and 3 not in a
    assert sorted(a) == [1, 2]


def test_swap_example_trace():
    m, theta0, theta1, c0 = swap_example()
    cur = {c0}
    for expected in SWAP_TRACE[1:]:
        nxt = set()
        for c in cur:
            nxt |= step(m, c)
        # the run is deterministic: exactly one successor at each step
        assert len(nxt) == 1
        (c,) = nxt
        assert (c.state, c.stack, tuple(sorted(c.phase.members))) == expected
        cur = nxt
    # the final configuration is terminal
    assert not step(m, next(iter(cur)))


def test_smrule_fires_on_empty_stack():
    rules = {0: SelfModRule("p", 1, 1, "q"), 1: PdsRule("p", "a", "p", ())}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    c = Configuration("p", (), Phase.of([0, 1]))
    assert step(m, c) == {Configuration("q", (), Phase.of([0, 1]))}


def test_smrule_needs_removed_rule_present():
    rules = {0: SelfModRule("p", 1, 1, "q"), 1: PdsRule("p", "a", "p", ())}
    m = SMPDS({"p", "q"}, {"a"}, rules)
    c = Configuration("p", (), Phase.of([0]))
    assert not step(m, c)


def test_plain_rule_needs_matching_top():
    m, theta0, _, _ = swap_example()
    assert not step(m, Configuration("p1", ("g2",), theta0))
    assert not step(m, Configuration("p1", (), theta0))


def test_validate_reports_problems():
    rules = {
        0: PdsRule("p", "a", "nowhere", ("a",)),
        1: PdsRule("p", "b", "p", ("a", "a", "a")),
        2: SelfModRule("p", 9, 0, "p"),
        3: SelfModRule("p", 3, 0, "p"),
    }
    m = SMPDS({"p"}, {"a"}, rules)
    violations = validate(m)
    assert violations
    text = " ".join(violations)
    assert "nowhere" in text            # unknown state
    assert "'b'" in text                # unknown symbol
    assert "dangling" in text           # smrule 2 references rule 9
    # rule 1 pushes three symbols and smrule 3 removes itself, which the
    # saturations take as they are: only rule 1's unknown symbol is named
    assert [v for v in violations if v.startswith("rule 1:")] == [
        "rule 1: symbol 'b' not in Gamma"]
    assert "smrule 3" not in text


def test_validate_accepts_colon_names():
    # post* keys the state after a pushed prefix by the tuple of its
    # symbols, so 'a:b' then 'c' and 'a' then 'b' then 'd' into the same
    # control point and phase never meet in one state, and a name that
    # holds ':' is a problem of the text format only
    rules = {
        0: PdsRule("p", "x", "q", ("a:b", "c")),
        1: PdsRule("p", "y", "q", ("a", "b", "d")),
        2: PdsRule("r:s", "a:b", "r:s", ()),
    }
    m = SMPDS({"p", "q", "r:s"}, {"x", "y", "a", "b", "c", "d", "a:b"}, rules)
    assert validate(m) == []


def test_check_configuration():
    m, theta0, _, c0 = swap_example()
    check_configuration(m, c0)
    with pytest.raises(ValueError):
        check_configuration(m, Configuration("nope", (), theta0))
    with pytest.raises(ValueError):
        check_configuration(m, Configuration("p1", ("zz",), theta0))
    with pytest.raises(ValueError,
                       match="^configuration phase references unknown rule ids$"):
        check_configuration(m, Configuration("p1", (), Phase.of([99])))


def test_knows_tests_the_phase_mask_against_the_rule_ids():
    m, theta0, theta1, _ = swap_example()
    assert m.knows(theta0) and m.knows(theta1) and m.knows(Phase.of([]))
    assert m.knows(m.all_rules_phase())
    # 99 has a bit, from another system, and 98765 none before this phase
    Phase.of([99])
    assert not m.knows(Phase.of([*theta0, 99]))
    assert not m.knows(Phase.of([98765]))


def test_raw_reach_truncates():
    rules = {0: PdsRule("p", "a", "p", ("a", "a"))}
    m = SMPDS({"p"}, {"a"}, rules)
    configs, truncated = raw_reach(m, Configuration("p", ("a",), Phase.of([0])),
                                   4, 1000)
    assert truncated
    assert all(len(c.stack) <= 4 for c in configs)


# -- property tests against the independent step oracle ---------------------

_states = st.sampled_from(["p", "q", "r"])
_symbols = st.sampled_from(["a", "b"])


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 5))
    rules = {}
    for rid in range(n):
        rules[rid] = PdsRule(draw(_states), draw(_symbols), draw(_states),
                             tuple(draw(st.lists(_symbols, max_size=2))))
    for rid in range(n, n + draw(st.integers(0, 2))):
        rules[rid] = SelfModRule(draw(_states), draw(st.integers(0, n - 1)),
                                 draw(st.integers(0, n - 1)), draw(_states))
    m = SMPDS({"p", "q", "r"}, {"a", "b"}, rules)
    phase = Phase.of(draw(st.sets(st.sampled_from(sorted(rules)))))
    stack = tuple(draw(st.lists(_symbols, max_size=3)))
    return m, Configuration(draw(_states), stack, phase)


@given(small_systems())
@settings(max_examples=150, deadline=None)
def test_step_agrees_with_oracle(mc):
    m, c = mc
    got = {to_raw(c2) for c2 in step(m, c)}
    assert got == raw_step(m, to_raw(c))


@st.composite
def modifying_systems(draw):
    """A system over negative and huge ids whose modifying rules may remove
    themselves or name other modifying rules, and a control point and phase
    to fire it at."""
    ids = draw(st.lists(rule_ids, min_size=1, max_size=8, unique=True))
    rules = {}
    for rid in ids:
        if draw(st.booleans()):
            rules[rid] = PdsRule(draw(_states), draw(_symbols), draw(_states),
                                 tuple(draw(st.lists(_symbols, max_size=2))))
        else:
            # often itself; otherwise any id, a modifying rule's included
            removed = draw(st.one_of(st.just(rid), st.sampled_from(ids)))
            rules[rid] = SelfModRule(draw(_states), removed,
                                     draw(st.sampled_from(ids)), draw(_states))
    m = SMPDS({"p", "q", "r"}, {"a", "b"}, rules)
    return m, draw(_states), Phase.of(draw(st.sets(st.sampled_from(ids))))


@given(modifying_systems())
@settings(max_examples=200, deadline=None)
def test_mod_predecessors_invert_mod_successors(mpt):
    m, p, theta = mpt
    for p2, theta2 in m.mod_successors(p, theta):
        assert (p, theta) in m.mod_predecessors(p2, theta2)
    for p0, theta0 in m.mod_predecessors(p, theta):
        assert (p, theta) in m.mod_successors(p0, theta0)


@given(modifying_systems(), st.lists(_symbols, max_size=3))
@settings(max_examples=200, deadline=None)
def test_mod_successors_are_the_oracle_modifying_moves(mpt, stack):
    m, p, theta = mpt
    # the same phases, with every plain rule swapped for one that never
    # fires, so the oracle makes the modifying-rule moves only
    mods_only = SMPDS(m.states, m.alphabet,
                      {rid: r if isinstance(r, SelfModRule)
                       else PdsRule("never", "never", "never", ())
                       for rid, r in m.rules.items()})
    moves = raw_step(mods_only, (p, tuple(stack), theta.members))
    assert {s for _, s, _ in moves} <= {tuple(stack)}
    assert ({(p2, theta2.members) for p2, theta2 in m.mod_successors(p, theta)}
            == {(p2, phase) for p2, _, phase in moves})



# -- the rule indexes, built per direction -----------------------------------

FORWARD_INDEXES = ("_forward",)
BACKWARD_INDEXES = ("_backward",)


def _eager_indexes(m):
    """The indexes of `m` by direction, built the way `SMPDS` once built
    them all in its constructor: one loop over the rules, each rule with
    its mask bits."""
    by_lhs, by_head, pops, by_source, by_target = {}, {}, {}, {}, {}
    for rid, r in m.rules.items():
        bit = rule_bit(rid)
        if isinstance(r, PdsRule):
            by_lhs.setdefault((r.lhs_state, r.lhs_symbol), []).append((bit, r))
            if r.rhs_word:
                by_head.setdefault((r.rhs_state, r.rhs_word[0]), []).append((bit, r))
            else:
                pops.setdefault(r.rhs_state, []).append((bit, r))
        else:
            removed = rule_bit(r.removed)
            bits = (bit | removed, removed, rule_bit(r.added))
            by_source.setdefault(r.from_state, []).append((bits, r))
            by_target.setdefault(r.to_state, []).append((bits, r))
    return {"_forward": (by_lhs, by_source), "_backward": (by_head, pops, by_target)}


def _corpus_system(seed):
    rng = random.Random(seed)
    return generate(GenParams(num_states=rng.randint(2, 4), num_symbols=rng.randint(2, 4),
                              num_rules=rng.randint(2, 8), num_smrules=rng.randint(0, 3),
                              seed=seed))


@pytest.mark.parametrize("saturate, built, unbuilt", [
    (prestar, BACKWARD_INDEXES, FORWARD_INDEXES),
    (poststar, FORWARD_INDEXES, BACKWARD_INDEXES),
])
def test_a_saturation_builds_the_indexes_of_its_direction_only(saturate, built, unbuilt):
    for seed in range(1, 21):
        inst = _corpus_system(seed)
        m = SMPDS(inst.smpds.states, inst.smpds.alphabet, inst.smpds.rules)
        assert not set(vars(m)) & {*FORWARD_INDEXES, *BACKWARD_INDEXES}
        config = inst.target if saturate is prestar else inst.initial
        saturate(m, from_configs(m, [config]))
        assert set(built) <= set(vars(m))
        assert not set(unbuilt) & set(vars(m))


def test_lazy_indexes_equal_an_eager_build():
    draws = [_corpus_system(seed).smpds for seed in range(1, 41)]
    draws.append(swap_example()[0])
    for m in draws:
        eager = _eager_indexes(m)
        for names in (BACKWARD_INDEXES, FORWARD_INDEXES):
            fresh = SMPDS(m.states, m.alphabet, m.rules)
            # one read builds all of a direction's indexes, in one pass
            getattr(fresh, names[-1])
            assert {name: vars(fresh)[name] for name in names} == {
                name: eager[name] for name in names}
        assert {name: getattr(m, name) for name in eager} == eager


@given(modifying_systems())
@settings(max_examples=100, deadline=None)
def test_lazy_indexes_equal_an_eager_build_on_any_ids(mpt):
    m = mpt[0]
    assert {name: getattr(m, name) for name in _eager_indexes(m)} == _eager_indexes(m)


def _same_system(a, b):
    """`a` and `b` have the same table and answer every move alike."""
    assert (a.states, a.alphabet, a.rules) == (b.states, b.alphabet, b.rules)
    assert (a.mod_bits, a.delta, a.delta_c) == (b.mod_bits, b.delta, b.delta_c)
    assert a.knows(b.all_rules_phase())
    theta = a.all_rules_phase()
    for p in sorted(a.states):
        assert a.pop_moves(p, theta) == b.pop_moves(p, theta)
        assert a.mod_predecessors(p, theta) == b.mod_predecessors(p, theta)
        for g in sorted(a.alphabet):
            assert a.post_moves(p, theta, g) == b.post_moves(p, theta, g)
            assert a.pre_moves(p, theta, g) == b.pre_moves(p, theta, g)


@pytest.mark.parametrize("built", [(), FORWARD_INDEXES[:1], BACKWARD_INDEXES[:1],
                                   FORWARD_INDEXES + BACKWARD_INDEXES])
def test_a_system_pickles_and_copies_before_and_after_its_indexes_are_built(built):
    m, *_ = swap_example()
    for name in built:
        getattr(m, name)
    copies = [pickle.loads(pickle.dumps(m, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(m), copy.copy(m)]
    for other in copies:
        _same_system(other, m)


def test_a_system_pickles_across_interpreters():
    # the subprocess numbers the rule ids in another order, so its mask bits
    # differ from ours; the loaded system must use our bits
    ids = [888004, 888003, 888002, 888001]
    for rid in ids:
        rule_bit(rid)
    script = ("import pickle, sys\n"
              "from smpds import PdsRule, SelfModRule, SMPDS\n"
              "from smpds.model import rule_bit\n"
              f"for rid in {sorted(ids)!r}:\n"
              "    rule_bit(rid)\n"
              "m = SMPDS({'p', 'q'}, {'a'}, {888001: PdsRule('p', 'a', 'q', ('a',)),\n"
              "          888002: SelfModRule('p', 888001, 888004, 'q'),\n"
              "          888004: PdsRule('q', 'a', 'p', ())})\n"
              "m._forward, m._backward\n"
              "sys.stdout.buffer.write(pickle.dumps(m))\n")
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout
    loaded = pickle.loads(data)
    _same_system(loaded, SMPDS(loaded.states, loaded.alphabet, loaded.rules))
    theta = Phase.of([888001, 888002])
    assert loaded.knows(theta)
    assert sorted(loaded.post_moves("p", theta, "a"), key=repr) == [
        ("q", theta, ("a",)), ("q", Phase.of([888002, 888004]), ("a",))]
