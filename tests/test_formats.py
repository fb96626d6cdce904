import random
import re
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from smpds import (
    Configuration,
    Generated,
    Initial,
    PAutomaton,
    PdsRule,
    Phase,
    SelfModRule,
    SMPDS,
    from_configs,
)
from smpds.bench import GenParams, generate
from smpds.formats import (
    FormatError,
    SmpdsDocument,
    parse_automaton,
    parse_smpds,
    print_automaton,
    print_dot,
    print_smpds,
    state_token,
)
from smpds.poststar import poststar
from smpds.prestar import prestar

from fixtures import swap_example

GOLDEN = Path(__file__).parent / "golden"


def _doc():
    m, theta0, theta1, c0 = swap_example()
    return SmpdsDocument(m, {"theta0": theta0, "theta1": theta1}, [c0])


def test_smpds_round_trip():
    doc = _doc()
    text = print_smpds(doc)
    doc2 = parse_smpds(text)
    assert print_smpds(doc2) == text
    assert doc2.smpds.rules == doc.smpds.rules
    assert doc2.smpds.states == doc.smpds.states
    assert doc2.smpds.alphabet == doc.smpds.alphabet
    assert doc2.phase_names == doc.phase_names
    assert doc2.configs == doc.configs


def test_anonymous_phase_syntax():
    doc = _doc()
    c = doc.resolve_phase("{1,2,4}")
    assert c is Phase.of([1, 2, 4])
    assert doc.resolve_phase("{}") is Phase.of([])
    assert doc.phase_name(Phase.of([2, 4])) == "{2,4}"
    assert doc.phase_name(doc.phase_names["theta0"]) == "theta0"


def test_comments_and_blanks_ignored():
    text = "# comment\n\nrule 0: p a -> q  # pop\nstate r\n"
    doc = parse_smpds(text)
    assert doc.smpds.rules[0] == PdsRule("p", "a", "q", ())
    assert "r" in doc.smpds.states


@pytest.mark.parametrize("text,fragment", [
    ("rule x: p a -> q\n", "integer"),
    ("rule 0: p -> q\n", "malformed"),
    ("rule 0: p a q\n", "->"),
    ("smrule 0: p (1 2) q\n", "malformed"),
    ("rule 0: p a -> q\nrule 0: p a -> q\n", "duplicate"),
    ("phase t: 5\n", "unknown rule id"),
    ("config: p\n", "config"),
    ("bogus stuff\n", "unknown directive"),
    ("rule 0: p a -> q\nconfig: p zz a\n", "unknown phase"),
    # phase names the printers could not write back, and a second
    # declaration of one name, which would silently replace the first
    ("rule 0: p a -> q\nrule 1: p a -> p\nphase t: 0\nphase t: 1\n",
     "duplicate phase name 't'"),
    ("rule 0: p a -> q\nphase {0}: 0\n", "phase name '{0}'"),
    ("rule 0: p a -> q\nphase x@y: 0\n", "phase name 'x@y'"),
    ("rule 0: p a -> q\nphase my th: 0\n", "phase name 'my th'"),
    # a control point the automaton format would read as a generated state
    ("state gen:x\n", "control point 'gen:x'"),
    ("rule 0: gen:x a -> q\n", "control point 'gen:x'"),
    ("rule 0: p a -> gen:x a\n", "control point 'gen:x'"),
    ("smrule 0: gen:x (0 -> 0) q\n", "control point 'gen:x'"),
    ("smrule 0: p (0 -> 0) gen:x\n", "control point 'gen:x'"),
    ("rule 0: p a -> q\nconfig: gen:x {0} a\n", "control point 'gen:x'"),
    # nor one whose name holds ':', which would run into the pushed prefix
    # of a generated state gen:p:g1:g2@theta
    ("rule 0: p a -> x:y b a\nphase th: 0\n", "line 1: control point 'x:y'"),
    ("rule 0: p a -> q\nsmrule 1: x:y (0 -> 0) q\n", "line 2: control point 'x:y'"),
    ("symbol a:b\n", "line 1: stack symbol 'a:b'"),
    ("rule 0: p a:b -> q\n", "line 1: stack symbol 'a:b'"),
    ("rule 0: p a -> q\nrule 1: p a -> q b a:b\n", "line 2: stack symbol 'a:b'"),
    ("rule 0: p a -> q\nconfig: p {0} a:b\n", "line 2: stack symbol 'a:b'"),
    # a stray arrow is no stack symbol
    ("rule 0: p a -> q -> r\n", "line 1: malformed rule"),
    # ids are -?[0-9]+ in every directive, where int() would read 1000, 5,
    # 0 or (the Arabic-Indic digit three) 3
    ("rule 1_000: p a -> q\n", "line 1: rule id must be an integer"),
    ("rule +5: p a -> q\n", "line 1: rule id must be an integer"),
    ("rule \u0663: p a -> q\n", "line 1: rule id must be an integer"),
    ("rule 0: p a -> q\nsmrule 1_0: p (0 -> 0) q\n", "line 2: rule id must be an integer"),
    ("rule 0: p a -> q\nsmrule 1: p (0 -> +0) q\n", "line 2: smrule ids must be integers"),
    ("rule 0: p a -> q\nphase th: 0_0\n", "line 2: phase members must be integer rule ids"),
    ("rule 0: p a -> q\nconfig: p {+0} a\n", "line 2: phase {+0}: ids must be integers"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_smpds(text)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith("line ")


def test_rule_ids_keep_their_value():
    doc = parse_smpds("rule -0: p a -> q\nrule 007: q a -> p\nsmrule -3: p (0 -> 7) q\n"
                      "phase th: 7 -3 0\nconfig: p {-3,0} a\n")
    assert sorted(doc.smpds.rules) == [-3, 0, 7]
    assert doc.phase_names["th"] is Phase.of([-3, 0, 7])
    assert doc.configs[0].phase is Phase.of([-3, 0])


def test_rules_are_named_tuples():
    doc = parse_smpds("rule 0: p a -> q b c\nsmrule 1: p (0 -> 0) q\n")
    rule, smrule = doc.smpds.rules[0], doc.smpds.rules[1]
    assert type(rule) is PdsRule and type(smrule) is SelfModRule
    assert rule == ("p", "a", "q", ("b", "c")) and rule.rhs_word == ("b", "c")
    assert smrule == ("p", 0, 0, "q") and smrule.removed == 0


def test_automaton_round_trip_plain():
    doc = _doc()
    aut = from_configs(doc.smpds, doc.configs)
    text = print_automaton(aut, doc)
    aut2 = parse_automaton(text, doc)
    assert print_automaton(aut2, doc) == text
    assert aut2.transitions == aut.transitions
    assert aut2.finals == aut.finals


def test_automaton_round_trip_saturated():
    doc = _doc()
    m = doc.smpds
    theta1 = doc.phase_names["theta1"]
    target = Configuration("p3", ("g3",), theta1)
    for sat in (prestar(m, from_configs(m, [target])),
                poststar(m, from_configs(m, doc.configs))):
        text = print_automaton(sat, doc)
        aut2 = parse_automaton(text, doc)
        assert print_automaton(aut2, doc) == text
        assert aut2.transitions == sat.transitions
        assert aut2.finals == sat.finals


def test_print_names_each_phase_by_its_first_declared_name():
    m, theta0, theta1, c0 = swap_example()
    doc = SmpdsDocument(m, {"first": theta0, "second": theta0, "t1": theta1}, [c0])
    aut = from_configs(m, [c0, Configuration("p3", ("g3",), Phase.of([2, 4]))])
    text = print_automaton(aut, doc)
    assert doc.phase_name(theta0) == "first"
    assert "initial p1 first\n" in text and "second" not in text
    assert "initial p3 {2,4}\n" in text
    assert text == _reference_print(aut, doc)


# -- the grouped printers against the sort of every transition --------------

def _reference_print(aut, doc):
    """`print_automaton` as it was: every transition sorted on its token triple."""
    token = {q: state_token(q, doc) for q in aut.states}
    lines = []
    for q in sorted(aut.initial_states(), key=token.__getitem__):
        lines.append(f"initial {q.control} {doc.phase_name(q.phase)}")
    for q in sorted(aut.finals, key=token.__getitem__):
        lines.append(f"final {token[q]}")
    for src, label, dst in sorted(
            aut.transitions, key=lambda t: (token[t[0]], t[1] or "", token[t[2]])):
        lines.append(f"trans {token[src]} "
                     f"{label if label is not None else 'eps'} {token[dst]}")
    return "\n".join(lines) + "\n"


# a GraphViz quoted ID: any characters but '"' and '\', or a backslash
# and the character it escapes
_DOT_ID = r'"(?:[^"\\]|\\.)*"'
_DOT_NODE = re.compile(rf"  ({_DOT_ID}) \[shape=(circle|doublecircle)( style=bold)?\];")
_DOT_EDGE = re.compile(rf"  ({_DOT_ID}) -> ({_DOT_ID}) \[label=({_DOT_ID})\];")


def _unquote(dot_id):
    return re.sub(r"\\(.)", r"\1", dot_id[1:-1])


def dot_graph(dot):
    """The nodes (id, shape, bold) and the edges (src, label, dst) of a
    `print_dot` output, every ID unescaped; each line must be one of them."""
    lines = dot.split("\n")
    assert lines[:2] == ["digraph pautomaton {", "  rankdir=LR;"] and lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[2:-1]:
        if match := _DOT_NODE.fullmatch(line):
            nodes.append((_unquote(match[1]), match[2], bool(match[3])))
        else:
            match = _DOT_EDGE.fullmatch(line)
            assert match, line
            edges.append((_unquote(match[1]), _unquote(match[3]), _unquote(match[2])))
    return nodes, edges


def _check_dot(aut, doc):
    """`print_dot` names each state by the token `print_automaton` prints
    for it, one node per state, and draws one edge per `trans` line."""
    nodes, edges = dot_graph(print_dot(aut, doc))
    lines = [line.split(" ") for line in print_automaton(aut, doc).splitlines()]
    printed = set()
    for head, *toks in lines:
        printed.update([f"{toks[0]}@{toks[1]}"] if head == "initial" else toks[::2])
    ids = [node[0] for node in nodes]
    assert len(set(ids)) == len(ids) == len(aut.states)
    assert set(ids) == printed
    assert {node[0] for node in nodes if node[1] == "doublecircle"} == {
        state_token(q, doc) for q in aut.finals}
    assert {node[0] for node in nodes if node[2]} == {
        state_token(q, doc) for q in aut.initial_states()}
    assert sorted(edges) == sorted(tuple(toks) for head, *toks in lines if head == "trans")


def _corpus_results():
    """pre*, post* and pre* of the post* result, with their documents, for
    systems drawn as the acceptance corpus draws them."""
    for seed in range(1, 201):
        rng = random.Random(seed)
        inst = generate(GenParams(num_states=rng.randint(2, 4),
                                  num_symbols=rng.randint(2, 4),
                                  num_rules=rng.randint(2, 8),
                                  num_smrules=rng.randint(0, 3),
                                  seed=seed))
        m = inst.smpds
        doc = SmpdsDocument(m, {"all": inst.initial.phase}, [inst.initial])
        post = poststar(m, from_configs(m, [inst.initial]))
        yield doc, prestar(m, from_configs(m, [inst.target]))
        yield doc, post
        yield doc, prestar(m, post)


def _empty_results():
    """An automaton with no states, and one with initial and final states
    but no transitions."""
    doc = _doc()
    yield doc, PAutomaton(doc.smpds.alphabet)
    aut = from_configs(doc.smpds, [Configuration("p1", (), doc.phase_names["theta0"])])
    aut.add_state(Initial("p2", doc.phase_names["theta1"]))
    assert aut.finals and not aut.transitions
    yield doc, aut


def test_printers_match_the_transition_sort_on_the_corpus():
    eps = generated = 0
    for doc, aut in chain(_corpus_results(), _empty_results()):
        assert print_automaton(aut, doc) == _reference_print(aut, doc)
        _check_dot(aut, doc)
        eps += aut.has_epsilon()
        generated += any(isinstance(q, Generated) for q in aut.states)
    # the corpus covers eps edges and generated states
    assert eps and generated


def test_print_dot_mentions_states():
    doc = _doc()
    dot = print_dot(from_configs(doc.smpds, doc.configs), doc)
    assert dot.startswith("digraph")
    assert "g1" in dot and "acc" in dot


def test_print_dot_escapes_quotes_and_backslashes():
    """Every name and label sits in one quoted ID, which reads back as the
    name or label itself."""
    doc = parse_smpds((GOLDEN / "quote.smpds").read_text())
    aut = poststar(doc.smpds, parse_automaton((GOLDEN / "quote.aut").read_text(), doc))
    nodes, edges = dot_graph(print_dot(aut, doc))
    ids = {node[0] for node in nodes} | {part for edge in edges for part in edge}
    assert {'a"b@th', "f\\g", "x", "x\\y", "eps"} <= ids


def test_print_dot_names_phases_as_the_text_does():
    """A node names its phase by the model's name for it, as the text
    format does, not by its 1,019 rule ids: on pre* of a benchmark-sized
    target the dot output stays under twice the size of the text."""
    inst = generate(GenParams(8, 8, 1009, 10, seed=1))
    doc = SmpdsDocument(inst.smpds, {"init": inst.initial.phase}, [inst.initial])
    aut = prestar(inst.smpds, from_configs(inst.smpds, [inst.target]))
    text, dot = print_automaton(aut, doc), print_dot(aut, doc)
    assert "@init" in dot and "@{" not in dot
    assert len(dot) < 2 * len(text)


def test_printers_build_their_output_once():
    # post* from the initial configuration: about 20k transitions, 6.5 MB
    # printed; a printer that copies its output on the way peaks at 2-3x
    inst = generate(GenParams(4, 4, 54, 4, seed=2))
    doc = SmpdsDocument(inst.smpds, {}, [inst.initial])
    aut = poststar(inst.smpds, from_configs(inst.smpds, [inst.initial]))
    for printer in (lambda: print_automaton(aut, doc), lambda: print_dot(aut, doc)):
        tracemalloc.start()
        try:
            out = printer()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 5_000_000
        assert peak <= 1.5 * len(out), (printer, peak / len(out))


def test_automaton_parse_errors():
    doc = _doc()
    with pytest.raises(FormatError, match="unknown symbol"):
        parse_automaton("initial p1 theta0\ntrans p1@theta0 zz acc\n", doc)
    with pytest.raises(FormatError, match="unknown directive"):
        parse_automaton("wat p1\n", doc)
    with pytest.raises(FormatError, match="initial"):
        parse_automaton("initial p1\n", doc)
    with pytest.raises(FormatError, match=r"line 2: phase \{1_0\}: ids must be integers"):
        parse_automaton("final acc\ntrans p1@{1_0} g1 acc\n", doc)


# -- property-based round-trips ---------------------------------------------

_names = st.sampled_from(["p0", "p1", "p2", "q"])
_syms = st.sampled_from(["a", "b", "c"])


@st.composite
def documents(draw):
    n = draw(st.integers(1, 6))
    rules = {}
    for rid in range(n):
        rules[rid] = PdsRule(draw(_names), draw(_syms), draw(_names),
                             tuple(draw(st.lists(_syms, max_size=3))))
    for rid in range(n, n + draw(st.integers(0, 2))):
        rules[rid] = SelfModRule(draw(_names), draw(st.integers(0, n - 1)),
                                 draw(st.integers(0, n - 1)), draw(_names))
    m = SMPDS({"p0", "p1", "p2", "q"}, {"a", "b", "c"}, rules)
    phases = {}
    for i in range(draw(st.integers(0, 2))):
        ids = draw(st.sets(st.sampled_from(sorted(rules))))
        phases[f"t{i}"] = Phase.of(ids)
    configs = []
    for _ in range(draw(st.integers(0, 2))):
        ids = draw(st.sets(st.sampled_from(sorted(rules))))
        configs.append(Configuration(draw(_names),
                                     tuple(draw(st.lists(_syms, max_size=3))),
                                     Phase.of(ids)))
    return SmpdsDocument(m, phases, configs)


@given(documents())
@settings(max_examples=100, deadline=None)
def test_smpds_print_parse_identity(doc):
    text = print_smpds(doc)
    doc2 = parse_smpds(text)
    assert print_smpds(doc2) == text
    assert doc2.smpds.rules == doc.smpds.rules
    assert doc2.configs == doc.configs


_PHASE_NAMES = ["zeta", "alpha", "m", "init", "b2", "th", "a1", "z"]


@st.composite
def named_corpus_documents(draw):
    """A corpus draw whose phases carry one to three names each, declared
    in a drawn order, so a phase's first-declared name need not sort
    first: the initial phase, the phases its modifying rules lead to, and
    drawn ones, with configurations at each."""
    inst = generate(GenParams(num_states=draw(st.integers(1, 4)),
                              num_symbols=draw(st.integers(1, 4)),
                              num_rules=draw(st.integers(1, 10)),
                              num_smrules=draw(st.integers(0, 3)),
                              seed=draw(st.integers(0, 10**6))))
    m = inst.smpds
    phases = [inst.initial.phase, *(theta for p in sorted(m.states)
                                    for _, theta in m.mod_successors(p, inst.initial.phase))]
    phases += [Phase.of(ids) for ids in draw(
        st.lists(st.sets(st.sampled_from(sorted(m.rules))), max_size=2))]
    names = draw(st.permutations(_PHASE_NAMES))
    declared = []
    for theta in dict.fromkeys(phases):
        for _ in range(draw(st.integers(1, 3))):
            if names:
                declared.append((names.pop(), theta))
    declared = draw(st.permutations(declared))
    configs = [inst.initial, inst.target]
    configs += [Configuration(inst.target.state, inst.target.stack, theta)
                for _, theta in declared]
    return SmpdsDocument(m, dict(declared), configs)


@given(named_corpus_documents())
# zeta is declared before alpha: sorted phase lines would rename the
# phase alpha after one parse
@example(parse_smpds((GOLDEN / "twonames.smpds").read_text()))
@settings(max_examples=150, deadline=None)
def test_print_parse_print_keeps_the_bytes_with_several_names_per_phase(doc):
    text = print_smpds(doc)
    doc2 = parse_smpds(text)
    assert print_smpds(doc2) == text
    assert list(doc2.phase_names.items()) == list(doc.phase_names.items())
    # every printer names each phase as before the round trip
    aut = from_configs(doc.smpds, doc.configs)
    assert print_automaton(aut, doc2) == print_automaton(aut, doc)


@given(documents(), st.randoms())
@settings(max_examples=50, deadline=None)
def test_automaton_print_parse_identity(doc, rng):
    configs = doc.configs or [Configuration(
        "p0", ("a",), Phase.of(sorted(doc.smpds.rules)))]
    aut = from_configs(doc.smpds, configs)
    text = print_automaton(aut, doc)
    aut2 = parse_automaton(text, doc)
    assert print_automaton(aut2, doc) == text
