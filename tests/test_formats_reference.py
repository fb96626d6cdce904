"""The model and automaton parsers of `smpds.formats` against line-loop
reference versions.

`_reference_parse_smpds` and `_reference_parse_automaton` are the parsers
as they were before the rule lines were read in bulk: one loop over the
content lines, each split into its directive and tokens.  Two faults of
that loop are fixed here, as in the parser: a rule whose right side holds
`->` is a malformed rule, and a rule id is `-?[0-9]+` wherever it stands,
so `int` never reads `1_000`, `+5` or a non-ASCII digit.  They share no
parsing code with the functions they check.

On any text, the parser and its reference must agree: on valid input, on
every rule (its id, type and fields, in table order), the states, the
alphabet, the phase names, the configurations and the `SMPDS` indexes; on
invalid input, on the `FormatError` message and line number.  Any other
exception fails the test.  The texts are printed models with random
comments, blank lines, indentation, tabs and CRLF endings, plus a
mutation or two of single tokens.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from smpds import Configuration, PdsRule, Phase, SelfModRule, SMPDS, from_configs
from smpds.automaton import EPS, Generated, Initial, PAutomaton, Plain
from smpds.bench import GenParams, generate
from smpds.formats import (FormatError, SmpdsDocument, parse_automaton, parse_smpds,
                           print_automaton, print_smpds)
from smpds.poststar import poststar
from smpds.prestar import prestar

from test_formats import documents


# -- the line-loop parsers ----------------------------------------------------

_REF_SPACED_PHASE = re.compile(r"\{[^{}]*\s[^{}]*\}")
_REF_EPS = "'eps' is reserved for epsilon edges and cannot be a stack symbol"
_REF_COLON = "must not hold ':', which separates the parts of a generated state"


def _ref_int(text):
    """int(text) for a rule id `-?[0-9]+`; a ValueError for anything else."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def _ref_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            spaced = "{" in line and _REF_SPACED_PHASE.search(line)
            if spaced:
                phase = spaced.group()
                raise FormatError(lineno, "a braced phase takes no spaces: "
                                          f"write {''.join(phase.split())}, not {phase}")
            yield lineno, line


def _ref_resolve_phase(phase_names, token, lineno):
    if token.startswith("{") and token.endswith("}"):
        try:
            return Phase.of(_ref_int(t.strip()) for t in token[1:-1].split(",") if t.strip())
        except ValueError:
            raise FormatError(lineno, f"phase {token}: ids must be integers") from None
    if token not in phase_names:
        raise FormatError(lineno, f"unknown phase {token!r}")
    return phase_names[token]


def _ref_one_token(rest, lineno):
    toks = rest.split()
    if len(toks) != 1:
        raise FormatError(lineno, "expected exactly one name")
    return toks[0]


def _ref_control(name, lineno):
    if ":" in name:
        raise FormatError(lineno, f"control point {name!r} {_REF_COLON}")
    return name


def _ref_symbols(names, lineno):
    if "eps" in names:
        raise FormatError(lineno, _REF_EPS)
    for name in names:
        if ":" in name:
            raise FormatError(lineno, f"stack symbol {name!r} {_REF_COLON}")


def _ref_split_id(rest, lineno):
    idtext, colon, body = rest.partition(":")
    if not colon:
        raise FormatError(lineno, "expected '<id>:'")
    try:
        return _ref_int(idtext.strip()), body.strip()
    except ValueError:
        raise FormatError(lineno, "rule id must be an integer") from None


def _reference_parse_smpds(text):
    states, alphabet, rules = set(), set(), {}
    phase_lines, config_lines = {}, []
    for lineno, line in _ref_content_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "state":
            states.add(_ref_control(_ref_one_token(rest, lineno), lineno))
        elif head == "symbol":
            name = _ref_one_token(rest, lineno)
            _ref_symbols([name], lineno)
            alphabet.add(name)
        elif head == "rule":
            rid, body = _ref_split_id(rest, lineno)
            lhs, arrow, rhs = body.partition("->")
            if not arrow:
                raise FormatError(lineno, "rule needs '->'")
            lt = lhs.split()
            rt = rhs.split()
            if len(lt) != 2 or len(rt) < 1 or "->" in rhs:
                raise FormatError(lineno, "malformed rule")
            if rid in rules:
                raise FormatError(lineno, f"duplicate rule id {rid}")
            p, gamma = lt
            _ref_control(p, lineno)
            _ref_control(rt[0], lineno)
            _ref_symbols([gamma, *rt[1:]], lineno)
            rules[rid] = PdsRule(p, gamma, rt[0], tuple(rt[1:]))
            states.update((p, rt[0]))
            alphabet.add(gamma)
            alphabet.update(rt[1:])
        elif head == "smrule":
            rid, body = _ref_split_id(rest, lineno)
            toks = body.replace("(", " ").replace(")", " ").split()
            if len(toks) != 5 or toks[2] != "->":
                raise FormatError(lineno, "malformed smrule")
            if rid in rules:
                raise FormatError(lineno, f"duplicate rule id {rid}")
            try:
                r1, r2 = _ref_int(toks[1]), _ref_int(toks[3])
            except ValueError:
                raise FormatError(lineno, "smrule ids must be integers") from None
            rules[rid] = SelfModRule(_ref_control(toks[0], lineno), r1, r2,
                                     _ref_control(toks[4], lineno))
            states.update((toks[0], toks[4]))
        elif head == "phase":
            name, _, idtext = rest.partition(":")
            name = name.strip()
            if not name:
                raise FormatError(lineno, "phase needs a name")
            if len(name.split()) > 1 or name[0] == "{" or "@" in name:
                raise FormatError(lineno, f"phase name {name!r} must be one token "
                                          "without '@' and not start with '{'")
            if name in phase_lines:
                raise FormatError(lineno, f"duplicate phase name {name!r}")
            try:
                ids = [_ref_int(t) for t in idtext.split()]
            except ValueError:
                raise FormatError(lineno, "phase members must be integer rule ids") from None
            phase_lines[name] = (lineno, ids)
        elif head == "config:" or (head == "config" and rest.startswith(":")):
            toks = rest.lstrip(":").split() if head == "config" else rest.split()
            if len(toks) < 2:
                raise FormatError(lineno, "config needs a state and a phase")
            _ref_symbols(toks[2:], lineno)
            _ref_control(toks[0], lineno)
            config_lines.append((lineno, toks))
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    doc = SmpdsDocument(SMPDS(states, alphabet, rules), {}, [])
    for name, (lineno, ids) in phase_lines.items():
        for rid in ids:
            if rid not in rules:
                raise FormatError(lineno, f"phase {name!r}: unknown rule id {rid}")
        doc.phase_names[name] = Phase.of(ids)
    for lineno, toks in config_lines:
        phase = _ref_resolve_phase(doc.phase_names, toks[1], lineno)
        doc.configs.append(Configuration(toks[0], tuple(toks[2:]), phase))
    return doc


def _ref_state(token, phase_names, lineno):
    if token.startswith("gen:"):
        body, at, phasetok = token[4:].rpartition("@")
        if not at:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        control, colon, symbols = body.partition(":")
        prefix = tuple(symbols.split(":"))
        if not colon or not control or "" in prefix:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        return Generated(control, prefix, _ref_resolve_phase(phase_names, phasetok, lineno))
    if "@" in token:
        control, _, phasetok = token.rpartition("@")
        if not control:
            raise FormatError(lineno, f"state {token!r} has no control point")
        return Initial(control, _ref_resolve_phase(phase_names, phasetok, lineno))
    return Plain(token)


def _reference_parse_automaton(text, doc):
    aut = PAutomaton(doc.smpds.alphabet)
    for lineno, line in _ref_content_lines(text):
        head, _, rest = line.partition(" ")
        toks = rest.split()
        if head == "initial":
            if len(toks) != 2:
                raise FormatError(lineno, "initial needs '<p> <phase>'")
            aut.add_state(Initial(toks[0], _ref_resolve_phase(doc.phase_names, toks[1],
                                                              lineno)))
        elif head == "final":
            if len(toks) != 1:
                raise FormatError(lineno, "final needs one state")
            aut.add_final(_ref_state(toks[0], doc.phase_names, lineno))
        elif head == "trans":
            if len(toks) != 3:
                raise FormatError(lineno, "trans needs '<state> <label> <state>'")
            src = _ref_state(toks[0], doc.phase_names, lineno)
            dst = _ref_state(toks[2], doc.phase_names, lineno)
            label = EPS if toks[1] == "eps" else toks[1]
            if label is not EPS and label not in aut.alphabet:
                raise FormatError(lineno, f"unknown symbol {toks[1]!r}")
            aut.add_transition(src, label, dst)
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    return aut


# -- comparing outcomes ------------------------------------------------------

def _indexes(m):
    return m._forward, m._backward, m.delta, m.delta_c


def _model_outcome(parse, text):
    try:
        doc = parse(text)
    except FormatError as e:
        return ("error", str(e), e.lineno)
    m = doc.smpds
    rules = [(rid, type(r), *r) for rid, r in m.rules.items()]
    return ("ok", rules, m.states, m.alphabet, doc.phase_names, doc.configs, _indexes(m))


def _automaton_outcome(parse, text, doc):
    try:
        aut = parse(text, doc)
    except FormatError as e:
        return ("error", str(e), e.lineno)
    return ("ok", aut.states, aut.finals, aut.transitions)


def _check_automaton_text(text, doc):
    """Both parsers agree on `text`, and an automaton they accept prints
    to a text that reads back as the same automaton."""
    outcome = _automaton_outcome(parse_automaton, text, doc)
    assert outcome == _automaton_outcome(_reference_parse_automaton, text, doc)
    if outcome[0] == "ok":
        printed = print_automaton(parse_automaton(text, doc), doc)
        assert _automaton_outcome(parse_automaton, printed, doc) == outcome, printed


# -- the texts ---------------------------------------------------------------

_SPECIALS = ["#", "{1, 2}", "eps", "gen:x", "1_000", "->", "+5", "\u0663", "{0,a}",
             "rule", "smrule", "config:", ":", "(", ")", "x@y", "{0}", "-1",
             "phase", "state", "trans", "{}"]
_BLANKS = [" ", " ", " ", "  ", "\t", " \t", "\x1f", "\xa0"]


def _decorate(text, rng, valid=False):
    """`text` with random comments, blank lines, indentation, blanks
    between tokens, and line endings; the same lines in the same order.
    With `valid`, a line's directive stays followed by one space, which
    keeps a valid text valid."""
    out = []
    for line in text.splitlines():
        while rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "# a comment", "\t# rule 0: p a -> q"]))
        toks = line.split(" ")
        if rng.random() < 0.3:
            blanks = [rng.choice(_BLANKS) for _ in toks[1:]]
            if valid and blanks:
                blanks[0] = " "
            line = "".join(map(str.__add__, toks, blanks)) + toks[-1]
        if rng.random() < 0.15:
            line = rng.choice(_BLANKS) + line
        if rng.random() < 0.15:
            line += rng.choice([" ", "\t", "  # trailing", "#"])
        out.append(line)
    ends = rng.choice([["\n"], ["\r\n"], ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]])
    return "".join(line + rng.choice(ends) for line in out)


def _mutate(text, rng):
    """`text` with one token dropped, duplicated, replaced, or joined by a
    special one."""
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if line.split()]
    if not at:
        return text
    i = rng.choice(at)
    toks = lines[i].split(" ")
    j = rng.randrange(len(toks))
    pool = _SPECIALS if rng.random() < 0.6 else [t for line in lines for t in line.split()]
    kind = rng.choice(["drop", "dup", "replace", "insert", "glue"])
    if kind == "drop":
        del toks[j]
    elif kind == "dup":
        toks.insert(j, toks[j])
    elif kind == "replace":
        toks[j] = rng.choice(pool)
    elif kind == "insert":
        toks.insert(j, rng.choice(pool))
    else:
        toks[j] += rng.choice(pool)
    lines[i] = " ".join(toks)
    return "\n".join(lines)


@st.composite
def bench_documents(draw):
    inst = generate(GenParams(num_states=draw(st.integers(1, 5)),
                              num_symbols=draw(st.integers(1, 5)),
                              num_rules=draw(st.integers(1, 30)),
                              num_smrules=draw(st.integers(0, 4)),
                              max_rhs_len=draw(st.integers(0, 3)),
                              seed=draw(st.integers(0, 10**6))))
    return SmpdsDocument(inst.smpds, {"init": inst.initial.phase},
                         [inst.initial, inst.target])


@st.composite
def model_texts(draw):
    doc = draw(st.one_of(documents(), bench_documents()))
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = print_smpds(doc)
    for _ in range(rng.choice([0, 1, 1, 2])):
        text = _mutate(text, rng)
    if rng.random() < 0.7:
        text = _decorate(text, rng, valid=rng.random() < 0.9)
    return text


# -- the tests ---------------------------------------------------------------

@given(model_texts())
@settings(max_examples=600, deadline=None)
def test_parse_smpds_agrees_with_the_line_loop(text):
    assert _model_outcome(parse_smpds, text) == _model_outcome(_reference_parse_smpds, text)


@given(documents(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_parse_automaton_agrees_with_the_line_loop(doc, seed):
    rng = random.Random(seed)
    m = doc.smpds
    configs = doc.configs or [Configuration("p0", ("a",), Phase.of(m.rules))]
    aut = from_configs(m, configs)
    saturate = rng.choice([None, prestar, poststar])
    if saturate:
        aut = saturate(m, aut)
    text = print_automaton(aut, doc)
    if rng.random() < 0.7:
        text = _mutate(text, rng)
    if rng.random() < 0.7:
        text = _decorate(text, rng)
    _check_automaton_text(text, doc)


def test_valid_texts_parse_alike_on_the_benchmark_shape():
    # a model of the pre_wide shape, decorated, reads as the printed one
    inst = generate(GenParams(8, 8, 300, 10, seed=5))
    doc = SmpdsDocument(inst.smpds, {"init": inst.initial.phase},
                        [inst.initial, inst.target])
    text = print_smpds(doc)
    for seed in range(5):
        decorated = _decorate(text, random.Random(seed), valid=True)
        got = _model_outcome(parse_smpds, decorated)
        assert got[0] == "ok"
        assert got == _model_outcome(_reference_parse_smpds, decorated)
        assert got == _model_outcome(parse_smpds, text)


_FIXED_DOC = parse_smpds("rule 0: p a -> q a\nphase theta0: 0\n")


@pytest.mark.parametrize("text", [
    # a modifying rule before plain rules: the rule table keeps line order
    "smrule 5: p (0 -> 1) q\nrule 0: p a -> q\nrule 1: q a -> p a\n",
    "rule 0: p a -> q\nsmrule 5: p (0 -> 1) q\nrule 1: q a -> p a\nsmrule 2: q (1 -> 0) p\n",
    # an smrule id repeated by a later plain rule, and the other way round
    "smrule 0: p (0 -> 0) q\nrule 0: p a -> q\n",
    "rule 0: p a -> q\nsmrule 0: p (0 -> 0) q\n",
    # faults on several lines: the first line's is reported
    "rule 0: p a -> q r -> s\nrule 0: p a -> q\nbogus\n",
    "bogus\nrule 0: p a -> q r -> s\n",
    "rule 0: p eps -> q\nstate gen:x\n",
    "rule 0: p a -> q eps\n",
    "rule 0: p a -> gen:x\nrule 0: p a -> q\n",
    "config: p {0, 1} a\nrule 0: p a -> q\nrule 0: p a -> q\n",
    "rule 0: p a -> q\nrule 0: p a -> q\nconfig: p {0, 1} a\n",
    "rule 0: p a -> q\nphase t: 0 1_000\nconfig: p t a\n",
    "rule 0: p a -> q\n" + "rule 1" + "0" * 5000 + ": p a -> q\n",
    "rule 0: p a -> q\nphase t: 1" + "0" * 5000 + "\n",
    "rule 0: p a -> q\nconfig: p {1" + "0" * 5000 + "} a\n",
    "rule 0:\tp\ta->q\tb  \nrule\t1: p a -> q\n",
    "rule 0: p a-->q\n  rule 1 : q b->>r\x1fb\n",
    "rule 0: p a -> q\x0brule 1: q a -> p\x85rule 2: p \xa0a -> q\u2028rule 2: p a -> q\n",
    # line breaks that only non-ASCII text holds
    "rule 0: p a -> q\u2028rule 0: p a -> q\n",
    "rule 0: p \xe4 -> q\x85rule 1: p a -> q -> r\n",
    # a line with two faults: the one checked first is reported
    "rule 0: p a -> q\nrule 0: p a -> q -> r\n",
    "rule 0: p a -> q\nrule 0: gen:x eps -> q\n",
    # a ':' in a control point or a stack symbol, first or among other faults
    "rule 0: p a -> q\nrule 1: p a -> q b a:b\n",
    "rule 0: x:y eps -> q\n",
    "rule 0: p a:b -> q eps\nbogus\n",
    "rule 0: p a -> q\nconfig: x:y {0} a:b\n",
    "rule 0:: p -> q\n",
    # tokens that join into '->' across a blank: a valid rule line
    "rule 0: p a- -> >b\nbogus\n",
    "rule 0: x- >y -> q\nbogus\n",
    # config lines between rule lines, and before and after smrule lines
    "config: p t a\nrule 0: p a -> q\nconfig: q t\nrule 1: q a -> p a\n"
    "config : p {0,1} a a\nphase t: 0\n",
    "config: p t\nsmrule 5: p (0 -> 1) q\nconfig: q t a\nsmrule 6: q (1 -> 0) p\n"
    "rule 0: p a -> q\nrule 1: q a -> p\nconfig: p {0,5} a\nphase t: 0 1 5 6\n",
    # `config :` and `config ::` are read, with blanks or none after the
    # colons; `config:p`, and a tab after `config:` or `config`, are not
    "rule 0: p a -> q\nphase t: 0\nconfig : p t a\nconfig :: q t\nconfig ::p t a\n"
    "config :\tq t\n   config:  p  t  a  a \n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig:p t a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig:\tp t a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig\t: p t a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig : : p t a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig: :p t a\n",
    # a config line without a phase, or without a state either
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig: p\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig:\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t\nconfig ::\n",
    # eps, or a ':', in a stack or a control point; a ':' in a phase token
    "rule 0: p a -> q\nphase t: 0\nconfig: p t a\nconfig: p t a eps\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t a\nconfig: p t a:b\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t a\nconfig: p:q t a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: p t a\nconfig: p t: a\n",
    "rule 0: p a -> q\nphase t: 0\nconfig: steps t eps_a\n",
    # a faulty config line before a faulty rule line, and after one
    "config: p t eps\nrule 0: p a -> q -> r\n",
    "rule 0: p a -> q -> r\nconfig: p t eps\n",
    # an unknown phase name after 1,000 rule lines
    "".join(f"rule {i}: p a -> q a\n" for i in range(1000))
    + "phase t: 0 1\nconfig: p t a\nconfig: q t\nconfig: p nope a\nconfig: q nope\n",
    # automata: an empty control point in an initial and in a generated
    # state
    "final @theta0\n",
    "initial p theta0\ntrans p@theta0 a gen::a@theta0\n",
    # automata: a generated state with an empty pushed prefix, or an
    # empty symbol inside one
    "initial p theta0\ntrans p@theta0 a gen:p:@theta0\nfinal gen:p:@theta0\n",
    "initial p theta0\ntrans p@theta0 a gen:p:a::a@theta0\n",
    "initial p theta0\ntrans p@theta0 a gen:p::a@theta0\n",
    "initial p theta0\ntrans p@theta0 a gen:p:a:@theta0\n",
])
def test_fixed_cases_agree_with_the_line_loop(text):
    """Each text is read as a model and as an automaton over `_FIXED_DOC`."""
    assert _model_outcome(parse_smpds, text) == _model_outcome(_reference_parse_smpds, text)
    _check_automaton_text(text, _FIXED_DOC)
