"""Line-oriented textual formats for SM-PDS models, P-automata and PDSs.

Model format ('#' starts a comment):

    state <name>                      # optional, states auto-declared on use
    symbol <name>                     # optional
    rule <id>: <p> <gamma> -> <p'> [<g1> [<g2> ...]]
    smrule <id>: <p> (<rid1> -> <rid2>) <p'>
    phase <name>: <rid> <rid> ...
    config: <p> <phase> <g1> <g2> ...

Automaton format (phase names resolve against a model document):

    initial <p> <phase>
    final <state>
    trans <state> <gamma|eps> <state>

Symbolic-PDS format, printed only: rule r in the phases that hold it;
r: p --(r1, r2)--> p' once per symbol, from the phases that hold r and
r1 to those with r1 swapped for r2:

    symrule <i>: <p> <gamma> -[id(<r>)]-> <p'> [<g1> [<g2> ...]]
    symrule <i>: <p> <gamma> -[mod(<r>,<r1>,<r2>)]-> <p'> <gamma>

A rule id is `-?[0-9]+` (ASCII digits, no `+`, no `_`), in every
directive and in braced phases.  A rule's right side holds no `->`.  A
phase is referenced by its declared name or, anonymously, as a sorted
rule-id list in braces with no spaces: {0,2,5}; so a name is declared
once, is one token and neither starts with '{' nor holds '@'.  The label
`eps` is epsilon, so no model may use `eps` as a stack symbol.  A state
token `gen:p:g1:...:gk@theta` is the generated state of post* for the
control point p, the pushed prefix g1...gk and the phase, so no control
point or stack symbol of a model text holds ':'.  In it and in a token
`p@theta`, p is not empty.  Printing is canonical, so parse o print is
the identity; a model prints its `phase` lines in declaration order,
which keeps the name that each phase is printed under.
`print_dot` draws an automaton for GraphViz; each node's ID is the token
above for its state, so one name stands for a state in either output.
Each printer collects its output as one list of pieces and joins it
once, so it holds little more than the output itself.

Parsing reads the whole text at once.  One `split` of a model by the
regex of a well-formed rule line yields the fields of every rule, which
become rules in bulk; only the few lines in the gaps between rule lines
are read one by one, and their line numbers are counted from the gaps.  A
faulty model is read a second time, line by line, only to find its first
bad line.  An automaton is read with one `findall`, a tuple per line.
Rules and configurations are `NamedTuple`s, so each compares equal to a
plain tuple of its fields.  Both parsers run with the cyclic collector
paused (see `model`).

`load` parses a model text and, when given, an automaton text, and
raises unless both validate: a faulty model is reported before its
automaton is parsed, with every violation in one message.  `violations`
is its non-raising half for a parsed model, which `smpds validate`
prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat
from operator import add
from typing import Iterable, Sequence

from .automaton import EPS, AutState, Generated, Initial, PAutomaton, Plain
from .model import (Configuration, Phase, PdsRule, SelfModRule, SMPDS,
                    check_configuration, collector_paused, validate)


class FormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_ID = re.compile(r"-?[0-9]+")


def _int(token: str, lineno: int, message: str) -> int:
    """The rule id `token`, or a FormatError with `message`."""
    if _ID.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's limit on digits
            pass
    raise FormatError(lineno, message)


def _ints(text: str, lineno: int, message: str) -> list[int]:
    """The blank-separated rule ids in `text`, or a FormatError with
    `message`.  On ASCII text without '+' and '_', `int` reads exactly the
    tokens `-?[0-9]+`."""
    toks = text.split()
    if (text.isascii() and "+" not in text and "_" not in text
            or all(map(_ID.fullmatch, toks))):
        try:
            return [*map(int, toks)]
        except ValueError:
            pass
    raise FormatError(lineno, message)


@dataclass
class SmpdsDocument:
    """A parsed model file: the system plus named phases and configurations."""
    smpds: SMPDS
    phase_names: dict[str, Phase] = field(default_factory=dict)
    configs: list[Configuration] = field(default_factory=list)

    def phase_name(self, phase: Phase) -> str:
        """The first-declared name of `phase`, else its anonymous form {0,2,5}."""
        return _PhaseNames(self)[phase]

    def resolve_phase(self, token: str, lineno: int = 0) -> Phase:
        if token.startswith("{") and token.endswith("}"):
            message = f"phase {token}: ids must be integers"
            return Phase.of([_int(t.strip(), lineno, message)
                             for t in token[1:-1].split(",") if t.strip()])
        if token not in self.phase_names:
            raise FormatError(lineno, f"unknown phase {token!r}")
        return self.phase_names[token]


# -- reading text -------------------------------------------------------------

# the line breaks of `str.splitlines` other than "\n" that ASCII text can
# hold; non-ASCII text is always split by `str.splitlines`
_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

# blanks within a line: whitespace as `str.split` knows it, bar "\n"
_W = r"[^\S\n]"

# a braced phase with whitespace inside, which splitting the line on
# whitespace would tear apart
_SPACED_PHASE = re.compile(rf"\{{[^{{}}\n]*{_W}[^{{}}\n]*\}}")


def _clean(text: str) -> str:
    """`text` with comments dropped and each line, numbered as
    `str.splitlines` numbers it, ended by one "\n"."""
    if not text.isascii() or any(b in text for b in _BREAKS):
        text = "\n".join(text.splitlines())
    if "#" in text:
        text = "\n".join([line.split("#", 1)[0] for line in text.split("\n")])
    if text and text[-1] != "\n":
        text += "\n"
    return text


def _spaced_phase(text: str) -> FormatError | None:
    """The error for the first braced phase with a blank inside, at its line."""
    spaced = "{" in text and _SPACED_PHASE.search(text)
    if not spaced:
        return None
    phase = spaced.group()
    return FormatError(text.count("\n", 0, spaced.start()) + 1,
                       "a braced phase takes no spaces: "
                       f"write {''.join(phase.split())}, not {phase}")


# the automaton format reads the label eps as epsilon
_EPS_RESERVED = "'eps' is reserved for epsilon edges and cannot be a stack symbol"
# and the name gen:p:g1:...:gk@theta as a generated state
_COLON = "must not hold ':', which separates the parts of a generated state"

# a rule line of a cleaned model, "\n" and all, whose syntax is right but
# for, possibly, an extra '->' inside a token; its groups are the rule's
# id, p, gamma, p' and pushed word.  Each run of blanks sits between
# tokens, so giving back part of a token or of a run never lets the rest
# match, and a failed attempt backtracks only through gamma.
_RULE_LINE = re.compile(
    rf"^{_W}*rule {_W}*(-?[0-9]+){_W}*:{_W}*(\S+){_W}+(\S+?){_W}*->"
    rf"{_W}*(\S+)(.*)\n", re.M)


class _Model:
    """What the lines of a model file declare, before the system is built."""

    def __init__(self):
        self.states: set[str] = set()
        self.alphabet: set[str] = set()
        self.rules: dict[int, PdsRule | SelfModRule] = {}
        self.mod_lines: list[tuple[int, int]] = []  # (line number, id) per smrule
        self.phase_lines: dict[str, tuple[int, list[int]]] = {}
        self.config_lines: list[tuple[int, list[str]]] = []


@collector_paused
def parse_smpds(text: str) -> SmpdsDocument:
    text = _clean(text)
    try:
        model = _read_model(text)
    except ValueError:
        # some line is at fault: find the first one
        _raise_first_error(text)
        raise
    rules = model.rules
    doc = SmpdsDocument(SMPDS(model.states, model.alphabet, rules))
    for name, (lineno, ids) in model.phase_lines.items():
        members = frozenset(ids)
        if not rules.keys() >= members:
            # name the first unknown id in line order
            rid = next(rid for rid in ids if rid not in rules)
            raise FormatError(lineno, f"phase {name!r}: unknown rule id {rid}")
        doc.phase_names[name] = Phase.of(members)
    # each phase token is resolved once, at its first line
    phases: dict[str, Phase] = {}
    for lineno, toks in model.config_lines:
        phase = phases.get(toks[1])
        if phase is None:
            phase = phases[toks[1]] = doc.resolve_phase(toks[1], lineno)
        doc.configs.append(Configuration(toks[0], tuple(toks[2:]), phase))
    return doc


def _read_model(text: str) -> _Model:
    """The model a cleaned text declares, its rule lines read in bulk.
    Raises a ValueError on any fault, which need not be at the first bad
    line."""
    # [gap, id, p, gamma, p', word, gap, id, ...]: the fields of each rule
    # line, and the other lines in the gaps between them
    parts = _RULE_LINE.split(text)
    ids, ps, gammas, qs, words = (parts[i::6] for i in range(1, 6))
    gaps = parts[::6]
    model = _Model()
    # one tuple per distinct pushed word, and NamedTuples built by
    # `tuple.__new__`, in C
    word_of = {w: tuple(w.split()) for w in set(words)}
    model.rules = rules = dict(zip(map(int, ids), map(
        tuple.__new__, repeat(PdsRule),
        zip(ps, gammas, qs, map(word_of.__getitem__, words)))))
    model.states.update(ps, qs)
    model.alphabet.update(gammas, *word_of.values())
    if (len(rules) < len(ids) or "eps" in model.alphabet
            or any(":" in name for name in chain(model.states, model.alphabet))):
        raise ValueError("a faulty rule line")
    # gap k follows k rule lines
    others = 0
    for k, gap in compress(enumerate(gaps), gaps):
        lines = gap.split("\n")
        for lineno, line in enumerate(lines[:-1], k + others + 1):
            _directive(model, line, lineno)
        others += len(lines) - 1
    # every rule line holds one '->', and a braced phase no blank
    if text.count("->") != len(ids) + "".join(gaps).count("->") or _spaced_phase(text):
        raise ValueError("a faulty line")
    mods = model.mod_lines
    if mods and mods[0][0] < len(ids) + others - gaps[-1].count("\n"):
        # an smrule line comes before the last rule line: put the table in
        # line order
        rule_lines = map(add, count(1), accumulate(gap.count("\n") for gap in gaps))
        model.rules = {rid: rules[rid] for _, rid in
                       sorted(chain(zip(rule_lines, map(int, ids)), mods))}
    return model


def _raise_first_error(text: str) -> None:
    """Raise the error of the first bad line of a cleaned model, reading
    the lines one by one."""
    spaced = _spaced_phase(text)
    model = _Model()
    lines = text.split("\n")[:spaced.lineno - 1 if spaced else None]
    for lineno, line in enumerate(lines, 1):
        _directive(model, line, lineno)
    if spaced:
        raise spaced


def _directive(model: _Model, line: str, lineno: int) -> None:
    """Read one model line.  A well-formed rule line is read here only
    when looking for a faulty model's first bad line; valid text has its
    rule lines read in bulk by `_read_model`."""
    line = line.strip()
    if not line:
        return
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "state":
        model.states.add(_control(_one_token(rest, lineno), lineno))
    elif head == "symbol":
        name = _one_token(rest, lineno)
        _symbols((name,), lineno)
        model.alphabet.add(name)
    elif head == "rule":
        rule = _RULE_LINE.match(line + "\n")
        if not rule:
            _, body = _split_id(rest, lineno)
            raise FormatError(lineno, "malformed rule" if "->" in body else "rule needs '->'")
        rid, p, gamma, q, word = rule.groups()
        rid = _int(rid, lineno, "rule id must be an integer")
        if any("->" in token for token in (p, gamma, q, word)):
            raise FormatError(lineno, "malformed rule")
        if rid in model.rules:
            raise FormatError(lineno, f"duplicate rule id {rid}")
        word = tuple(word.split())
        model.rules[rid] = PdsRule(_control(p, lineno), gamma, _control(q, lineno), word)
        _symbols((gamma, *word), lineno)
        model.states.update((p, q))
        model.alphabet.update((gamma, *word))
    elif head == "smrule":
        rid, body = _split_id(rest, lineno)
        toks = body.replace("(", " ").replace(")", " ").split()
        # <p> <rid1> -> <rid2> <p'>
        if len(toks) != 5 or toks[2] != "->":
            raise FormatError(lineno, "malformed smrule")
        if rid in model.rules:
            raise FormatError(lineno, f"duplicate rule id {rid}")
        removed = _int(toks[1], lineno, "smrule ids must be integers")
        added = _int(toks[3], lineno, "smrule ids must be integers")
        model.rules[rid] = SelfModRule(_control(toks[0], lineno), removed, added,
                                       _control(toks[4], lineno))
        model.states.update((toks[0], toks[4]))
        model.mod_lines.append((lineno, rid))
    elif head == "phase":
        name, _, idtext = rest.partition(":")
        name = name.strip()
        if not name:
            raise FormatError(lineno, "phase needs a name")
        # printed states name their phase in `p@name`, which must read back
        if len(name.split()) > 1 or name[0] == "{" or "@" in name:
            raise FormatError(lineno, f"phase name {name!r} must be one token "
                                      "without '@' and not start with '{'")
        if name in model.phase_lines:
            raise FormatError(lineno, f"duplicate phase name {name!r}")
        ids = _ints(idtext, lineno, "phase members must be integer rule ids")
        model.phase_lines[name] = (lineno, ids)
    elif head == "config:" or (head == "config" and rest.startswith(":")):
        toks = rest.lstrip(":").split() if head == "config" else rest.split()
        if len(toks) < 2:
            raise FormatError(lineno, "config needs a state and a phase")
        _symbols(toks[2:], lineno)
        _control(toks[0], lineno)
        model.config_lines.append((lineno, toks))
    else:
        raise FormatError(lineno, f"unknown directive {head!r}")


def print_smpds(doc: SmpdsDocument) -> str:
    m = doc.smpds
    phase_name = _PhaseNames(doc).__getitem__
    lines = [f"state {s}" for s in sorted(m.states)]
    lines += [f"symbol {g}" for g in sorted(m.alphabet)]
    for rid in sorted(m.delta):
        p, gamma, q, word = m.rules[rid]
        lines.append(f"rule {rid}: {p} {gamma} -> {' '.join((q, *word))}")
    for rid in sorted(m.delta_c):
        r = m.rules[rid]
        lines.append(f"smrule {rid}: {r.from_state} ({r.removed} -> {r.added}) {r.to_state}")
    # in declaration order, which the parse keeps: a phase is named after
    # its first-declared name, so sorting the names would rename it
    for name, phase in doc.phase_names.items():
        lines.append(f"phase {name}: {' '.join(map(str, phase))}".rstrip())
    lines += [_config_line(c, phase_name) for c in doc.configs]
    return _text(lines)


def print_configs(configs: Iterable[Configuration], doc: SmpdsDocument) -> str:
    """The `config:` lines of `configs`, sorted; nothing for none."""
    phase_name = _PhaseNames(doc).__getitem__
    lines = [_config_line(c, phase_name) for c in sorted(
        configs, key=lambda c: (len(c.stack), c.state, c.stack, phase_name(c.phase)))]
    return "\n".join([*lines, ""])


def _config_line(c: Configuration, phase_name) -> str:
    return f"config: {c.state} {phase_name(c.phase)} {' '.join(c.stack)}".rstrip()


def _text(lines: list[str]) -> str:
    """The lines, each ended by a newline, joined once; a lone newline
    when there are none."""
    lines.append("")
    return "\n".join(lines) or "\n"


def _one_token(rest: str, lineno: int) -> str:
    toks = rest.split()
    if len(toks) != 1:
        raise FormatError(lineno, "expected exactly one name")
    return toks[0]


def _control(name: str, lineno: int) -> str:
    """A control point's name, which must not read back as part of a
    generated state."""
    if ":" in name:
        raise FormatError(lineno, f"control point {name!r} {_COLON}")
    return name


def _symbols(names: Sequence[str], lineno: int) -> None:
    """Check stack symbols, none of which may read back as an eps label or
    as part of a generated state."""
    if "eps" in names:
        raise FormatError(lineno, _EPS_RESERVED)
    for name in names:
        if ":" in name:
            raise FormatError(lineno, f"stack symbol {name!r} {_COLON}")


def _split_id(rest: str, lineno: int) -> tuple[int, str]:
    idtext, colon, body = rest.partition(":")
    if not colon:
        raise FormatError(lineno, "expected '<id>:'")
    return _int(idtext.strip(), lineno, "rule id must be an integer"), body.strip()


# -- automaton format -------------------------------------------------------

def state_token(q: AutState, doc: SmpdsDocument) -> str:
    return _token(q, doc.phase_name)


def _token(q: AutState, phase_name) -> str:
    if isinstance(q, Initial):
        return f"{q.control}@{phase_name(q.phase)}"
    if isinstance(q, Generated):
        return f"gen:{q.control}:{':'.join(q.prefix)}@{phase_name(q.phase)}"
    return q.name


class _PhaseNames(dict):
    """Phase -> printed name for one output, each phase named once: the
    first-declared name, else the anonymous form.  Every printer, and
    `SmpdsDocument.phase_name`, names phases through one."""

    def __init__(self, doc: SmpdsDocument):
        super().__init__()
        for name, phase in doc.phase_names.items():
            self.setdefault(phase, name)

    def __missing__(self, phase: Phase) -> str:
        name = self[phase] = repr(phase)
        return name


def parse_state_token(token: str, doc: SmpdsDocument, lineno: int = 0) -> AutState:
    if token.startswith("gen:"):
        body, at, phasetok = token[4:].rpartition("@")
        if not at:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        control, *prefix = body.split(":")
        # post* names a generated state after a nonempty pushed prefix
        if not control or not prefix or "" in prefix:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        return Generated(control, tuple(prefix), doc.resolve_phase(phasetok, lineno))
    if "@" in token:
        control, _, phasetok = token.rpartition("@")
        if not control:
            raise FormatError(lineno, f"state {token!r} has no control point")
        return Initial(control, doc.resolve_phase(phasetok, lineno))
    return Plain(token)


# one tuple per line of a cleaned automaton: (src, label, dst, '') for a
# trans line, ('', '', '', line) for any other line
_AUT_LINE = re.compile(rf"(?:{_W}*trans {_W}*(\S+){_W}+(\S+){_W}+(\S+){_W}*|(.*))\n")


@collector_paused
def parse_automaton(text: str, doc: SmpdsDocument) -> PAutomaton:
    aut = PAutomaton(doc.smpds.alphabet)
    # each distinct token is parsed once, phase and all
    states: dict[str, AutState] = {}

    def state(token: str, lineno: int) -> AutState:
        q = states.get(token)
        if q is None:
            q = states[token] = parse_state_token(token, doc, lineno)
        return q

    text = _clean(text)
    lines = _AUT_LINE.findall(text)
    spaced = _spaced_phase(text)
    if spaced:
        # read the lines before it, whose errors come first
        del lines[spaced.lineno - 1:]
    for lineno, (src, label, dst, line) in enumerate(lines, 1):
        if src:
            src = state(src, lineno)
            dst = state(dst, lineno)
            if label == "eps":
                label = EPS
            elif label not in aut.alphabet:
                raise FormatError(lineno, f"unknown symbol {label!r}")
            aut.add_transition(src, label, dst)
            continue
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        toks = rest.split()
        if head == "initial":
            if len(toks) != 2:
                raise FormatError(lineno, "initial needs '<p> <phase>'")
            aut.add_state(Initial(toks[0], doc.resolve_phase(toks[1], lineno)))
        elif head == "final":
            if len(toks) != 1:
                raise FormatError(lineno, "final needs one state")
            aut.add_final(state(toks[0], lineno))
        elif head == "trans":
            raise FormatError(lineno, "trans needs '<state> <label> <state>'")
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    if spaced:
        raise spaced
    return aut


# -- loading a question --------------------------------------------------

def violations(doc: SmpdsDocument) -> list[str]:
    """What `model.validate` reports on a parsed model, then the fault of
    each config line that has one: empty when the document is valid."""
    found = validate(doc.smpds)
    for i, c in enumerate(doc.configs):
        try:
            check_configuration(doc.smpds, c)
        except ValueError as e:
            found.append(f"config {i}: {e}")
    return found


def load(model_text: str, automaton_text: str | None = None
         ) -> tuple[SmpdsDocument, PAutomaton | None]:
    """Parse a model and, when given, an automaton over it; raise a
    ValueError that names every violation unless both validate, so that
    no undeclared control point or rule id reaches a translation or a
    saturation.  The automaton is None when no text is given."""
    doc = parse_smpds(model_text)
    found = violations(doc)
    aut = None
    if not found and automaton_text is not None:
        aut = parse_automaton(automaton_text, doc)
        named = [q for q in aut.states if isinstance(q, (Initial, Generated))]
        found = [f"automaton phase {phase} references unknown rule ids"
                 for phase in sorted({q.phase for q in named}, key=repr)
                 if not doc.smpds.knows(phase)]
        found += sorted(f"automaton state {state_token(q, doc)}: "
                        f"control point {q.control!r} not in P"
                        for q in named if q.control not in doc.smpds.states)
    if found:
        raise ValueError("; ".join(found))
    return doc, aut


def print_automaton(aut: PAutomaton, doc: SmpdsDocument) -> str:
    phase_name = _PhaseNames(doc).__getitem__
    token = {q: _token(q, phase_name) for q in aut.states}
    parts = []
    for q in sorted(aut.initial_states(), key=token.__getitem__):
        parts.append(f"initial {q.control} {phase_name(q.phase)}\n")
    for q in sorted(aut.finals, key=token.__getitem__):
        parts += ("final ", token[q], "\n")
    # in the order of the token triple, not of the line, so eps edges keep
    # their place; a key's lines share its prefix, and the pieces prefix,
    # target, newline of each line are laid out by one slice assignment
    for src, label, dsts in aut.grouped_transitions(token):
        prefix = f"trans {src} {label if label is not None else 'eps'} "
        block = [prefix, "", "\n"] * len(dsts)
        block[1::3] = dsts
        parts += block
    return "".join(parts) or "\n"


def print_dot(aut: PAutomaton, doc: SmpdsDocument) -> str:
    """GraphViz rendering for inspection: each node's ID is the token
    `print_automaton` prints for its state, each ID and label quoted with
    `\\` and `"` escaped."""
    phase_name = _PhaseNames(doc).__getitem__
    name = {q: _dot_escape(_token(q, phase_name)) for q in aut.states}
    finals = aut.finals
    parts = ["digraph pautomaton {\n  rankdir=LR;\n"]
    for q in sorted(name, key=name.__getitem__):
        shape = "doublecircle" if q in finals else "circle"
        style = " style=bold" if isinstance(q, Initial) else ""
        parts.append(f'  "{name[q]}" [shape={shape}{style}];\n')
    # a key's lines share its prefix and suffix, laid out around the
    # targets by one slice assignment
    for src, label, dsts in aut.grouped_transitions(name):
        prefix = f'  "{src}" -> "'
        suffix = f'" [label="{_dot_escape(label) if label is not None else "eps"}"];\n'
        block = [prefix, "", suffix] * len(dsts)
        block[1::3] = dsts
        parts += block
    parts.append("}")
    return "".join(parts)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# -- translated-PDS formats -------------------------------------------------

def print_pds(pds, doc: SmpdsDocument) -> str:
    """Mirror of the model format with paired-state names p@theta."""
    phase_name = _PhaseNames(doc).__getitem__
    lines = []
    for i, ((p, theta), gamma, (q, theta1), word) in enumerate(pds.rules):
        rhs = " ".join((f"{q}@{phase_name(theta1)}", *word))
        lines.append(f"rule {i}: {p}@{phase_name(theta)} {gamma} -> {rhs}")
    return _text(lines)


def print_symbolic_pds(doc: SmpdsDocument) -> str:
    """The plain rules, then the modifying rules, each kind in id order."""
    m = doc.smpds
    lines, gammas = [], sorted(m.alphabet)
    for rid in sorted(m.delta):
        p, gamma, q, word = m.rules[rid]
        rhs = " ".join((q, *word))
        lines.append(f"symrule {len(lines)}: {p} {gamma} -[id({rid})]-> {rhs}")
    for rid in sorted(m.delta_c):
        p, removed, added, q = m.rules[rid]
        rel = f"mod({rid},{removed},{added})"
        for gamma in gammas:
            lines.append(f"symrule {len(lines)}: {p} {gamma} -[{rel}]-> {q} {gamma}")
    return _text(lines)
