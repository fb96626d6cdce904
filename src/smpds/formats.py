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

A phase is referenced by its declared name or, anonymously, as a sorted
rule-id list in braces: {0,2,5}.  Printing is canonical, so parse o print
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import EPS, AutState, Generated, Initial, PAutomaton, Plain
from .model import Configuration, Phase, PdsRule, SelfModRule, SMPDS


class FormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class SmpdsDocument:
    """A parsed model file: the system plus named phases and configurations."""
    smpds: SMPDS
    phase_names: dict[str, Phase] = field(default_factory=dict)
    configs: list[Configuration] = field(default_factory=list)

    def phase_name(self, phase: Phase) -> str:
        for name, ph in self.phase_names.items():
            if ph is phase:
                return name
        return repr(phase)  # the anonymous form {0,2,5}

    def resolve_phase(self, token: str, lineno: int = 0) -> Phase:
        if token.startswith("{") and token.endswith("}"):
            body = token[1:-1]
            ids = [int(t) for t in body.split(",") if t.strip()] if body else []
            return Phase.of(ids)
        if token not in self.phase_names:
            raise FormatError(lineno, f"unknown phase {token!r}")
        return self.phase_names[token]


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_smpds(text: str) -> SmpdsDocument:
    states: set[str] = set()
    alphabet: set[str] = set()
    rules: dict[int, PdsRule | SelfModRule] = {}
    pending_smrules: list[tuple[int, int, str, list[str]]] = []
    phase_lines: list[tuple[int, str, list[int]]] = []
    config_lines: list[tuple[int, list[str]]] = []
    for lineno, line in _content_lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "state":
            states.add(_one_token(rest, lineno))
        elif head == "symbol":
            alphabet.add(_one_token(rest, lineno))
        elif head == "rule":
            rid, body = _split_id(rest, lineno)
            lhs, arrow, rhs = body.partition("->")
            if not arrow:
                raise FormatError(lineno, "rule needs '->'")
            lt = lhs.split()
            rt = rhs.split()
            if len(lt) != 2 or len(rt) < 1:
                raise FormatError(lineno, "malformed rule")
            if rid in rules:
                raise FormatError(lineno, f"duplicate rule id {rid}")
            p, gamma = lt
            rules[rid] = PdsRule(p, gamma, rt[0], tuple(rt[1:]))
            states.update((p, rt[0]))
            alphabet.add(gamma)
            alphabet.update(rt[1:])
        elif head == "smrule":
            rid, body = _split_id(rest, lineno)
            toks = body.replace("(", " ").replace(")", " ").split()
            # <p> <rid1> -> <rid2> <p'>
            if len(toks) != 5 or toks[2] != "->":
                raise FormatError(lineno, "malformed smrule")
            if rid in rules:
                raise FormatError(lineno, f"duplicate rule id {rid}")
            try:
                r1, r2 = int(toks[1]), int(toks[3])
            except ValueError:
                raise FormatError(lineno, "smrule ids must be integers") from None
            rules[rid] = SelfModRule(toks[0], r1, r2, toks[4])
            states.update((toks[0], toks[4]))
        elif head == "phase":
            name, _, idtext = rest.partition(":")
            name = name.strip()
            if not name:
                raise FormatError(lineno, "phase needs a name")
            try:
                ids = [int(t) for t in idtext.split()]
            except ValueError:
                raise FormatError(lineno, "phase members must be integer rule ids") from None
            phase_lines.append((lineno, name, ids))
        elif head == "config:" or (head == "config" and rest.startswith(":")):
            toks = rest.lstrip(":").split() if head == "config" else rest.split()
            if len(toks) < 2:
                raise FormatError(lineno, "config needs a state and a phase")
            config_lines.append((lineno, toks))
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    doc = SmpdsDocument(SMPDS(states, alphabet, rules))
    for lineno, name, ids in phase_lines:
        for rid in ids:
            if rid not in rules:
                raise FormatError(lineno, f"phase {name!r}: unknown rule id {rid}")
        doc.phase_names[name] = Phase.of(ids)
    for lineno, toks in config_lines:
        phase = doc.resolve_phase(toks[1], lineno)
        doc.configs.append(Configuration(toks[0], tuple(toks[2:]), phase))
    return doc


def print_smpds(doc: SmpdsDocument) -> str:
    m = doc.smpds
    lines = []
    for s in sorted(m.states):
        lines.append(f"state {s}")
    for g in sorted(m.alphabet):
        lines.append(f"symbol {g}")
    for rid in sorted(m.delta):
        r = m.rules[rid]
        word = " ".join(r.rhs_word)
        rhs = f"{r.rhs_state} {word}".rstrip()
        lines.append(f"rule {rid}: {r.lhs_state} {r.lhs_symbol} -> {rhs}")
    for rid in sorted(m.delta_c):
        r = m.rules[rid]
        lines.append(f"smrule {rid}: {r.from_state} ({r.removed} -> {r.added}) {r.to_state}")
    for name in sorted(doc.phase_names):
        ids = " ".join(map(str, doc.phase_names[name]))
        lines.append(f"phase {name}: {ids}".rstrip())
    for c in doc.configs:
        stack = " ".join(c.stack)
        lines.append(f"config: {c.state} {doc.phase_name(c.phase)} {stack}".rstrip())
    return "\n".join(lines) + "\n"


def _one_token(rest: str, lineno: int) -> str:
    toks = rest.split()
    if len(toks) != 1:
        raise FormatError(lineno, "expected exactly one name")
    return toks[0]


def _split_id(rest: str, lineno: int) -> tuple[int, str]:
    idtext, colon, body = rest.partition(":")
    if not colon:
        raise FormatError(lineno, "expected '<id>:'")
    try:
        return int(idtext.strip()), body.strip()
    except ValueError:
        raise FormatError(lineno, "rule id must be an integer") from None


# -- automaton format -------------------------------------------------------

def state_token(q: AutState, doc: SmpdsDocument) -> str:
    if isinstance(q, Initial):
        return f"{q.control}@{doc.phase_name(q.phase)}"
    if isinstance(q, Generated):
        return f"gen:{q.control}:{q.symbol}@{doc.phase_name(q.phase)}"
    return q.name


def parse_state_token(token: str, doc: SmpdsDocument, lineno: int = 0) -> AutState:
    if token.startswith("gen:"):
        body, at, phasetok = token[4:].rpartition("@")
        if not at:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        control, colon, symbol = body.partition(":")
        if not colon:
            raise FormatError(lineno, f"malformed generated state {token!r}")
        return Generated(control, symbol, doc.resolve_phase(phasetok, lineno))
    if "@" in token:
        control, _, phasetok = token.rpartition("@")
        return Initial(control, doc.resolve_phase(phasetok, lineno))
    return Plain(token)


def parse_automaton(text: str, doc: SmpdsDocument) -> PAutomaton:
    aut = PAutomaton(doc.smpds.alphabet)
    # each distinct token is parsed once, phase and all
    states: dict[str, AutState] = {}

    def state(token: str, lineno: int) -> AutState:
        q = states.get(token)
        if q is None:
            q = states[token] = parse_state_token(token, doc, lineno)
        return q

    for lineno, line in _content_lines(text):
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
            if len(toks) != 3:
                raise FormatError(lineno, "trans needs '<state> <label> <state>'")
            src = state(toks[0], lineno)
            dst = state(toks[2], lineno)
            label = EPS if toks[1] == "eps" else toks[1]
            if label is not EPS and label not in aut.alphabet:
                raise FormatError(lineno, f"unknown symbol {toks[1]!r}")
            aut.add_transition(src, label, dst)
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    return aut


def print_automaton(aut: PAutomaton, doc: SmpdsDocument) -> str:
    token = {q: state_token(q, doc) for q in aut.states}
    lines = []
    for q in sorted(aut.initial_states(), key=token.__getitem__):
        lines.append(f"initial {q.control} {doc.phase_name(q.phase)}")
    for q in sorted(aut.finals, key=token.__getitem__):
        lines.append(f"final {token[q]}")
    # sorted on the token triple, not the line, so eps edges keep their place
    for src, label, dst in sorted(
            aut.transitions, key=lambda t: (token[t[0]], t[1] or "", token[t[2]])):
        lines.append(f"trans {token[src]} "
                     f"{label if label is not None else 'eps'} {token[dst]}")
    return "\n".join(lines) + "\n"


# -- translated-PDS format --------------------------------------------------

def print_pds(pds, doc: SmpdsDocument) -> str:
    """Mirror of the model format with paired-state names p@theta."""
    def sname(s):
        return f"{s[0]}@{doc.phase_name(s[1])}"

    lines = []
    for i, r in enumerate(pds.rules):
        word = " ".join(r.rhs_word)
        rhs = f"{sname(r.rhs_state)} {word}".rstrip()
        lines.append(f"rule {i}: {sname(r.lhs_state)} {r.lhs_symbol} -> {rhs}")
    return "\n".join(lines) + "\n"


def print_symbolic_pds(spds, doc: SmpdsDocument) -> str:
    lines = []
    for i, r in enumerate(spds.rules):
        word = " ".join(r.rhs_word)
        rel = (f"id({r.rel.guard})" if r.rel.__class__.__name__ == "Identity"
               else f"mod({r.rel.guard},{r.rel.removed},{r.rel.added})")
        rhs = f"{r.rhs_state} {word}".rstrip()
        lines.append(f"symrule {i}: {r.lhs_state} {r.lhs_symbol} -[{rel}]-> {rhs}")
    return "\n".join(lines) + "\n"
