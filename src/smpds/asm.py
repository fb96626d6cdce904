"""A toy self-modifying assembly language and its SM-PDS compilation.

Program syntax ('#' starts a comment, one instruction per line):

    entry <label>
    <label>: <opcode> [operands]

Opcodes:

    push <v>        push a data cell
    pop             pop a data cell
    jmp <label>     unconditional jump
    call <label>    push a return address and jump
    ret             return to the pushed address
    nop             do nothing
    selfmod <label> <opcode> [operands]
                    overwrite the instruction at <label> with the given one
    halt            stop

Compilation keeps a single generic data symbol on top of the stack, so
every instruction maps to one pushdown rule keyed on that symbol.  A
'call' pushes a return-address symbol for its fallthrough, and every
'ret' pops to one shared dispatch state, which has one helper rule per
distinct return address; helpers are always enabled and cannot be the
target of a 'selfmod'.  'selfmod' becomes a rule-set change: the rule
compiled for the target label is removed and the replacement rule is
added.  Replacement rules fall through to the target's successor.  A
target that is itself a 'selfmod' loses its rule-set change, whichever
of the two lines comes first; the halt state is no target.  A
'selfmod' whose instruction is itself a 'selfmod' parses, its innermost
instruction checked, but compiles only when every 'selfmod' is erased.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formats import FormatError
from .model import Configuration, Phase, PdsRule, RuleId, SelfModRule, SMPDS

DATA = "D"      # generic data/stack-frame symbol
BOTTOM = "Z"    # stack bottom marker
HALT = "__halt"
RET = "__ret"   # the dispatch state every 'ret' pops to

OPCODES = {"push": 1, "pop": 0, "jmp": 1, "call": 1, "ret": 0,
           "nop": 0, "halt": 0}


class AsmError(FormatError):
    """A line-numbered error in a program text."""


@dataclass(frozen=True)
class Instruction:
    label: str
    opcode: str
    operands: tuple[str, ...]
    lineno: int = 0


@dataclass
class Program:
    entry: str
    instructions: list[Instruction]

    def labels(self) -> dict[str, int]:
        return {ins.label: i for i, ins in enumerate(self.instructions)}


def parse_program(text: str) -> Program:
    entry = None
    instructions: list[Instruction] = []
    # the labels each instruction names, for the check once all are known
    named: list[tuple[str, ...]] = []
    labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # the directive word is followed by any whitespace, a tab too
        directive = line.split(None, 1)
        if len(directive) == 2 and directive[0] == "entry":
            if entry is not None:
                raise AsmError(lineno, "duplicate entry directive")
            entry = _one_label(directive[1], lineno, "entry")
            continue
        label, colon, body = line.partition(":")
        if not colon:
            raise AsmError(lineno, "expected '<label>: <opcode> ...'")
        label = _one_label(label, lineno, "an instruction")
        if label in (HALT, RET):
            raise AsmError(lineno, f"label {label!r} names a compiler state")
        if label in labels:
            raise AsmError(lineno, f"duplicate label {label!r}")
        labels.add(label)
        toks = body.split()
        if not toks:
            raise AsmError(lineno, "missing opcode")
        op, operands = toks[0], tuple(toks[1:])
        named.append(_check_body(lineno, op, operands))
        instructions.append(Instruction(label, op, operands, lineno))
    if not instructions:
        raise AsmError(0, "program has no instructions")
    if entry is None:
        raise AsmError(0, "program has no entry directive")
    labels.add(HALT)
    for ins, targets in zip(instructions, named):
        for target in targets:
            if target not in labels:
                raise AsmError(ins.lineno, f"unresolved label {target!r}")
    if entry not in labels:
        raise AsmError(0, f"unresolved entry label {entry!r}")
    return Program(entry, instructions)


def _one_label(text: str, lineno: int, what: str) -> str:
    """The one token in `text`: a label names a control point."""
    toks = text.split()
    if len(toks) != 1:
        raise AsmError(lineno, f"{what} needs exactly one label, not {text.strip()!r}")
    return toks[0]


def _check_body(lineno: int, op: str, operands: tuple[str, ...]) -> tuple[str, ...]:
    """Check an opcode and its operand count; a selfmod's instruction is
    checked the same way, down to the innermost one, in a loop, so that no
    nesting depth reaches the recursion limit.  Returns the labels the
    instruction names, a selfmod's instruction included, outermost first."""
    i = 0   # operands[i:] are the operands of op
    while op == "selfmod":
        if len(operands) - i < 2:
            raise AsmError(lineno, "selfmod needs a target label and an instruction")
        op = operands[i + 1]
        i += 2
    if op not in OPCODES:
        raise AsmError(lineno, f"unknown opcode {op!r}")
    if len(operands) - i != OPCODES[op]:
        raise AsmError(lineno, f"{op!r} takes {OPCODES[op]} operand(s)")
    # each selfmod's target sits two operands after the previous one's
    targets = operands[:i:2]
    return targets + operands[i:] if op in ("jmp", "call") else targets


@dataclass
class CompiledProgram:
    smpds: SMPDS
    rule_for_label: dict[str, RuleId]
    initial_phase: Phase
    entry_config: Configuration = None


def compile_program(prog: Program, erase_selfmod: bool = False) -> CompiledProgram:
    """Compile to an SM-PDS.  Control states are instruction labels.

    With erase_selfmod=True every 'selfmod' is compiled as a 'nop',
    producing an ordinary (non-modifying) model for comparison runs.
    """
    labels = prog.labels()
    order = prog.instructions

    def succ(i: int) -> str:
        return order[i + 1].label if i + 1 < len(order) else HALT

    states = {ins.label for ins in order} | {HALT}
    alphabet = {DATA, BOTTOM}
    # the fallthroughs of the compiled calls, one return address each
    call_fallthroughs: set[str] = set()
    rules: dict[RuleId, PdsRule | SelfModRule] = {}
    rule_for_label: dict[str, RuleId] = {}
    initial_ids: list[RuleId] = []
    next_id = 0

    def add(rule, enabled: bool = True, primary_label: str | None = None) -> RuleId:
        nonlocal next_id
        rid = next_id
        next_id += 1
        rules[rid] = rule
        if enabled:
            initial_ids.append(rid)
        if primary_label is not None:
            rule_for_label[primary_label] = rid
        return rid

    def body_rule(label: str, op: str, operands: tuple[str, ...],
                  fallthrough: str) -> PdsRule:
        if op == "push":
            return PdsRule(label, DATA, fallthrough, (DATA, DATA))
        if op == "pop":
            return PdsRule(label, DATA, fallthrough, ())
        if op == "jmp":
            return PdsRule(label, DATA, operands[0], (DATA,))
        if op == "call":
            call_fallthroughs.add(fallthrough)
            ret_sym = f"ra_{fallthrough}"
            alphabet.add(ret_sym)
            return PdsRule(label, DATA, operands[0], (DATA, ret_sym))
        if op == "ret":
            states.add(RET)
            return PdsRule(label, DATA, RET, ())
        if op in ("nop", "halt"):
            target = fallthrough if op == "nop" else label
            return PdsRule(label, DATA, target, (DATA,))
        raise AsmError(0, f"cannot compile opcode {op!r}")

    # first pass: primary rule per instruction
    selfmods: list[tuple[Instruction, str]] = []
    for i, ins in enumerate(order):
        fall = succ(i)
        if ins.opcode == "selfmod" and not erase_selfmod:
            selfmods.append((ins, fall))
            continue
        op = "nop" if ins.opcode == "selfmod" else ins.opcode
        add(body_rule(ins.label, op, ins.operands, fall),
            primary_label=ins.label)

    # selfmod instructions: one rule-set change plus the disabled
    # replacement.  Every id is handed out before any target is resolved,
    # so a selfmod may target a selfmod on any line.
    changes: list[tuple[RuleId, str, str, RuleId, str]] = []
    for ins, fall in selfmods:
        if ins.operands[1] == "selfmod":
            raise AsmError(ins.lineno, "selfmod of a selfmod instruction "
                           "compiles only with --erase-selfmod")
        target = ins.operands[0]
        if target == HALT:
            raise AsmError(ins.lineno, f"{HALT!r} is the halt state, not an instruction")
        replacement = add(body_rule(target, ins.operands[1], ins.operands[2:],
                                    succ(labels[target])), enabled=False)
        rid = add(None, primary_label=ins.label)
        changes.append((rid, ins.label, target, replacement, fall))
    for rid, label, target, replacement, fall in changes:
        rules[rid] = SelfModRule(label, rule_for_label[target], replacement, fall)

    # return dispatch helpers, one per return address: always enabled,
    # never selfmod targets
    if RET in states:
        for fall in sorted(call_fallthroughs):
            add(PdsRule(RET, f"ra_{fall}", fall, (DATA,)))

    smpds = SMPDS(states, alphabet, rules)
    phase = Phase.of(initial_ids)
    entry = Configuration(prog.entry, (DATA, BOTTOM), phase)
    return CompiledProgram(smpds, rule_for_label, phase, entry)
