from pathlib import Path

import pytest

from smpds import Configuration, PdsRule, from_configs, poststar, validate
from smpds.asm import (
    RET,
    AsmError,
    compile_program,
    parse_program,
)

from oracles import raw_reach

SAMPLES = Path(__file__).parent.parent / "samples"


def test_parse_simple_program():
    prog = parse_program("entry a\na: push 1\nb: pop\nc: halt\n")
    assert prog.entry == "a"
    assert [i.opcode for i in prog.instructions] == ["push", "pop", "halt"]


def test_parse_comments_and_blank_lines():
    prog = parse_program("# header\nentry a\n\na: nop  # trailing\n")
    assert len(prog.instructions) == 1


@pytest.mark.parametrize("text", ["entry\ta\na: nop\n", "entry \t a\na: nop\n",
                                  "\tentry\ta\t# tabs\na:\tnop\n"])
def test_entry_directive_takes_any_whitespace(text):
    prog = parse_program(text)
    assert prog.entry == "a"
    assert [i.opcode for i in prog.instructions] == ["nop"]


@pytest.mark.parametrize("text,fragment", [
    ("a: nop\n", "entry"),
    ("entry a\n", "no instructions"),
    ("entry a\na: frobnicate\n", "unknown opcode"),
    ("entry a\na: push\n", "operand"),
    ("entry a\na: jmp nowhere\n", "unresolved label"),
    ("entry zz\na: nop\n", "unresolved entry"),
    ("entry a\na: nop\na: nop\n", "duplicate label"),
    ("entry a\na: selfmod b selfmod c\nb: nop\n", "needs a target"),
    ("entry a\na: selfmod b frob\nb: nop\n", "unknown opcode"),
    ("entry a\na: push 1\nb: ret\n__ret: jmp a\n", "names a compiler state"),
    ("entry a\na: jmp __halt\n__halt: nop\n", "names a compiler state"),
    # a label is one token, in an instruction and in the entry directive
    ("entry c\nc: nop\na b: halt\n", "line 3: an instruction needs exactly one label"),
    ("entry c\nc: nop\n: halt\n", "line 3: an instruction needs exactly one label"),
    ("entry a b\na: nop\n", "line 1: entry needs exactly one label"),
    ("entry\ta\tb\na: nop\n", "line 1: entry needs exactly one label"),
    ("entry a\nentry\ta\na: nop\n", "line 2: duplicate entry directive"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(AsmError) as exc:
        parse_program(text)
    assert fragment in str(exc.value)


def test_error_carries_line_number():
    with pytest.raises(AsmError) as exc:
        parse_program("entry a\na: nop\nb: frob\n")
    assert exc.value.lineno == 3


def test_meta_selfmod_parses_and_compiles_only_erased():
    text = "entry a\na: selfmod b selfmod c nop\nb: nop\nc: nop\n"
    prog = parse_program(text)
    assert prog.instructions[0].operands[1] == "selfmod"
    with pytest.raises(AsmError, match="compiles only with --erase-selfmod") as exc:
        compile_program(prog)
    assert exc.value.lineno == 2
    assert not compile_program(prog, erase_selfmod=True).smpds.delta_c


def test_compiled_model_is_valid():
    for path in sorted(SAMPLES.glob("*.sasm")):
        prog = parse_program(path.read_text())
        cp = compile_program(prog)
        rep = validate(cp.smpds)
        assert rep.ok, (path.name, rep.violations)


def test_one_primary_rule_per_instruction():
    text = "entry a\na: push 1\nb: jmp d\nc: pop\nd: halt\n"
    cp = compile_program(parse_program(text))
    assert set(cp.rule_for_label) == {"a", "b", "c", "d"}


def test_replacement_rule_disabled_initially():
    prog = parse_program((SAMPLES / "unlock.sasm").read_text())
    cp = compile_program(prog)
    enabled = set(cp.initial_phase.members)
    # exactly one rule (the gate replacement) is compiled but not enabled
    disabled = set(cp.smpds.rules) - enabled
    assert len(disabled) == 1


def test_call_and_ret_pair():
    text = ("entry main\n"
            "main: call sub\n"
            "back: jmp end\n"
            "sub:  push 9\n"
            "s2:   pop\n"
            "s3:   ret\n"
            "end:  halt\n")
    cp = compile_program(parse_program(text))
    configs, truncated = raw_reach(cp.smpds, cp.entry_config, 8, 20000)
    assert not truncated
    states = {c.state for c in configs}
    assert "sub" in states and "back" in states and "end" in states
    # the stack is balanced again at end
    assert any(c.state == "end" and c.stack == ("D", "Z") for c in configs)


def test_every_ret_shares_one_helper_per_return_address():
    text = ("entry main\n"
            "main: call f\n"
            "m1:   call g\n"
            "m2:   call h\n"
            "m3:   call f\n"
            "m4:   halt\n"
            "f:    ret\n"
            "g:    ret\n"
            "h:    ret\n")
    cp = compile_program(parse_program(text))
    # three rets and four call sites: four helpers, not one per pair
    helpers = {rid: r for rid, r in cp.smpds.rules.items()
               if isinstance(r, PdsRule) and r.lhs_symbol.startswith("ra_")}
    assert sorted(r.rhs_state for r in helpers.values()) == ["m1", "m2", "m3", "m4"]
    assert {r.lhs_state for r in helpers.values()} == {RET}
    assert all(rid in cp.initial_phase for rid in helpers)
    configs, _ = raw_reach(cp.smpds, cp.entry_config, 8, 20000)
    assert any(c.state == "m4" and c.stack == ("D", "Z") for c in configs)


def test_selfmod_reachability_flips():
    cases = {
        "unlock.sasm": ("hidden", True, False),
        "gate_removal.sasm": ("hidden", True, False),
        "lockout.sasm": ("hidden", False, True),
        "loop_rewrite.sasm": ("done", True, False),
        "call_patch.sasm": ("helper2", True, False),
        "unhalt.sasm": ("extra", True, False),
    }
    for name, (label, with_sm, erased) in cases.items():
        prog = parse_program((SAMPLES / name).read_text())
        for erase, want in ((False, with_sm), (True, erased)):
            cp = compile_program(prog, erase_selfmod=erase)
            if erase:
                assert not cp.smpds.delta_c
            sat = poststar(cp.smpds, from_configs(cp.smpds, [cp.entry_config]))
            assert sat.control_reachable(label) == want, (name, erase)


def test_compiled_semantics_match_saturation():
    for path in sorted(SAMPLES.glob("*.sasm")):
        prog = parse_program(path.read_text())
        cp = compile_program(prog)
        configs, truncated = raw_reach(cp.smpds, cp.entry_config, 8, 20000)
        assert not truncated, path.name
        sat = poststar(cp.smpds, from_configs(cp.smpds, [cp.entry_config]))
        for c in configs:
            assert sat.accepts(c), (path.name, c)
