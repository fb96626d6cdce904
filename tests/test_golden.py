"""CLI outputs compared byte for byte with expected files in tests/golden/.

The first expected files were captured before automaton states were
interned, the gen22, gen55.poststar.prestar and eps_mid.prestar ones from
the per-transition engines before the set-at-a-time rewrite,
gen55.translate before `to_pds` shared its paired states,
selfmod.translate before `phase_closure` searched on masks,
bitorder.translate before the paired rules were built from mask bits,
the two eps-edged enumerate ones before `PAutomaton` had one
eps-closed step, the twonames ones before every printer named phases
through one table, groups.translate before `phase_closure` searched
each group of interacting modifying rules apart, and the asm2smpds ones before `print_smpds` printed
its phase lines in declaration order, so they pin the printers'
canonical order and every saturation's result independently of set
iteration and worklist order.  The four dot ones were rewritten when
`--dot` took the text format's state tokens as node names, which
renamed their nodes one to one and changed nothing else.  After a deliberate change of output,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smpds
from smpds.cli import main

from fixtures import multi_phase_target

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
MODEL = "samples/example1.smpds"
TARGET = "samples/example1_target.aut"
INITIAL = "tests/golden/example1_initial.aut"
GEN_MODEL = "tests/golden/gen55.smpds"
GEN_AUT = "tests/golden/gen55.aut"
EMPTY_MODEL = "tests/golden/gen22.smpds"
EMPTY_AUT = "tests/golden/gen22.aut"
MULTI_EPS_MODEL = "tests/golden/multi_eps.smpds"
MULTI_EPS_AUT = "tests/golden/multi_eps.aut"
EPS_MID_MODEL = "tests/golden/eps_mid.smpds"
EPS_MID_AUT = "tests/golden/eps_mid.aut"
SELFMOD_MODEL = "tests/golden/selfmod.smpds"
WIDE_MODEL = "tests/golden/wide.smpds"
WIDE_AUT = "tests/golden/wide.aut"
TWONAMES_MODEL = "tests/golden/twonames.smpds"

# expected file -> CLI arguments (paths relative to the repository root)
CASES = {
    "example1.prestar": ["prestar", MODEL, TARGET],
    "example1.poststar": ["poststar", MODEL, TARGET],
    "example1.poststar.dot": ["poststar", MODEL, TARGET, "--dot"],
    "example1_initial.poststar": ["poststar", MODEL, INITIAL],
    "example1_initial.poststar.dot": ["poststar", MODEL, INITIAL, "--dot"],
    "example1.enumerate": ["enumerate", MODEL, TARGET, "--max-len", "3"],
    "example1.translate": ["translate", MODEL],
    "example1.translate_symbolic": ["translate", MODEL, "--symbolic"],
    # a generated post* instance whose result has eps edges and gen: states
    "gen55.poststar": ["poststar", GEN_MODEL, GEN_AUT],
    "gen55.poststar.dot": ["poststar", GEN_MODEL, GEN_AUT, "--dot"],
    "gen55.prestar": ["prestar", GEN_MODEL, GEN_AUT],
    # seven phases, two modifying rules: paired rules across phases
    "gen55.translate": ["translate", GEN_MODEL],
    # one guarded rule per plain rule, and four (one per symbol) per
    # modifying rule
    "gen55.translate_symbolic": ["translate", GEN_MODEL, "--symbolic"],
    # pre* of a post* result: eps edges and gen: states in the input
    "gen55.poststar.prestar": ["prestar", GEN_MODEL,
                               "tests/golden/gen55.poststar.out"],
    # modifying rules firing on the empty stack in both directions
    "gen22.prestar": ["prestar", EMPTY_MODEL, EMPTY_AUT],
    "gen22.poststar": ["poststar", EMPTY_MODEL, EMPTY_AUT],
    # an initial state with two final eps-targets fires a modifying rule
    # on the empty stack
    "multi_eps.poststar": ["poststar", MULTI_EPS_MODEL, MULTI_EPS_AUT],
    # pre* of an input with an eps edge between two symbol edges
    "eps_mid.prestar": ["prestar", EPS_MID_MODEL, EPS_MID_AUT],
    # enumeration over eps-edged automata: a post* result with gen: states,
    # and an input with an eps edge between two symbol edges
    "gen55.poststar.enumerate": ["enumerate", GEN_MODEL,
                                 "tests/golden/gen55.poststar.out",
                                 "--max-len", "3"],
    "eps_mid.enumerate": ["enumerate", EPS_MID_MODEL, EPS_MID_AUT,
                          "--max-len", "3"],
    # a modifying rule that removes itself, saturated as it is
    "selfmod.prestar": ["prestar", SELFMOD_MODEL, "tests/golden/selfmod_target.aut"],
    "selfmod.poststar": ["poststar", SELFMOD_MODEL,
                         "tests/golden/selfmod_initial.aut"],
    # the self-removing rule through the phase closure, its paired-rule
    # count and the printer
    "selfmod.translate": ["translate", SELFMOD_MODEL],
    "selfmod.translate_symbolic": ["translate", SELFMOD_MODEL, "--symbolic"],
    # modifying rules with high ids that remove and add lower ids come
    # first, so mask bits are out of id order: each phase's rules still
    # print in id order
    "bitorder.translate": ["translate", "tests/golden/bitorder.smpds"],
    "bitorder.translate_symbolic": ["translate", "tests/golden/bitorder.smpds",
                                    "--symbolic"],
    # modifying rules in two groups, one of overlapping rules and one of
    # two rules chained through a third, and a rule in neither: the
    # closure is the product of the groups' parts
    "groups.translate": ["translate", "tests/golden/groups.smpds"],
    # a rule pushing three symbols, which a modifying rule enables:
    # pre* follows the word, post* builds the chain gen:q:b@th, gen:q:b:b@th
    "wide.prestar": ["prestar", WIDE_MODEL, WIDE_AUT],
    "wide.poststar": ["poststar", WIDE_MODEL, WIDE_AUT],
    # a pop rule into a state that reaches no final state: pre* keeps no
    # transition into it
    "deadpop.prestar": ["prestar", "tests/golden/deadpop.smpds",
                        "tests/golden/deadpop_target.aut"],
    # a quote in a control point and a backslash in a stack symbol and in
    # a state name, escaped in the dot output's quoted IDs
    "quote.poststar.dot": ["poststar", "tests/golden/quote.smpds",
                           "tests/golden/quote.aut", "--dot"],
    # one phase under two names, and closure phases with none: each
    # printer names a phase by its first-declared name, else anonymously
    "twonames.translate": ["translate", TWONAMES_MODEL],
    "twonames.prestar": ["prestar", TWONAMES_MODEL, "tests/golden/twonames_target.aut"],
    "twonames.enumerate": ["enumerate", TWONAMES_MODEL,
                           "tests/golden/twonames.prestar.out", "--max-len", "3"],
    # each sample program compiled as it is, and with every selfmod erased
    **{f"{name}.asm2smpds{suffix}": ["asm2smpds", f"samples/{name}.sasm", *options]
       for name in ("call_patch", "gate_removal", "lockout", "loop_rewrite",
                    "unhalt", "unlock")
       for suffix, options in (("", []), ("_erased", ["--erase-selfmod"]))},
}


def _run(args: list[str]) -> str:
    argv = [str(ROOT / a) if a.startswith(("samples/", "tests/")) else a
            for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert _run(CASES[name]) == expected


def test_poststar_output_is_the_same_in_fresh_interpreters():
    """Set order follows object addresses, which differ from process to
    process; the output must not depend on it."""
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "smpds.cli", "poststar",
            str(ROOT / MULTI_EPS_MODEL), str(ROOT / MULTI_EPS_AUT)]
    outputs = {subprocess.run(argv, env=env, capture_output=True,
                              check=True).stdout
               for _ in range(6)}
    assert outputs == {(GOLDEN / "multi_eps.poststar.out").read_bytes()}


def test_outputs_at_benchmark_size_are_the_same_in_fresh_interpreters(tmp_path):
    """An automaton numbers its states in insertion order, which follows
    set order, which changes with PYTHONHASHSEED and with object
    addresses; the printed results must not.  The instances are those of
    the post* and the pre* benchmark pools, rendered as the benchmark
    renders them.  post* of the second one is left out: from the
    all-rules phase its ten modifying rules reach too many phases.  pre*
    of the first one runs twice, at the generated target's all-rules
    phase, where it stays in one phase, and at the smallest phase post*
    reaches, which prints in its anonymous {...} form."""
    from smpds import formats
    from smpds.bench import GenParams, generate

    runs = []
    post = generate(GenParams(4, 4, 54, 4, seed=2))
    pre = generate(GenParams(8, 8, 1009, 10, seed=1))
    for name, inst, queries in (
            ("post", post, [("poststar", post.initial), ("prestar", post.target),
                            ("prestar", multi_phase_target(post))]),
            ("pre", pre, [("prestar", pre.target)])):
        doc = formats.SmpdsDocument(inst.smpds, {"init": inst.initial.phase},
                                    [inst.initial, inst.target])
        model = tmp_path / f"{name}.smpds"
        model.write_text(formats.print_smpds(doc))
        for k, (op, source) in enumerate(queries):
            aut = tmp_path / f"{name}.{k}.aut"
            aut.write_text(formats.print_automaton(
                smpds.from_configs(inst.smpds, [source]), doc))
            runs.append([sys.executable, "-m", "smpds.cli", op, str(model), str(aut)])
    src = str(Path(smpds.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in runs:
        outputs = {subprocess.run(argv, capture_output=True, check=True,
                                  env={**os.environ, "PYTHONPATH": path,
                                       "PYTHONHASHSEED": str(seed)}).stdout
                   for seed in range(3)}
        assert len(outputs) == 1 and b"trans " in next(iter(outputs)), argv[-3:]


def test_generated_instance_has_eps_edges_and_generated_states():
    text = (GOLDEN / "gen55.poststar.out").read_text()
    assert " eps " in text and "gen:" in text


if __name__ == "__main__":
    for name, args in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_run(args))
        print(f"wrote {name}.out")
