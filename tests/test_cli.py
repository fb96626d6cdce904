import gc
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import smpds
from smpds import Configuration, Phase, check, from_configs
from smpds.bench import GenParams, generate
from smpds.cli import main
from smpds.formats import (SmpdsDocument, load, parse_automaton, parse_smpds,
                           print_automaton, print_smpds)
from smpds.poststar import poststar

from oracles import raw_reach
from test_formats import documents, dot_graph
from test_formats_reference import _decorate, _mutate, bench_documents
from test_golden import CASES, ROOT

SAMPLES = Path(__file__).parent.parent / "samples"
MODEL = str(SAMPLES / "example1.smpds")
TARGET = str(SAMPLES / "example1_target.aut")
GOLDEN = Path(__file__).parent / "golden"


def test_validate_ok(capsys):
    assert main(["validate", MODEL]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.smpds"
    bad.write_text("rule 0: p a -> q\nsmrule 1: p (7 -> 0) q\n")
    assert main(["validate", str(bad)]) == 1
    assert "dangling" in capsys.readouterr().err


def test_validate_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.smpds"
    bad.write_text("rule zero: p a -> q\n")
    assert main(["validate", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_prestar_writes_automaton(tmp_path, capsys):
    out = tmp_path / "out.aut"
    assert main(["prestar", MODEL, TARGET, "-o", str(out)]) == 0
    text = out.read_text()
    assert "initial p1 theta0" in text
    assert "trans" in text


def test_prestar_dot_output(capsys):
    assert main(["prestar", MODEL, TARGET, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_dot_draws_one_node_per_state(tmp_path, capsys):
    """post* generates the state of `p` for the push of `g`, and the model
    has a control point `q[p,g]`: the dot output names each by its text
    token, so the two stay two nodes."""
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: s a -> p g a\nrule 1: q[p,g] a -> q[p,g] a\n"
                     "phase th: 0 1\n")
    aut = tmp_path / "a.aut"
    aut.write_text("initial s th\ninitial q[p,g] th\ntrans s@th a f\n"
                   "trans q[p,g]@th a f\nfinal f\n")
    doc = parse_smpds(model.read_text())
    result = poststar(doc.smpds, parse_automaton(aut.read_text(), doc))
    assert main(["poststar", str(model), str(aut), "--dot"]) == 0
    nodes, edges = dot_graph(capsys.readouterr().out)
    ids = {node[0] for node in nodes}
    assert len(ids) == len(nodes) == len(result.states)
    assert {"gen:p:g@th", "q[p,g]@th"} <= ids
    assert len(set(edges)) == len(edges) == result.transition_count()


def test_poststar_runs(capsys):
    assert main(["poststar", MODEL, TARGET]) == 0
    assert "trans" in capsys.readouterr().out


def test_stats_flag(tmp_path, capsys):
    assert main(["--stats", "prestar", MODEL, TARGET]) == 0
    assert "transitions added" in capsys.readouterr().err
    # config 0 is a pre*-member of the target, config 1 a post*-member
    for direction, config in (("pre", "0"), ("post", "1")):
        assert main(["--stats", "check", MODEL, TARGET, "--config", config,
                     "--direction", direction]) == 0
        out = capsys.readouterr()
        assert out.out == "member\n"
        lines = out.err.splitlines()
        assert len(lines) == 4 and all(re.fullmatch(
            r"(transitions added|finals added|phases|wall seconds): [0-9.]+", line)
            for line in lines), lines
    # a non-member keeps exit code 1 and still reports
    aut = tmp_path / "t.aut"
    aut.write_text("initial p1 theta0\nfinal acc\ntrans p1@theta0 g3 acc\n")
    model = tmp_path / "m.smpds"
    model.write_text(Path(MODEL).read_text() + "config: p2 theta0 g1 g1\n")
    for direction in ("pre", "post"):
        assert main(["--stats", "check", str(model), str(aut), "--config", "2",
                     "--direction", direction]) == 1
        out = capsys.readouterr()
        assert out.out == "non-member\n" and "transitions added" in out.err


def test_wide_push_validates_and_post_star_reaches_its_end(tmp_path, capsys):
    """A rule pushing three symbols validates with no warning, and post*
    from (<s, a>, start) reaches (<q, b b b>, th)."""
    wide = str(GOLDEN / "wide.smpds")
    assert main(["validate", wide]) == 0
    assert "warning" not in capsys.readouterr().err
    start = tmp_path / "start.aut"
    start.write_text("initial s start\ntrans s@start a f\nfinal f\n")
    assert main(["check", wide, str(start), "--config", "1", "--direction", "post"]) == 0
    assert capsys.readouterr().out == "member\n"


def test_check_membership_exit_codes(capsys):
    # config 0 = the initial configuration, a pre*-member of the target
    assert main(["check", MODEL, TARGET, "--config", "0",
                 "--direction", "pre"]) == 0
    assert "member" in capsys.readouterr().out
    # config 1 = the final configuration, in post* of itself but the
    # initial configuration is not
    assert main(["check", MODEL, TARGET, "--config", "1",
                 "--direction", "post"]) == 0


def test_check_non_member(tmp_path, capsys):
    aut = tmp_path / "t.aut"
    # accepts only (<p1, g3>, theta0), unreachable from anywhere useful
    aut.write_text("initial p1 theta0\nfinal acc\ntrans p1@theta0 g3 acc\n")
    model = tmp_path / "m.smpds"
    model.write_text(Path(MODEL).read_text()
                     + "config: p2 theta0 g1 g1\n")
    assert main(["--quiet", "check", str(model), str(aut), "--config", "2",
                 "--direction", "pre"]) == 1


def test_check_forward_reachability(tmp_path, capsys):
    # automaton accepting the initial configuration; post-direction check
    # decides reachability
    aut = tmp_path / "init.aut"
    aut.write_text("initial p1 theta0\nfinal acc\n"
                   "trans p1@theta0 g1 mid\ntrans mid g1 acc\n")
    model = tmp_path / "m.smpds"
    model.write_text(Path(MODEL).read_text() + "config: p3 theta1 g3 g3\n")
    assert main(["--quiet", "check", str(model), str(aut), "--config", "1",
                 "--direction", "post"]) == 0    # (<p3, g3 g1>, theta1): yes
    assert main(["--quiet", "check", str(model), str(aut), "--config", "2",
                 "--direction", "post"]) == 1    # (<p3, g3 g3>, theta1): no


def test_self_removing_rule_is_answered(capsys):
    """smrule 1 removes itself: the model validates without a warning, and
    `check` answers in both directions what the oracle says."""
    model = str(GOLDEN / "selfmod.smpds")
    assert main(["validate", model]) == 0
    assert capsys.readouterr().err == ""
    doc = parse_smpds(Path(model).read_text())
    m, (start, reached, unreached) = doc.smpds, doc.configs
    reach, truncated = raw_reach(m, start, 3, 1000)
    assert not truncated and reached in reach and unreached not in reach
    unreached_reach, _ = raw_reach(m, unreached, 3, 1000)
    assert reached not in unreached_reach
    # post* of the start (config 0), and pre* of `reached` (config 1)
    for direction, aut, config, code in (("post", "initial", 1, 0),
                                         ("post", "initial", 2, 1),
                                         ("pre", "target", 0, 0),
                                         ("pre", "target", 2, 1)):
        assert main(["--quiet", "check", model,
                     str(GOLDEN / f"selfmod_{aut}.aut"), "--config", str(config),
                     "--direction", direction]) == code


def test_check_error_exit_2(capsys):
    assert main(["check", "/nonexistent.smpds", TARGET]) == 2


@pytest.mark.parametrize("command", ["check", "prestar", "poststar", "enumerate"])
def test_model_and_automaton_both_on_stdin_exit_2(command, monkeypatch, capsys):
    """The model would consume stdin and the automaton parse as empty
    text, so `check` answered "non-member" and `prestar` printed an empty
    automaton: the pair is refused before either is read."""
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(MODEL).read_text()))
    assert main([command, "-", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: MODEL and AUTOMATON cannot both be '-'")


@pytest.fixture
def utf8_case(tmp_path):
    """The sample model and target with `g3` renamed `é`, the command that
    runs this checkout's CLI, and its environments: the default one, and
    the C locale with the interpreter's UTF-8 mode and locale coercion
    off."""
    model, aut = tmp_path / "m.smpds", tmp_path / "t.aut"
    model.write_text(Path(MODEL).read_text().replace("g3", "é"), encoding="utf-8")
    aut.write_text(Path(TARGET).read_text().replace("g3", "é"), encoding="utf-8")
    src = str(Path(smpds.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ascii_env = {**env, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    return model, aut, [sys.executable, "-m", "smpds.cli"], env, ascii_env


def test_files_are_utf8_under_an_ascii_locale(utf8_case, tmp_path):
    """Model, automaton and `-o` output are UTF-8 whatever the locale: under
    the C locale, with the interpreter's UTF-8 mode and locale coercion
    off, a model with a non-ASCII symbol validates, and pre* writes the
    bytes that it writes under the default locale."""
    model, aut, cli, env, ascii_env = utf8_case
    done = subprocess.run([*cli, "validate", str(model)], env=ascii_env,
                          capture_output=True)
    assert done.returncode == 0, done.stderr
    outputs = []
    for run_env in (ascii_env, env):
        out = tmp_path / f"out{len(outputs)}.aut"
        subprocess.run([*cli, "prestar", str(model), str(aut), "-o", str(out)],
                       env=run_env, capture_output=True, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert "trans p3@theta1 é mid".encode() in outputs[0]


def test_stdin_and_stdout_are_utf8_under_an_ascii_locale(utf8_case, tmp_path):
    """Under the C locale, a model read from stdin gives the verdict that
    its file gives, and pre* printed to stdout is the bytes that `-o`
    writes."""
    model, aut, cli, _, ascii_env = utf8_case
    verdicts = [subprocess.run([*cli, "check", name, str(aut), "--config", "0"],
                               env=ascii_env, capture_output=True, input=text)
                for name, text in (("-", model.read_bytes()), (str(model), b""))]
    for done in verdicts:
        assert (done.returncode, done.stdout, done.stderr) == (0, b"member\n", b"")
    out = tmp_path / "out.aut"
    subprocess.run([*cli, "prestar", str(model), str(aut), "-o", str(out)],
                   env=ascii_env, capture_output=True, check=True)
    done = subprocess.run([*cli, "prestar", str(model), str(aut)], env=ascii_env,
                          capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes()


def test_check_gives_the_verdict_of_the_check_command(capsys):
    """On the model and automaton of every golden case that has both, the
    sample's among them, `check` answers each config line in both
    directions as `smpds check` does: exit 0 for a member, 1 for a
    non-member, and 2 where `check` raises."""
    pairs = sorted({tuple(args[1:3]) for args in CASES.values()
                    if args[0] in ("prestar", "poststar", "enumerate")})
    assert ("samples/example1.smpds", "samples/example1_target.aut") in pairs
    codes = []
    for model, automaton in pairs:
        model, automaton = ROOT / model, ROOT / automaton
        doc, aut = load(model.read_text(encoding="utf-8"),
                        automaton.read_text(encoding="utf-8"))
        for i, config in enumerate(doc.configs):
            for direction in ("pre", "post"):
                code = main(["--quiet", "check", str(model), str(automaton),
                             "--config", str(i), "--direction", direction])
                try:
                    member = check(doc.smpds, aut, config, direction).member
                except ValueError:
                    assert code == 2, (model.name, i, direction)
                else:
                    assert code == (0 if member else 1), (model.name, i, direction)
                codes.append(code)
    assert capsys.readouterr().out == ""
    assert {0, 1} <= set(codes)


@pytest.mark.parametrize("command", ["check", "prestar"])
def test_a_question_defers_at_most_one_young_collection(command, tmp_path):
    """`smpds check` and `smpds prestar` load and saturate under one
    collector pause, on a model of `pre_wide`'s shape.  Counted from a
    collected heap up to the first allocation after the call, which runs
    what the pause deferred: one pause per parse and per saturation
    left two collections here."""
    inst = generate(GenParams(8, 8, 1009, 10, seed=1))
    doc = SmpdsDocument(inst.smpds, {"init": inst.initial.phase},
                        [inst.initial, inst.target])
    model, aut = tmp_path / "m.smpds", tmp_path / "t.aut"
    model.write_text(print_smpds(doc))
    aut.write_text(print_automaton(from_configs(inst.smpds, [inst.target]), doc))
    options = ["--config", "0"] if command == "check" else ["-o", str(tmp_path / "out.aut")]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(["--quiet", command, str(model), str(aut), *options])
        after = [[]]
    finally:
        gc.callbacks.remove(count)
    assert code in (0, 1) and after
    assert len(starts) <= 1, starts


# the target accepts (<d, eps>, th) only; its eps edge leads into the
# initial state b, whose empty stack pre* accepts by smrule 0
EDGE_INTO_INITIAL_MODEL = ("smrule 0: b (1 -> 1) d\nsmrule 2: c (1 -> 1) a\n"
                           "rule 1: a x -> a x\nphase th: 0 1 2\n"
                           "config: c th\nconfig: a th\n")
EDGE_INTO_INITIAL_TARGET = ("initial a th\ninitial b th\ninitial d th\n"
                            "trans a@th eps b@th\nfinal d@th\n")


@pytest.mark.parametrize("command", [["check", "--config", "0"],
                                     ["check", "--config", "1"],
                                     ["check", "--direction", "post"],
                                     ["prestar"], ["poststar"]])
def test_edge_into_an_initial_state_that_saturation_extends_exit_2(
        command, tmp_path, capsys):
    """pre* would pass b's empty stack on through the edge to (<a, eps>, th),
    which has no move, and answer "member" for it: it exits 2 instead."""
    model, aut = tmp_path / "m.smpds", tmp_path / "t.aut"
    model.write_text(EDGE_INTO_INITIAL_MODEL)
    aut.write_text(EDGE_INTO_INITIAL_TARGET)
    assert main([command[0], str(model), str(aut), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "transition into an initial state" in out.err


@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_check_config_out_of_range_exit_2(index, capsys):
    assert main(["check", MODEL, TARGET, "--config", index]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "out of range" in err


DANGLING_MODEL = "rule 0: p a -> q\nsmrule 1: p (0 -> 7) q\nconfig: p {0,1} a\n"


@pytest.mark.parametrize("command", [["prestar"], ["poststar"], ["check"],
                                     ["check", "--direction", "post"],
                                     ["enumerate"]])
def test_invalid_model_never_saturates(command, tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text(DANGLING_MODEL)
    aut = tmp_path / "t.aut"
    aut.write_text("initial p {0,9}\nfinal acc\ntrans p@{0,9} a acc\n")
    assert main([command[0], str(model), str(aut), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "dangling RuleId 7" in err


@pytest.mark.parametrize("command", ["prestar", "poststar", "check", "enumerate"])
def test_undeclared_phase_ids_rejected(command, tmp_path, capsys):
    aut = tmp_path / "t.aut"
    aut.write_text("initial p1 {1,9}\nfinal acc\ntrans p1@{1,9} g1 acc\n")
    assert main([command, MODEL, str(aut)]) == 2
    err = capsys.readouterr().err
    assert err == "error: automaton phase {1,9} references unknown rule ids\n"
    model = tmp_path / "m.smpds"
    model.write_text(Path(MODEL).read_text() + "config: p1 {1,9} g1\n")
    assert main([command, str(model), TARGET]) == 2
    assert "config 2" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--symbolic"]])
def test_translate_rejects_invalid_model(flags, tmp_path, capsys):
    # smrule 1 adds rule 7, which the model never declares
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\nsmrule 1: p (0 -> 7) q\nphase th: 0 1\n")
    assert main(["translate", *flags, str(model)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "dangling RuleId 7" in out.err


def test_translate_without_a_phase_or_config_exit_2(tmp_path, capsys):
    # a valid model with nothing to seed the phase closure
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\nsmrule 1: p (0 -> 0) q\n")
    assert main(["translate", str(model)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: translation needs at least one phase or config "
                       "to seed the phase closure\n")


def test_enumerate_orders_configs_by_phase(tmp_path, capsys):
    # two configurations that differ only in their phase
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> p\nrule 1: p a -> p\n"
                     "phase zeta: 0\nphase alpha: 1\n")
    aut = tmp_path / "t.aut"
    aut.write_text("initial p zeta\ninitial p alpha\nfinal acc\n"
                   "trans p@zeta a acc\ntrans p@alpha a acc\n")
    assert main(["enumerate", str(model), str(aut)]) == 0
    assert capsys.readouterr().out == "config: p alpha a\nconfig: p zeta a\n"


def test_negative_and_huge_rule_ids(tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text("rule -1: p a -> q\nrule 1000000000000: q a -> p a a\n"
                     "smrule 3: q (-1 -> 1000000000000) p\n"
                     "phase th: -1 3\nconfig: p th a a\n")
    aut = tmp_path / "t.aut"
    aut.write_text("initial p {3,1000000000000}\nfinal acc\n"
                   "trans p@{3,1000000000000} a acc\n")
    assert main(["validate", str(model)]) == 0
    assert main(["translate", str(model)]) == 0
    assert "p@{3,1000000000000}" in capsys.readouterr().out
    # (<p, a a>, th) -> (<q, a>, th) -> (<p, a>, {3,10^12})
    assert main(["check", str(model), str(aut)]) == 0
    assert main(["check", str(model), str(aut), "--direction", "post"]) == 1


@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET],
                                     ["poststar", TARGET]])
def test_non_integer_id_in_braced_phase_of_a_model(command, tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\nconfig: p {0,a} a\n")
    assert main([command[0], str(model), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:") and err.count("\n") == 1, err
    assert "ids must be integers" in err


@pytest.mark.parametrize("text, lineno", [("initial q {x}\n", 1),
                                          ("final acc\ntrans q@{0,x} a acc\n", 2)])
@pytest.mark.parametrize("command", ["prestar", "poststar"])
def test_non_integer_id_in_braced_phase_of_an_automaton(command, text, lineno,
                                                        tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\n")
    aut = tmp_path / "t.aut"
    aut.write_text(text)
    assert main([command, str(model), str(aut)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}:") and err.count("\n") == 1, err
    assert "ids must be integers" in err


@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET]])
def test_space_in_braced_phase_of_a_model(command, tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\nrule 1: q a -> p\nconfig: p {0, 1} a\n")
    assert main([command[0], str(model), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:") and err.count("\n") == 1, err
    assert "takes no spaces" in err and "{0,1}" in err


@pytest.mark.parametrize("text, lineno", [("initial p {0, 1}\n", 1),
                                          ("final acc\ntrans p@{0, 1} a acc\n", 2)])
@pytest.mark.parametrize("command", ["prestar", "poststar"])
def test_space_in_braced_phase_of_an_automaton(command, text, lineno,
                                               tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text("rule 0: p a -> q\nrule 1: q a -> p\n")
    aut = tmp_path / "t.aut"
    aut.write_text(text)
    assert main([command, str(model), str(aut)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}:") and err.count("\n") == 1, err
    assert "takes no spaces" in err


@pytest.mark.parametrize("text, lineno", [
    ("initial p theta0\ntrans p@theta0 g1 gen:p:@theta0\nfinal gen:p:@theta0\n", 2),
    ("initial p theta0\nfinal gen:p:g1::g2@theta0\n", 2),
])
@pytest.mark.parametrize("command", ["prestar", "poststar"])
def test_generated_state_with_an_empty_prefix_symbol_is_rejected(command, text, lineno,
                                                                 tmp_path, capsys):
    # post* names a generated state after a nonempty pushed prefix
    aut = tmp_path / "t.aut"
    aut.write_text(text)
    assert main([command, MODEL, str(aut)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: line {lineno}:") and out.err.count("\n") == 1, out.err
    assert "malformed generated state" in out.err and "Traceback" not in out.err
    assert out.out == ""


UNKNOWN_CONTROL_MODEL = "rule 0: p a -> q\nphase th: 0\nconfig: p th a\n"


@pytest.mark.parametrize("text, state", [
    ("initial zz th\nfinal zz@th\n", "zz@th"),
    ("initial p th\ntrans p@th a gen:zz:a@th\nfinal gen:zz:a@th\n", "gen:zz:a@th"),
])
@pytest.mark.parametrize("command", [["check"], ["check", "--direction", "post"],
                                     ["prestar"], ["poststar"], ["enumerate"]])
def test_automaton_state_with_an_unknown_control_point_is_rejected(command, text, state,
                                                                  tmp_path, capsys):
    # a control point outside the model names no configuration of it, as
    # `check_configuration` holds for the model's own configurations
    model, aut = tmp_path / "m.smpds", tmp_path / "t.aut"
    model.write_text(UNKNOWN_CONTROL_MODEL)
    aut.write_text(text)
    assert main([command[0], str(model), str(aut), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == f"error: automaton state {state}: control point 'zz' not in P\n"


@pytest.mark.parametrize("text, lineno", [
    ("symbol eps\n", 1),
    ("rule 0: p eps -> q\n", 1),
    ("rule 0: p a -> q eps\n", 1),
    ("rule 0: p a -> q\nconfig: p {0} eps\n", 2),
])
@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET]])
def test_eps_is_not_a_stack_symbol(command, text, lineno, tmp_path, capsys):
    # the automaton format reads the label eps as an epsilon edge
    model = tmp_path / "m.smpds"
    model.write_text(text)
    assert main([command[0], str(model), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}:") and err.count("\n") == 1, err
    assert "'eps' is reserved" in err


@pytest.mark.parametrize("text, lineno", [
    ("state gen:x\n", 1),
    ("rule 0: gen:x a -> q\nphase th: 0\n", 1),
    ("rule 0: p a -> q\nrule 1: gen:x a -> q\n", 2),
    ("rule 0: p a -> q\nsmrule 1: p (0 -> 0) gen:x\n", 2),
])
@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET]])
def test_gen_control_point_is_rejected(command, text, lineno, tmp_path, capsys):
    # printed as gen:x@theta, such a state would read back as a generated one
    model = tmp_path / "m.smpds"
    model.write_text(text)
    assert main([command[0], str(model), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: line {lineno}:") and out.err.count("\n") == 1, out.err
    assert "control point 'gen:x'" in out.err and "Traceback" not in out.err
    assert out.out == ""


@pytest.mark.parametrize("text, lineno, name", [
    # printed, a post* state gen:x:y:b@th would read back as x's state
    ("rule 0: p a -> x:y b a\nphase th: 0\n", 1, "control point 'x:y'"),
    ("rule 0: p a -> q\nrule 1: p a:b -> q\n", 2, "stack symbol 'a:b'"),
])
@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET]])
def test_colon_in_a_name_is_rejected(command, text, lineno, name, tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text(text)
    assert main([command[0], str(model), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: line {lineno}: {name}"), out.err
    assert out.err.count("\n") == 1 and out.out == ""


@pytest.mark.parametrize("text, fragment", [
    # a stray arrow used to be read as a stack symbol
    ("rule 0: p a -> q\nrule 1: p a -> q -> r\n", "malformed rule"),
    # int() used to read this id as 1000
    ("rule 0: p a -> q\nrule 1_000: p a -> q\n", "rule id must be an integer"),
    # the same faults, each before a phase line
    ("rule 0: p a -> q\nrule 0: p a -> q -> r\nphase th: 0\n", "malformed rule"),
    ("rule 0: p a -> q\nrule 1_000: p a -> q\nphase th: 0\n",
     "rule id must be an integer"),
])
@pytest.mark.parametrize("command", [["validate"], ["prestar", TARGET],
                                     ["poststar", TARGET]])
def test_malformed_rule_is_rejected_at_its_line(command, text, fragment, tmp_path, capsys):
    model = tmp_path / "m.smpds"
    model.write_text(text)
    assert main([command[0], str(model), *command[1:]]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: line 2: {fragment}\n"
    assert out.out == ""


_COUNTED = [MODEL, *(str(GOLDEN / f"{name}.smpds") for name in (
    "gen55", "selfmod", "bitorder", "twonames", "groups"))]


@pytest.mark.parametrize("model", _COUNTED, ids=[Path(m).name for m in _COUNTED])
def test_translate_counts_are_the_printed_rules(model, capsys):
    """translate counts its paired rules without building them, and
    translate --symbolic takes its count from the size formula |Delta| +
    |Delta_c| * |Gamma|: each count is the number of lines printed, over
    seven phases (gen55), a self-removing rule (selfmod), mask bits out of
    rule id order (bitorder), one phase under two names (twonames) and a
    closure searched group by group (groups)."""
    assert main(["translate", model]) == 0
    out = capsys.readouterr()
    phases, rules = re.fullmatch(r"phases: (\d+), paired rules: (\d+)\n", out.err).groups()
    assert int(rules) == sum(line.startswith("rule ") for line in out.out.splitlines())
    assert int(rules) > 0 and int(phases) > 0
    assert main(["translate", model, "--symbolic"]) == 0
    out = capsys.readouterr()
    count = re.fullmatch(r"symbolic rules: (\d+)\n", out.err).group(1)
    assert int(count) == sum(line.startswith("symrule ") for line in out.out.splitlines())


def test_translate(capsys):
    assert main(["translate", MODEL]) == 0
    out = capsys.readouterr().out
    assert "@theta0" in out or "@theta1" in out


def test_translate_symbolic(capsys):
    assert main(["translate", "--symbolic", MODEL]) == 0
    out = capsys.readouterr()
    assert "mod(4,1,3)" in out.out
    assert "id(" in out.out
    # the count on stderr, from the size formula, is the number of lines
    assert out.err == f"symbolic rules: {out.out.count('symrule ')}\n"


def test_asm2smpds_round(tmp_path, capsys):
    out = tmp_path / "prog.smpds"
    assert main(["asm2smpds", str(SAMPLES / "unlock.sasm"),
                 "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_asm2smpds_erase(capsys):
    assert main(["asm2smpds", str(SAMPLES / "unlock.sasm"),
                 "--erase-selfmod"]) == 0
    assert "smrule" not in capsys.readouterr().out


def test_asm2smpds_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.sasm"
    bad.write_text("entry a\na: frob\n")
    assert main(["asm2smpds", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, fragment", [
    ("entry a\na: selfmod b selfmod c nop\nb: nop\nc: halt\n", "--erase-selfmod"),
    ("entry a\na: selfmod __halt nop\n", "'__halt' is the halt state, not an instruction"),
], ids=["meta", "halt"])
def test_asm2smpds_uncompilable_selfmod_fails_at_its_line(tmp_path, capsys,
                                                          text, fragment):
    prog = tmp_path / "bad.sasm"
    prog.write_text(text)
    assert main(["asm2smpds", str(prog)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("error: line 2: ") and out.err.count("\n") == 1
    assert fragment in out.err
    # erasing every selfmod still compiles it, as nops
    assert main(["asm2smpds", str(prog), "--erase-selfmod"]) == 0
    assert "smrule" not in capsys.readouterr().out


@pytest.mark.parametrize("inner, fragment", [
    ("selfmod nowhere frob 1 2", "unknown opcode 'frob'"),
    ("selfmod nowhere nop", "unresolved label 'nowhere'"),
    ("selfmod b jmp", "'jmp' takes 1 operand(s)"),
])
def test_asm2smpds_checks_the_inner_instruction_of_a_meta_selfmod(
        tmp_path, capsys, inner, fragment):
    prog = tmp_path / "meta.sasm"
    prog.write_text(f"entry a\na: selfmod b {inner}\nb: nop\n")
    assert main(["asm2smpds", str(prog), "--erase-selfmod"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == f"error: line 2: {fragment}\n"


@pytest.mark.parametrize("command, text", [
    # a label of two tokens, and an empty one
    ("asm2smpds", "entry c\nc: nop\na b: halt\n"),
    ("asm2smpds", "entry c\nc: nop\n: halt\n"),
    # an initial state with an empty control point
    ("prestar", "final @theta0\n"),
])
def test_a_missing_or_split_name_fails_with_one_error_line(tmp_path, capsys,
                                                           command, text):
    path = tmp_path / "input"
    path.write_text(text)
    inputs = [str(path)] if command == "asm2smpds" else [MODEL, str(path)]
    assert main([command, *inputs]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("error: line ") and out.err.count("\n") == 1


def test_asm2smpds_entry_directive_takes_a_tab(tmp_path, capsys):
    prog = tmp_path / "tab.sasm"
    prog.write_text("entry\ta\na: nop\n")
    assert main(["asm2smpds", str(prog)]) == 0
    assert capsys.readouterr().out.startswith("state ")


def _deep_meta_selfmod(tmp_path):
    """A meta-selfmod nested 1,200 levels deep, past the recursion limit."""
    prog = tmp_path / "deep.sasm"
    prog.write_text("entry a\na: " + "selfmod a " * 1200 + "nop\n")
    return str(prog)


def test_asm2smpds_deep_meta_selfmod_fails_with_one_error_line(tmp_path, capsys):
    assert main(["asm2smpds", _deep_meta_selfmod(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == ("error: line 2: selfmod of a selfmod instruction "
                       "compiles only with --erase-selfmod\n")


def test_asm2smpds_deep_meta_selfmod_compiles_erased(tmp_path, capsys):
    assert main(["asm2smpds", _deep_meta_selfmod(tmp_path),
                 "--erase-selfmod"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and "smrule" not in out.out


def test_enumerate(capsys):
    assert main(["enumerate", MODEL, TARGET, "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert "config: p3 theta1 g3" in out


def test_enumerate_rejects_a_negative_max_len(capsys):
    assert main(["enumerate", MODEL, TARGET, "--max-len", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert "--max-len -1" in out.err


def test_bench_command_and_seed_flag_retired(capsys):
    for argv in (["bench"], ["--seed", "7", "validate", MODEL]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: smpds"), err
        assert "Traceback" not in err


# -- every subcommand on fuzzed input ------------------------------------------

# each subcommand, with the options it takes after its inputs
_FUZZ_COMMANDS = [
    ["validate"], ["prestar"], ["prestar", "--dot"], ["poststar"], ["poststar", "--dot"],
    ["check", "--direction", "pre"], ["check", "--direction", "post"], ["enumerate"],
    ["translate"], ["translate", "--symbolic"], ["asm2smpds"], ["asm2smpds", "--erase-selfmod"],
]
_SASM_TEXTS = [path.read_text() for path in sorted(SAMPLES.glob("*.sasm"))]


@st.composite
def _cli_inputs(draw):
    """A model text, an automaton text accepting some of its configurations
    and a sample program, each mutated or decorated at random."""
    doc = draw(st.one_of(documents(), bench_documents()))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = doc.smpds
    configs = doc.configs or [Configuration("p0", ("a",), Phase.of(m.rules))]
    aut = from_configs(m, configs[:draw(st.integers(0, len(configs)))])
    texts = [print_smpds(doc), print_automaton(aut, doc), rng.choice(_SASM_TEXTS)]
    for i, text in enumerate(texts):
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            text = _mutate(text, rng)
        if draw(st.booleans()):
            text = _decorate(text, rng, valid=rng.random() < 0.9)
        texts[i] = text
    return texts


@given(_cli_inputs(), st.sampled_from(_FUZZ_COMMANDS), st.integers(-1, 3),
       st.sampled_from([[], ["--quiet"], ["--stats"]]))
@settings(max_examples=300, deadline=None)
def test_every_subcommand_keeps_its_exit_code_contract(texts, command, n, flags):
    """`main` never raises on any input: it returns 0, 1 (only for
    `validate` and `check`) or 2, and on 2 writes exactly one line to
    stderr, an `error: ` line."""
    name, *options = command
    with tempfile.TemporaryDirectory() as tmp:
        model, aut, program = (Path(tmp) / f for f in ("m.smpds", "a.aut", "p.sasm"))
        for path, text in zip((model, aut, program), texts):
            path.write_text(text, encoding="utf-8", newline="")
        if name == "asm2smpds":
            inputs = [str(program)]
        elif name in ("validate", "translate"):
            inputs = [str(model)]
        else:
            inputs = [str(model), str(aut)]
        if name == "check":
            options += ["--config", str(n)]
        elif name == "enumerate":
            options += ["--max-len", str(n)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*flags, name, *inputs, *options])
    answers = (0, 1, 2) if name in ("validate", "check") else (0, 2)
    assert code in answers, (code, err.getvalue())
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error: ") and not lines[1], lines
