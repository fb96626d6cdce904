"""Command-line interface.

    smpds validate MODEL
    smpds prestar MODEL AUTOMATON [-o OUT] [--dot]
    smpds poststar MODEL AUTOMATON [-o OUT] [--dot]
    smpds translate MODEL [--symbolic] [-o OUT]
    smpds asm2smpds PROGRAM [-o OUT] [--erase-selfmod]
    smpds check MODEL AUTOMATON [--config N] [--direction pre|post]
    smpds enumerate MODEL AUTOMATON [--max-len N]

`check` exits 0 when the configuration is a member, 1 when it is not,
and 2 on any error.  `translate` prints the paired rules of every phase
of the closure of the model's phases and config phases (the PDS's
`phases`), or with --symbolic the rules of the symbolic PDS for all
phases at once.  A selfmod of a selfmod compiles only with --erase-selfmod.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import asm, formats, model
from .automaton import Generated, Initial, PAutomaton
from .prestar import prestar
from .poststar import poststar
from .translate import phase_closure, to_pds


def _utf8(stream):
    """`stream`, switched to UTF-8 if it is a text layer over bytes, as
    stdin and stdout are; a stream of text only, such as a `StringIO`,
    is returned as it is."""
    reconfigure = getattr(stream, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8")
    return stream


def _read(path: str) -> str:
    """The text of `path`, or stdin's for `-`, read as UTF-8 whatever the
    locale."""
    if path == "-":
        return _utf8(sys.stdin).read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, path: str | None) -> None:
    """Write `text` to `path`, or stdout for `-` or None, as UTF-8
    whatever the locale."""
    if path is None or path == "-":
        _utf8(sys.stdout).write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_doc(path: str) -> formats.SmpdsDocument:
    return formats.parse_smpds(_read(path))


def _validate_doc(doc: formats.SmpdsDocument) -> list[str]:
    violations = model.validate(doc.smpds)
    for i, c in enumerate(doc.configs):
        try:
            model.check_configuration(doc.smpds, c)
        except ValueError as e:
            violations.append(f"config {i}: {e}")
    return violations


def _load_valid_doc(path: str) -> formats.SmpdsDocument:
    """Parse the model; raise unless it validates, so no undeclared rule id
    reaches a translation or a saturation."""
    doc = _load_doc(path)
    violations = _validate_doc(doc)
    if violations:
        raise ValueError("; ".join(violations))
    return doc


def _load_query(args) -> tuple[formats.SmpdsDocument, PAutomaton]:
    """Parse the model and the automaton; raise unless both validate, so
    no undeclared control point or rule id reaches a saturation."""
    if args.model == args.automaton == "-":
        # the model would consume stdin, leaving the automaton empty
        raise ValueError("MODEL and AUTOMATON cannot both be '-': "
                         "stdin can hold only one of them")
    doc = _load_valid_doc(args.model)
    aut = formats.parse_automaton(_read(args.automaton), doc)
    named = [q for q in aut.states if isinstance(q, (Initial, Generated))]
    phases = {q.phase for q in named}
    violations = [f"automaton phase {phase} references unknown rule ids"
                  for phase in sorted(phases, key=repr)
                  if not doc.smpds.knows(phase)]
    violations += sorted(f"automaton state {formats.state_token(q, doc)}: "
                         f"control point {q.control!r} not in P"
                         for q in named if q.control not in doc.smpds.states)
    if violations:
        raise ValueError("; ".join(violations))
    return doc, aut


def _run(args, op, smpds: model.SMPDS, aut: PAutomaton) -> PAutomaton:
    """Saturate; under --stats, print what the run added to `aut`."""
    t0 = time.perf_counter()
    result = op(smpds, aut)
    seconds = time.perf_counter() - t0
    if args.stats and not args.quiet:
        added = result.transition_count() - aut.transition_count()
        print(f"transitions added: {added}", file=sys.stderr)
        print(f"finals added: {len(result.finals) - len(aut.finals)}", file=sys.stderr)
        print(f"phases: {len({q.phase for q in result.initial_states()})}", file=sys.stderr)
        print(f"wall seconds: {seconds:.3f}", file=sys.stderr)
    return result


def cmd_validate(args) -> int:
    doc = _load_doc(args.model)
    violations = _validate_doc(doc)
    for v in violations:
        print(f"error: {v}", file=sys.stderr)
    if not violations and not args.quiet:
        print(f"ok: {len(doc.smpds.delta)} rules, "
              f"{len(doc.smpds.delta_c)} modifying rules, "
              f"{len(doc.configs)} configs")
    return 1 if violations else 0


def cmd_saturate(args) -> int:
    doc, aut = _load_query(args)
    result = _run(args, args.saturate, doc.smpds, aut)
    printer = formats.print_dot if args.dot else formats.print_automaton
    _write(printer(result, doc), args.output)
    return 0


def cmd_translate(args) -> int:
    doc = _load_valid_doc(args.model)
    if args.symbolic:
        m = doc.smpds
        if not args.quiet:  # |Delta| + |Delta_c| * |Gamma| lines
            print(f"symbolic rules: {len(m.delta) + len(m.delta_c) * len(m.alphabet)}",
                  file=sys.stderr)
        _write(formats.print_symbolic_pds(doc), args.output)
        return 0
    seeds = list(doc.phase_names.values()) + [c.phase for c in doc.configs]
    if not seeds:
        raise ValueError("translation needs at least one phase or config "
                         "to seed the phase closure")
    phases = phase_closure(doc.smpds, seeds)
    pds = to_pds(doc.smpds, phases)
    if not args.quiet:
        print(f"phases: {len(phases)}, paired rules: {len(pds.rules)}",
              file=sys.stderr)
    _write(formats.print_pds(pds, doc), args.output)
    return 0


def cmd_asm2smpds(args) -> int:
    prog = asm.parse_program(_read(args.program))
    compiled = asm.compile_program(prog, erase_selfmod=args.erase_selfmod)
    doc = formats.SmpdsDocument(compiled.smpds,
                                {"init": compiled.initial_phase},
                                [compiled.entry_config])
    _write(formats.print_smpds(doc), args.output)
    return 0


def cmd_check(args) -> int:
    doc, aut = _load_query(args)
    if not 0 <= args.config < len(doc.configs):
        raise ValueError(f"--config {args.config} out of range: the model file "
                         f"declares {len(doc.configs)} config(s)")
    config = doc.configs[args.config]
    op = prestar if args.direction == "pre" else poststar
    member = _run(args, op, doc.smpds, aut).accepts(config)
    if not args.quiet:
        print("member" if member else "non-member")
    return 0 if member else 1


def cmd_enumerate(args) -> int:
    if args.max_len < 0:
        raise ValueError(f"--max-len {args.max_len} is negative")
    doc, aut = _load_query(args)
    _write(formats.print_configs(aut.enumerate_configs(args.max_len), doc), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpds",
        description="Reachability analysis for self-modifying pushdown systems")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    parser.add_argument("--stats", action="store_true",
                        help="print saturation statistics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file for consistency")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    for name, saturate, helptext in (
            ("prestar", prestar, "saturate towards predecessors"),
            ("poststar", poststar, "saturate towards successors")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("model")
        p.add_argument("automaton")
        p.add_argument("-o", "--output")
        p.add_argument("--dot", action="store_true",
                       help="emit graphviz instead of the text format")
        p.set_defaults(func=cmd_saturate, saturate=saturate)

    p = sub.add_parser("translate", help="translate to an ordinary or symbolic PDS")
    p.add_argument("model")
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("asm2smpds", help="compile an assembly program")
    p.add_argument("program")
    p.add_argument("-o", "--output")
    p.add_argument("--erase-selfmod", action="store_true",
                   help="compile selfmod instructions as nops")
    p.set_defaults(func=cmd_asm2smpds)

    p = sub.add_parser("check", help="decide membership of a config")
    p.add_argument("model")
    p.add_argument("automaton")
    p.add_argument("--config", type=int, default=0,
                   help="index of the config line to check (default 0)")
    p.add_argument("--direction", choices=("pre", "post"), default="pre")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list accepted configs up to a stack depth")
    p.add_argument("model")
    p.add_argument("automaton")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
