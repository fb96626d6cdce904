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

Each command is a shell over the library: it reads its files, calls
`formats.load` to parse and validate them (`formats.violations` for
`validate`), asks `smpds.check`, which picks the core for `--direction`
or for the command's name and decides membership, prints, and picks the
exit code.  Only the refusal of MODEL and AUTOMATON both on stdin, and
the ranges of --config and --max-len, are checked here.  `check`,
`prestar` and `poststar` load and saturate under one
`model.collector_paused`, so a question defers one young collection at
most.
"""

from __future__ import annotations

import argparse
import sys

from . import Answer, asm, check, collector_paused, formats
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


def _texts(args) -> tuple[str, str]:
    """The model's text and the automaton's."""
    if args.model == args.automaton == "-":
        # the model would consume stdin, leaving the automaton empty
        raise ValueError("MODEL and AUTOMATON cannot both be '-': "
                         "stdin can hold only one of them")
    return _read(args.model), _read(args.automaton)


def _check(args, doc: formats.SmpdsDocument, aut, config=None) -> Answer:
    """`check` in `args.direction`; under --stats, print what the run
    added to `aut`."""
    answer = check(doc.smpds, aut, config, args.direction)
    if args.stats and not args.quiet:
        print(f"transitions added: {answer.transitions_added}\n"
              f"finals added: {answer.finals_added}\nphases: {answer.phases}\n"
              f"wall seconds: {answer.seconds:.3f}", file=sys.stderr)
    return answer


def cmd_validate(args) -> int:
    doc = formats.parse_smpds(_read(args.model))
    violations = formats.violations(doc)
    for v in violations:
        print(f"error: {v}", file=sys.stderr)
    if not violations and not args.quiet:
        print(f"ok: {len(doc.smpds.delta)} rules, "
              f"{len(doc.smpds.delta_c)} modifying rules, "
              f"{len(doc.configs)} configs")
    return 1 if violations else 0


@collector_paused
def cmd_saturate(args) -> int:
    doc, aut = formats.load(*_texts(args))
    printer = formats.print_dot if args.dot else formats.print_automaton
    _write(printer(_check(args, doc, aut).result, doc), args.output)
    return 0


def cmd_translate(args) -> int:
    doc, _ = formats.load(_read(args.model))
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


@collector_paused
def cmd_check(args) -> int:
    doc, aut = formats.load(*_texts(args))
    if not 0 <= args.config < len(doc.configs):
        raise ValueError(f"--config {args.config} out of range: the model file "
                         f"declares {len(doc.configs)} config(s)")
    member = _check(args, doc, aut, doc.configs[args.config]).member
    if not args.quiet:
        print("member" if member else "non-member")
    return 0 if member else 1


def cmd_enumerate(args) -> int:
    if args.max_len < 0:
        raise ValueError(f"--max-len {args.max_len} is negative")
    doc, aut = formats.load(*_texts(args))
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

    for name, direction, helptext in (
            ("prestar", "pre", "saturate towards predecessors"),
            ("poststar", "post", "saturate towards successors")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("model")
        p.add_argument("automaton")
        p.add_argument("-o", "--output")
        p.add_argument("--dot", action="store_true",
                       help="emit graphviz instead of the text format")
        p.set_defaults(func=cmd_saturate, direction=direction)

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
