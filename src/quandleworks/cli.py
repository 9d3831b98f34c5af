"""Command-line front end.

Commands: check, orbits, reverse, quotient, verify-paper, demo-affine,
reversal-experiment.  Exit status is 0 when the requested property holds or
the action succeeds, 1 when a checked property fails, and 2 on usage or
parse errors.  Operation-table files use the "quandle v1" text format
(header line, "n=<order>", then n rows of n 1-indexed entries).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .affine import op, orbit_witness, parse_point
from .collapse import CollapseError, verify_theorem
from .quandle import (AxiomError, AxiomReport, FiniteQuandle, MalformedTable,
                      parse_table_text, render_table_text)
from .ring import parse_elem, render_pair
from .variety import MEDIAL, n_quandle, quotient_by_identity


# the most --samples verify-paper runs: ~1.5 s of checks on a 2-vCPU Xeon VM
MAX_SAMPLES = 10**6


class UsageError(Exception):
    """Bad arguments or bad input discovered after argument parsing."""


def integer(text: str) -> int:
    """An optional '-' and a run of ASCII digits, as an int: the type of
    every integer argument.  int() alone also reads a '+', surrounding
    whitespace, '_' separators and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _load_rows(path: str) -> tuple[tuple[int, ...], ...]:
    try:
        return parse_table_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _load_quandle(path: str) -> FiniteQuandle:
    try:
        return FiniteQuandle(_load_rows(path))
    except AxiomError as exc:
        raise UsageError(f"{path} is not a quandle: {exc.report.summary()}") from None


def cmd_check(args) -> int:
    try:
        q = FiniteQuandle(_load_rows(args.file))
    except AxiomError as exc:
        print(f"axioms: {exc.report.summary()}")
        return 1
    print(f"axioms: {AxiomReport(True, True, True, None).summary()}")
    status = 0
    if args.medial:
        holds, witness = q.is_medial()
        line = f"medial: {holds}"
        if witness is not None:
            line += f" witness={witness}"
        print(line)
        if not holds:
            status = 1
    if args.nquandle is not None:
        holds = q.is_n_quandle(args.nquandle)
        print(f"{args.nquandle}-quandle: {holds}")
        if not holds:
            status = 1
    return status


def cmd_orbits(args) -> int:
    q = _load_quandle(args.file)
    for k, block in enumerate(q.orbits(), start=1):
        members = " ".join(str(x + 1) for x in block)
        print(f"orbit {k}: {members}")
    return 0


def cmd_reverse(args) -> int:
    q = _load_quandle(args.file)
    if not 1 <= args.element <= q.n:
        raise UsageError(f"element {args.element} out of range 1..{q.n}")
    sys.stdout.write(render_table_text(q.reverse_orbit(args.element - 1)))
    return 0


def cmd_quotient(args) -> int:
    q = _load_quandle(args.file)
    if args.variety == "medial":
        if args.n is not None:
            raise UsageError("--n only applies to --variety nquandle")
        spec = MEDIAL
    else:
        if args.n is None:
            raise UsageError("--variety nquandle requires --n")
        spec = n_quandle(args.n)
    quotient, projection = quotient_by_identity(q, spec)
    lines = "".join(f"{x + 1} -> {c + 1}\n" for x, c in enumerate(projection))
    sys.stdout.write(lines + "\n" + render_table_text(quotient))
    return 0


def cmd_verify_paper(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES},"
                         f" got {args.samples}")
    try:
        report = verify_theorem(samples=args.samples, seed=args.seed)
    except CollapseError as exc:
        print(f"verification failed at stage {exc.stage}: {exc}", file=sys.stderr)
        return 1
    if args.show_expansion:
        expr = report.lhs_expansion.expr
        print("expansion coefficients:")
        print(f"  constant {render_pair(expr.constant)}")
        for name in ("w", "x", "y", "z"):
            print(f"  {name} {render_pair(expr.coeffs[name])}")
        print()
    sys.stdout.write(report.render())
    return 0 if report.total == 2 else 1


def cmd_demo_affine(args) -> int:
    try:
        if args.op is not None:
            a, b = (parse_point(text) for text in args.op)
            print(op(a, b))
        else:
            value_text, orbit_text = args.witness
            value = parse_elem(value_text)
            orbit = integer(orbit_text)
            print(orbit_witness(value, orbit))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return 0


def cmd_reversal_experiment(args) -> int:
    root = Path(args.corpus)
    if not root.is_dir():
        raise UsageError(f"{args.corpus} is not a directory")
    print("reversal experiment: size of the forced-medial quotient after")
    print("reversing one orbit; collisions compare quotient tables literally,")
    print("not up to isomorphism")
    print("file orbit_rep order reversed_medial_order drop")

    # (quotient text, quotient order) -> {input table: first (file, rep) seen}
    outcomes: dict[tuple[str, int], dict[tuple, tuple[str, int]]] = {}
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        try:
            q = FiniteQuandle(parse_table_text(path.read_text(encoding="utf-8")))
        except (MalformedTable, UnicodeDecodeError, OSError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        except AxiomError as exc:
            print(f"warning: skipping {path.name}: not a quandle"
                  f" ({exc.report.summary()})", file=sys.stderr)
            continue
        if not q.is_medial()[0]:
            print(f"warning: skipping {path.name}: not medial", file=sys.stderr)
            continue
        for block in q.orbits():
            rep = block[0]
            quotient, _ = quotient_by_identity(q.reverse_orbit(rep), MEDIAL)
            drop = "drop" if quotient.n < q.n else "-"
            print(f"{path.name} {rep + 1} {q.n} {quotient.n} {drop}")
            key = (render_table_text(quotient), quotient.n)
            outcomes.setdefault(key, {}).setdefault(q.table, (path.name, rep + 1))

    for text, order in sorted(outcomes):
        sources = outcomes[text, order]
        if len(sources) < 2:
            continue
        where = ", ".join(f"{name}:{rep}" for name, rep in sorted(sources.values()))
        print(f"collision: distinct inputs share one reversed-medial table"
              f" (order {order}): {where}")
    return 0


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--medial", action="store_true",
                   help="also test the medial law")
    p.add_argument("--nquandle", type=integer, metavar="N",
                   help="also test that every translation has order dividing N")
    p.set_defaults(func=cmd_check)


def _orbits_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.set_defaults(func=cmd_orbits)


def _reverse_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--element", type=integer, required=True, metavar="X",
                   help="1-indexed element whose orbit is reversed")
    p.set_defaults(func=cmd_reverse)


def _quotient_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--variety", choices=("medial", "nquandle"), required=True)
    p.add_argument("--n", type=integer, metavar="K",
                   help="translation order bound for --variety nquandle")
    p.set_defaults(func=cmd_quotient)


def _verify_paper_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=integer, default=200,
                   help="randomized coherence sample count, 0 to"
                        f" {MAX_SAMPLES} (default 200)")
    p.add_argument("--seed", type=integer, default=0,
                   help="seed for the randomized checks (default 0)")
    p.add_argument("--show-expansion", action="store_true",
                   help="print the five expansion coefficients first")
    p.set_defaults(func=cmd_verify_paper)


def _demo_affine_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", nargs=2, metavar=("A", "B"),
                       help="two points '(n1,n2)@orbit'; prints A acted on by B")
    group.add_argument("--witness", nargs=2, metavar=("X", "I"),
                       help="ring value and orbit tag; prints the opposite-orbit"
                            " point whose action sends the orbit's zero to X")
    p.set_defaults(func=cmd_demo_affine)


def _reversal_experiment_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("corpus", help="directory of quandle v1 files")
    p.set_defaults(func=cmd_reversal_experiment)


# each command, in help order: its help text, and the function that adds its
# arguments and its handler to its parser
COMMANDS = {
    "check": ("validate a table file, optionally with extra property checks",
              _check_arguments),
    "orbits": ("print the orbit decomposition", _orbits_arguments),
    "reverse": ("invert all translations by the orbit of one element",
                _reverse_arguments),
    "quotient": ("quotient by the smallest congruence forcing an identity",
                 _quotient_arguments),
    "verify-paper": ("verify the two-element collapse of the reversed"
                     " two-orbit quandle end to end", _verify_paper_arguments),
    "demo-affine": ("evaluate the two-orbit operation or an orbit witness",
                    _demo_affine_arguments),
    "reversal-experiment": ("for every medial table in a directory, reverse"
                            " each orbit and report the forced-medial quotient"
                            " sizes", _reversal_experiment_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser and a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="quandleworks",
        description="Finite quandle workbench: axiom checks, orbit reversal,"
                    " smallest-congruence quotients, and the exact two-element"
                    " collapse verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """Run one command line, `sys.argv[1:]` by default; return the exit
    status.  A line that starts with a command name is parsed by that
    command's parser alone, built as the whole tree builds its subparser;
    any other line, and a named one with arguments left over, goes to the
    whole tree (build_parser), which prints or rejects it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = rest = None
        if argv and argv[0] in COMMANDS:
            parser = argparse.ArgumentParser(prog=f"quandleworks {argv[0]}")
            COMMANDS[argv[0]][1](parser)
            args, rest = parser.parse_known_args(argv[1:])
        if args is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, MalformedTable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
