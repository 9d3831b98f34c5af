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
from .collapse import (CollapseError, ExpansionMismatch, NonUniformRelation,
                       WitnessFailure, verify_theorem)
from .quandle import (AxiomError, AxiomReport, FiniteQuandle, MalformedTable,
                      parse_table_text, render_table_text)
from .ring import parse_elem, render_pair
from .variety import MEDIAL, n_quandle, quotient_by_identity


class UsageError(Exception):
    """Bad arguments or bad input discovered after argument parsing."""


def _load_rows(path: str) -> list[list[int]]:
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
    for x, c in enumerate(projection):
        print(f"{x + 1} -> {c + 1}")
    print()
    sys.stdout.write(render_table_text(quotient))
    return 0


def cmd_verify_paper(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    try:
        report = verify_theorem(samples=args.samples, seed=args.seed)
    except (CollapseError, ExpansionMismatch, NonUniformRelation,
            WitnessFailure) as exc:
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
            orbit = int(orbit_text)
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

    # quotient text -> {input table: first (file, rep) seen}
    outcomes: dict[str, dict[tuple, tuple[str, int]]] = {}
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
            key = render_table_text(quotient)
            outcomes.setdefault(key, {}).setdefault(q.table, (path.name, rep + 1))

    for key in sorted(outcomes):
        sources = outcomes[key]
        if len(sources) < 2:
            continue
        order = key.count("\n") - 2
        where = ", ".join(f"{name}:{rep}" for name, rep in sorted(sources.values()))
        print(f"collision: distinct inputs share one reversed-medial table"
              f" (order {order}): {where}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandleworks",
        description="Finite quandle workbench: axiom checks, orbit reversal,"
                    " smallest-congruence quotients, and the exact two-element"
                    " collapse verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a table file, optionally with"
                                     " extra property checks")
    p.add_argument("file")
    p.add_argument("--medial", action="store_true",
                   help="also test the medial law")
    p.add_argument("--nquandle", type=int, metavar="N",
                   help="also test that every translation has order dividing N")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbits", help="print the orbit decomposition")
    p.add_argument("file")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("reverse", help="invert all translations by the orbit"
                                       " of one element")
    p.add_argument("file")
    p.add_argument("--element", type=int, required=True, metavar="X",
                   help="1-indexed element whose orbit is reversed")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("quotient", help="quotient by the smallest congruence"
                                        " forcing an identity")
    p.add_argument("file")
    p.add_argument("--variety", choices=("medial", "nquandle"), required=True)
    p.add_argument("--n", type=int, metavar="K",
                   help="translation order bound for --variety nquandle")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify-paper",
                       help="verify the two-element collapse of the reversed"
                            " two-orbit quandle end to end")
    p.add_argument("--samples", type=int, default=200,
                   help="randomized coherence sample count (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (default 0)")
    p.add_argument("--show-expansion", action="store_true",
                   help="print the five expansion coefficients first")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("demo-affine", help="evaluate the two-orbit operation"
                                           " or an orbit witness")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", nargs=2, metavar=("A", "B"),
                       help="two points '(n1,n2)@orbit'; prints A acted on by B")
    group.add_argument("--witness", nargs=2, metavar=("X", "I"),
                       help="ring value and orbit tag; prints the opposite-orbit"
                            " point whose action sends the orbit's zero to X")
    p.set_defaults(func=cmd_demo_affine)

    p = sub.add_parser("reversal-experiment",
                       help="for every medial table in a directory, reverse"
                            " each orbit and report the forced-medial"
                            " quotient sizes")
    p.add_argument("corpus", help="directory of quandle v1 files")
    p.set_defaults(func=cmd_reversal_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, MalformedTable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
