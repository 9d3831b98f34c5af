"""The benchmark's three workloads: their inputs, made from a seed, and the
check each command's output must pass.

A workload is a list of cycles; a cycle is a list of Ops, each one CLI
command with its expected result.  The timed loop runs whole cycles, so
every run does the same mix of work.  Expected results come from
reference.py, never from the package under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# Each relabeled input is written in this many seeded variants, and cycle c
# uses variant c % variants: op costs depend a little on the labeling, so a
# run averages over many.  A 35 s run has about 15 shadow and 30 tables cycles.
# A paper cycle is one command, with its own seed k.
PAPER_VARIANTS = 32
SHADOW_VARIANTS = 24
TABLES_VARIANTS = 8

# The failures the program has today: `label: exception` of an op that
# raises instead of giving its documented result (ROADMAP item 4).  They
# count as failed ops; any other raising op makes the run incorrect.
KNOWN_DEFECTS = frozenset({"check not-utf8.txt: UnicodeDecodeError"})


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]  # (exit, stdout, stderr) -> problem

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


@dataclass(frozen=True)
class Workload:
    variants: list[list[Op]]

    def cycle(self, index: int) -> list[Op]:
        return self.variants[index % len(self.variants)]


def expect(code: int, stdout: str) -> Callable:
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, expected {code}"
        if out != stdout:
            return "stdout differs from the reference"
        if err:
            return f"unexpected stderr {err[:80]!r}"
        return None
    return check


def expect_usage_error(rc, out, err):
    if rc != 2 or out or not err.startswith("error: "):
        return f"expected exit 2 with an 'error:' line, got exit {rc}"
    return None


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --- paper ----------------------------------------------------------------

PAPER_SAMPLES = 200
PAPER_REPORT = """\
two-element collapse verification
samples={samples} seed={seed}

[expansion] reversed operation on ((w,x),(y,z)) with tags (1,1,1,2)
  orbit 1: -1*t+0*t^2 + (+0*t+1*t^2)*w + (+1*t-1*t^2)*x + (+1*t+0*t^2)*y + (-1*t+1*t^2)*z
[relations] forced identifications on orbit 1 are pure shifts
  shift (0,1)
  shift (-1,-1)
  chain (0,1) (-1,-1) (-1,0) (1,0)
[lattice] subgroup of Z^2 generated by the shifts
  hnf ((1, 0), (0, 1)) index=1
[orbit 1] classes: 1
[orbit 2] transported through orbit-1 witnesses; classes: 1
no operation crosses orbit tags, so the two classes stay distinct
total classes: 2
"""


def paper(seed: int, workdir: Path) -> Workload:
    """verify-paper at its default sample count, one command per cycle."""
    rng = random.Random(seed)
    ops = []
    for _ in range(PAPER_VARIANTS):
        k = rng.randrange(2 ** 31)
        argv = ("verify-paper", "--samples", str(PAPER_SAMPLES), "--seed", str(k))
        ops.append([Op(argv, expect(0, PAPER_REPORT.format(samples=PAPER_SAMPLES, seed=k)))])
    return Workload(ops)


# --- shadow ---------------------------------------------------------------

SHADOW_MODULI = (5, 11, 19)


def roots(m: int) -> list[int]:
    """Every t mod m with t^2 + t - 1 = 0."""
    return [t for t in range(m) if (t * t + t - 1) % m == 0]


def shadow_table(m: int, t: int) -> list[list[int]]:
    """Two copies of Z/m marked 0 and 1: x in copy i acted on by y in copy j
    gives (mark_j - mark_i + t*x + (1-t)*y) mod m in copy i.  Element
    copy*m + x stands for x in that copy."""
    n = 2 * m
    rows = [[0] * n for _ in range(n)]
    for ci in (0, 1):
        for x in range(m):
            for cj in (0, 1):
                for y in range(m):
                    rows[ci * m + x][cj * m + y] = ci * m + (cj - ci + t * x + (1 - t) * y) % m
    return rows


def shadow_ladder() -> list[tuple[int, int]]:
    """One (m, root) per modulus per pass; passes cycle through the roots,
    so every modulus gets an equal share and every root is used."""
    by_m = {m: roots(m) for m in SHADOW_MODULI}
    width = max(len(r) for r in by_m.values())
    return [(m, by_m[m][k % len(by_m[m])]) for k in range(width) for m in SHADOW_MODULI]


def shadow_op(m: int, t: int, perm: list[int], path: Path) -> Op:
    """quotient --variety medial on the shadow with orbit 2 (the copy marked
    1, elements m..2m-1) reversed, relabeled by perm.  The quotient is
    exactly the two copies."""
    rows = ref.relabel(ref.reverse(shadow_table(m, t), m), perm)
    path.write_text(ref.render(rows), encoding="utf-8")
    first = {perm[x] for x in range(m)}
    side = [1 if x in first else 2 for x in range(2 * m)]
    if side[0] != 1:  # classes are numbered by smallest member
        side = [3 - c for c in side]
    proj = "".join(f"{x + 1} -> {c}\n" for x, c in enumerate(side))
    return Op(("quotient", str(path), "--variety", "medial"),
              expect(0, proj + "\nquandle v1\nn=2\n1 1\n2 2\n"))


def shadow(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    variants = []
    for v in range(SHADOW_VARIANTS):
        ops = []
        for k, (m, t) in enumerate(shadow_ladder()):
            path = workdir / f"shadow-m{m}-t{t}-{v}-{k}.txt"
            ops.append(shadow_op(m, t, _perm(rng, 2 * m), path))
        variants.append(ops)
    return Workload(variants)


# --- tables ---------------------------------------------------------------

# Affine quandles (dihedral and trivial ones included) are medial:
# (w*x)*(y*z) expands to a form symmetric in x and y.
CORPUS = {
    "trivial3": ref.trivial(3),
    "trivial4": ref.trivial(4),
    "dihedral3": ref.dihedral(3),
    "dihedral5": ref.dihedral(5),
    "dihedral9": ref.dihedral(9),
    "dihedral15": ref.dihedral(15),
    "dihedral21": ref.dihedral(21),
    "dihedral33": ref.dihedral(33),
    "affine7t3": ref.affine(7, 3),
    "affine13t2": ref.affine(13, 2),
    "affine9t4": ref.affine(9, 4),     # 3 orbits of 3
    "affine21t4": ref.affine(21, 4),   # 3 orbits of 7
    "affine25t6": ref.affine(25, 6),   # 5 orbits of 5
    "affine27t4": ref.affine(27, 4),   # 3 orbits of 9
}
# orbit 0 reversed: no longer medial, and the medial closure merges some
# elements but not all (21 -> 3 and 27 -> 9)
REVERSED = {f"rev-{name}": ref.reverse(CORPUS[name], 0)
            for name in ("affine21t4", "affine27t4")}
# quotient --variety medial on tables that are medial already
QUOTIENT_MEDIAL = ("dihedral15", "affine13t2", "dihedral21")
# (table, K): large powers on small tables, holding and failing
NQUANDLE_QUOTIENT = (("dihedral3", 100000), ("dihedral3", 99999), ("trivial3", 100000))
NQUANDLE_CHECK = (("dihedral3", 100000), ("dihedral5", 99999), ("trivial4", 50000))
EXPERIMENT_FILES = ("dihedral3", "dihedral5", "trivial3", "affine9t4", "rev-affine21t4")

AXIOMS_OK = "axioms: idempotent=True bijective_columns=True distributive=True"
WITNESS_RE = re.compile(r"medial: False witness=\((\d+), (\d+), (\d+), (\d+)\)")


def check_op_expectation(rows, power: int, medial: bool) -> Callable:
    """`check --medial --nquandle K`; a printed medial witness is checked by
    evaluating both sides on the input table."""
    holds = abs(power) % ref.translation_order(rows) == 0

    def check(rc, out, err):
        lines = out.splitlines()
        if len(lines) != 3 or err:
            return "unexpected line count or stderr"
        if lines[0] != AXIOMS_OK:
            return "axioms line differs from the reference"
        if medial:
            if lines[1] != "medial: True":
                return "medial line differs from the reference"
        else:
            m = WITNESS_RE.fullmatch(lines[1])
            if not m:
                return "expected a medial witness line"
            w, x, y, z = (int(g) for g in m.groups())
            if max(w, x, y, z) >= len(rows) or not ref.breaks_medial(rows, w, x, y, z):
                return f"witness {(w, x, y, z)} does not break the medial law"
        if lines[2] != f"{power}-quandle: {holds}":
            return "n-quandle line differs from the reference"
        code = 0 if medial and holds else 1
        return None if rc == code else f"exit {rc}, expected {code}"
    return check


def nquandle_check_expectation(rows, power: int) -> Callable:
    holds = abs(power) % ref.translation_order(rows) == 0
    text = f"{AXIOMS_OK}\n{power}-quandle: {holds}\n"
    return expect(0 if holds else 1, text)


def orbits_text(blocks) -> str:
    return "".join(f"orbit {k}: {' '.join(str(x + 1) for x in b)}\n"
                   for k, b in enumerate(blocks, start=1))


def reversal_experiment_text(tables: dict[str, list[list[int]]]) -> tuple[str, list[str]]:
    """What reversal-experiment prints for a directory of medial and
    non-medial tables, and the names it skips as not medial."""
    lines = ["reversal experiment: size of the forced-medial quotient after",
             "reversing one orbit; collisions compare quotient tables literally,",
             "not up to isomorphism",
             "file orbit_rep order reversed_medial_order drop"]
    outcomes: dict[str, dict] = {}
    skipped = []
    for name in sorted(tables):
        rows = tables[name]
        if ref.medial_witness(rows) is not None:
            skipped.append(name)
            continue
        n = len(rows)
        for block in ref.orbits(rows):
            rep = block[0]
            rev = ref.reverse(rows, rep)
            blocks = ref.least_congruence(rev)
            lines.append(f"{name} {rep + 1} {n} {len(blocks)} {'drop' if len(blocks) < n else '-'}")
            key = ref.quotient_text(rev, blocks).split("\n\n", 1)[1]
            outcomes.setdefault(key, {}).setdefault(
                tuple(map(tuple, rows)), (name, rep + 1))
    for key in sorted(outcomes):
        sources = outcomes[key]
        if len(sources) < 2:
            continue
        where = ", ".join(f"{name}:{rep}" for name, rep in sorted(sources.values()))
        lines.append(f"collision: distinct inputs share one reversed-medial table"
                     f" (order {key.count(chr(10)) - 2}): {where}")
    return "\n".join(lines) + "\n", skipped


def _write_fixed_inputs(workdir: Path) -> dict[str, Path]:
    """The bad files and the reversal-experiment directory (not relabeled)."""
    bad = {
        "bad-header": b"quandle v2\nn=1\n1\n",
        "not-quandle": b"quandle v1\nn=3\n1 1 1\n2 2 2\n1 3 3\n",
        "not-utf8": b"quandle v1\nn=1\n\xff\xfe\n",
    }
    paths = {}
    for name, data in bad.items():
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_bytes(data)
    experiment = workdir / "experiment"
    experiment.mkdir()
    for name in EXPERIMENT_FILES:
        (experiment / name).write_text(ref.render({**CORPUS, **REVERSED}[name]),
                                       encoding="utf-8")
    (experiment / "notes").write_bytes(bad["bad-header"])
    paths["experiment"] = experiment
    return paths


def tables(seed: int, workdir: Path) -> Workload:
    """A seeded order of single-table commands over a relabeled corpus."""
    rng = random.Random(seed)
    fixed = _write_fixed_inputs(workdir)
    everything = {**CORPUS, **REVERSED}
    blocks = {name: ref.least_congruence(REVERSED[name]) for name in REVERSED}
    blocks.update({name: [[x] for x in range(len(CORPUS[name]))]
                   for name in QUOTIENT_MEDIAL})
    for name, k in NQUANDLE_QUOTIENT:
        blocks[name, k] = ref.least_congruence(CORPUS[name], k)
    experiment = reversal_experiment_text(
        {name: everything[name] for name in EXPERIMENT_FILES})

    order = None
    variants = []
    for v in range(TABLES_VARIANTS):
        files = {}
        for name, rows in everything.items():
            perm = _perm(rng, len(rows))
            path = workdir / f"{name}-{v}.txt"
            relabeled = ref.relabel(rows, perm)
            path.write_text(ref.render(relabeled), encoding="utf-8")
            files[name] = (str(path), relabeled, perm)

        ops = []
        for i, name in enumerate(CORPUS):
            path, rows, perm = files[name]
            # alternately a multiple of every translation order, and not
            k = ref.translation_order(rows) * 2 if i % 2 else ref.translation_order(rows) + 1
            ops.append(Op(("check", path, "--medial", "--nquandle", str(k)),
                          check_op_expectation(rows, k, medial=True)))
            ops.append(Op(("orbits", path), expect(0, orbits_text(ref.orbits(rows)))))
            x = rng.randrange(len(rows))
            ops.append(Op(("reverse", path, "--element", str(x + 1)),
                          expect(0, ref.render(ref.reverse(rows, x)))))
        for name in REVERSED:
            path, rows, perm = files[name]
            k = ref.translation_order(rows)
            ops.append(Op(("check", path, "--medial", "--nquandle", str(k)),
                          check_op_expectation(rows, k, medial=False)))
        for name in (*REVERSED, *QUOTIENT_MEDIAL):
            path, rows, perm = files[name]
            mapped = [[perm[x] for x in b] for b in blocks[name]]
            ops.append(Op(("quotient", path, "--variety", "medial"),
                          expect(0, ref.quotient_text(rows, mapped))))
        for name, k in NQUANDLE_QUOTIENT:
            path, rows, perm = files[name]
            mapped = [[perm[x] for x in b] for b in blocks[name, k]]
            ops.append(Op(("quotient", path, "--variety", "nquandle", "--n", str(k)),
                          expect(0, ref.quotient_text(rows, mapped))))
        for name, k in NQUANDLE_CHECK:
            path, rows, perm = files[name]
            ops.append(Op(("check", path, "--nquandle", str(k)),
                          nquandle_check_expectation(rows, k)))
        ops.append(Op(("reversal-experiment", str(fixed["experiment"])),
                      _experiment_check(*experiment)))
        ops.append(Op(("check", str(fixed["bad-header"])), expect_usage_error))
        ops.append(Op(("orbits", str(fixed["not-quandle"])), expect_usage_error))
        ops.append(Op(("quotient", str(fixed["not-quandle"]), "--variety", "medial"),
                      expect_usage_error))
        ops.append(Op(("check", str(fixed["not-utf8"])), expect_usage_error))
        if order is None:
            order = _perm(rng, len(ops))
        variants.append([ops[i] for i in order])
    return Workload(variants)


def _experiment_check(stdout: str, not_medial: list[str]) -> Callable:
    """Exact stdout; stderr warns once about each skipped file: the
    malformed one and the non-medial ones."""
    def check(rc, out, err):
        if rc != 0 or out != stdout:
            return "reversal-experiment output differs from the reference"
        skipped = sorted(line.split()[2].rstrip(":") for line in err.splitlines())
        if skipped != sorted(["notes", *not_medial]):
            return f"unexpected warnings {skipped}"
        return None
    return check


WORKLOADS = {"paper": paper, "shadow": shadow, "tables": tables}
