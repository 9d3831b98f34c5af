"""Command-line behavior: output shapes and the 0/1/2 exit-status contract."""

import argparse
import contextlib
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (conjugation_quandle_s3, enumerate_small_quandles,
                      two_orbit_quandle_mod)
import quandleworks
from quandleworks import (collapse, dihedral_quandle, parse_table_text, quandle,
                          relabel, render_table_text, trivial_quandle)
from quandleworks import cli as cli_module
from quandleworks.cli import main

# verify-paper and demo-affine runs, frozen before the closed-form point
# kernels replaced the generic ring arithmetic on concrete points
GOLDEN_RUNS = json.loads(
    Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
# argparse's help and usage errors at COLUMNS=80, recorded on one Python
# version: argparse lays out help differently across versions
GOLDEN_USAGE = json.loads(
    Path(__file__).with_name("golden_usage.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def d3_file(tmp_path):
    path = tmp_path / "d3.txt"
    path.write_text(render_table_text(dihedral_quandle(3)))
    return str(path)


def test_check_passes_on_valid_table(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file)
    assert code == 0
    assert "idempotent=True" in out


def test_check_with_extra_properties(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file, "--medial", "--nquandle", "2")
    assert code == 0
    assert "medial: True" in out and "2-quandle: True" in out


def test_check_fails_when_a_property_fails(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file, "--nquandle", "3")
    assert code == 1
    assert "3-quandle: False" in out


def test_check_reports_axiom_witness(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("quandle v1\nn=2\n2 2\n1 1\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "idempotent=False" in out and "witness=(0, 0, None)" in out


def test_check_reports_medial_witness(capsys, tmp_path):
    path = tmp_path / "conj.txt"
    path.write_text(render_table_text(conjugation_quandle_s3()))
    code, out, _ = run(capsys, "check", str(path), "--medial")
    assert code == 1
    assert "medial: False witness=" in out


def test_check_numbers_a_medial_witness_from_zero(capsys, tmp_path):
    # witnesses are element indices counted from 0, one less than in the
    # file: read that way, the printed instance violates the medial law
    q = conjugation_quandle_s3()
    path = tmp_path / "conj.txt"
    path.write_text(render_table_text(q))
    code, out, _ = run(capsys, "check", str(path), "--medial")
    line = out.splitlines()[1]
    assert (code, line) == (1, "medial: False witness=(1, 0, 1, 2)")
    w, x, y, z = map(int, line.removeprefix("medial: False witness=(")
                     .removesuffix(")").split(", "))
    t = q.table
    assert t[t[w][x]][t[y][z]] != t[t[w][y]][t[x][z]]


def _run_under_both_optimization_levels(*args):
    src = str(Path(quandleworks.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return [subprocess.run([sys.executable, *flags, *args],
                           capture_output=True, text=True, env=env, timeout=60)
            for flags in ([], ["-O"])]


@pytest.mark.parametrize("rows", [
    conjugation_quandle_s3().table,        # a quandle that is not medial
    [[0, 2, 0], [2, 1, 1], [1, 0, 2]],     # not right self-distributive
])
def test_check_gives_the_same_verdict_under_python_O(tmp_path, rows):
    path = tmp_path / "table.txt"
    path.write_text(render_table_text(rows))
    plain, optimized = _run_under_both_optimization_levels(
        "-m", "quandleworks", "check", "--medial", str(path))
    assert plain.returncode == 1 and "witness=" in plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


def test_verify_paper_gives_the_same_report_under_python_O():
    plain, optimized = _run_under_both_optimization_levels(
        "-m", "quandleworks", "verify-paper", "--samples", "5")
    assert plain.returncode == 0 and "index=1" in plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)
    # the lattice certificate is still checked under -O
    plain, optimized = _run_under_both_optimization_levels("-c", (
        "import sys\n"
        "from quandleworks import collapse\n"
        "from quandleworks.cli import main\n"
        "collapse.CollapseLattice.basis_columns = lambda self: ((2, 0), (0, 1))\n"
        "sys.exit(main(['verify-paper', '--samples', '0']))\n"))
    assert plain.returncode == 1 and "combination certificate broken" in plain.stderr
    assert (optimized.stderr, optimized.returncode) == (plain.stderr, plain.returncode)


def test_parse_errors_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("quandle v1\nn=2\n1 1 1\n2 2\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 3" in err
    # int() reads each of these numerals; the format takes runs of ASCII
    # digits only: a fullwidth order, a signed entry, a separated entry.
    # str.split() splits at any Unicode whitespace; the format separates
    # entries by ASCII whitespace only: an ideographic and a no-break space
    for text, where in (("quandle v1\nn=２\n1 1\n2 2\n", "line 2"),
                        ("quandle v1\nn=2\n+1 1\n2 2\n", "line 3"),
                        ("quandle v1\nn=2\n1 1\n0_2 2\n", "line 4"),
                        ("quandle v1\nn=2\n1\u30001\n2 2\n", "line 3"),
                        ("quandle v1\nn=2\n1 1\n2\u00a02\n", "line 4"),
                        # nor is it stripped from the ends of a line
                        ("quandle v1\nn=2\n1 1\u3000\n2 2\n", "line 3")):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "") and where in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


FILE_COMMANDS = pytest.mark.parametrize("argv", [
    ("check",), ("orbits",), ("reverse", "--element", "1"),
    ("quotient", "--variety", "medial"),
], ids=lambda argv: argv[0])

# more digits than Python converts from a string by default (4,300)
HUGE_ORDER = "quandle v1\nn=" + "9" * 5000 + "\n1\n"


@FILE_COMMANDS
def test_non_utf8_file_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"quandle v1\nn=1\n\xff\xfe\n")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err


@FILE_COMMANDS
def test_an_order_too_long_to_convert_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_ORDER)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: line 2: order is too large\n"


def test_a_huge_declared_order_fails_at_once_without_order_sized_work(tmp_path):
    # a few bytes that declare n = 10**9 are refused from what they hold,
    # with no table of n tokens built; the probe caps its own address space,
    # so such a table would end in MemoryError, not exhaust the machine
    short_row, no_rows = tmp_path / "short-row.txt", tmp_path / "no-rows.txt"
    short_row.write_text("quandle v1\nn=1000000000\n1\n")
    no_rows.write_text("quandle v1\nn=1000000000\n")
    probe = "\n".join([
        "import contextlib, io, resource, sys, tracemalloc",
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))",
        "from quandleworks.cli import main",
        "tracemalloc.start()",
        "for argv in (['check'], ['orbits'], ['reverse', '--element', '1'],",
        "             ['quotient', '--variety', 'medial']):",
        "    for path in sys.argv[1:]:",
        "        err = io.StringIO()",
        "        with contextlib.redirect_stderr(err):",
        "            code = main([argv[0], path, *argv[1:]])",
        "        print(code, err.getvalue(), end='')",
        "print('peak under 1 MiB:', tracemalloc.get_traced_memory()[1] < 2**20)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(quandleworks.__file__).parent.parent)}
    probe_run = subprocess.run(
        [sys.executable, "-c", probe, str(short_row), str(no_rows)],
        capture_output=True, text=True, env=env, timeout=60)
    assert probe_run.stderr == ""
    assert probe_run.stdout.splitlines() == 4 * [
        "2 error: line 3: row 1 has 1 entries, expected 1000000000",
        "2 error: expected 1000000000 table rows, found 0",
    ] + ["peak under 1 MiB: True"]


def test_check_with_a_huge_translation_power(capsys, d3_file):
    # the work does not grow with the power: d3's translations are involutions
    code, out, _ = run(capsys, "check", d3_file, "--nquandle", "100000000")
    assert code == 0 and "100000000-quandle: True" in out
    code, out, _ = run(capsys, "check", d3_file, "--nquandle", "100000001")
    assert code == 1 and "100000001-quandle: False" in out


def test_orbits_output(capsys, tmp_path, d3_file):
    code, out, _ = run(capsys, "orbits", d3_file)
    assert code == 0 and out == "orbit 1: 1 2 3\n"
    path = tmp_path / "t3.txt"
    path.write_text(render_table_text(trivial_quandle(3)))
    code, out, _ = run(capsys, "orbits", str(path))
    assert code == 0
    assert out == "orbit 1: 1\norbit 2: 2\norbit 3: 3\n"


def test_orbits_rejects_non_quandle(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("quandle v1\nn=2\n2 2\n1 1\n")
    code, _, err = run(capsys, "orbits", str(path))
    assert code == 2
    assert "not a quandle" in err


def test_reverse_twice_restores_the_file(capsys, tmp_path, shadow_mod5):
    path = tmp_path / "shadow.txt"
    original = render_table_text(shadow_mod5)
    path.write_text(original)
    code, once, _ = run(capsys, "reverse", str(path), "--element", "6")
    assert code == 0
    assert once != original
    again = tmp_path / "reversed.txt"
    again.write_text(once)
    code, twice, _ = run(capsys, "reverse", str(again), "--element", "6")
    assert code == 0
    assert twice == original


def test_reverse_fixes_involutive_tables(capsys, d3_file):
    code, out, _ = run(capsys, "reverse", d3_file, "--element", "1")
    assert code == 0
    assert out == render_table_text(dihedral_quandle(3))


def test_reverse_element_out_of_range(capsys, d3_file):
    code, _, err = run(capsys, "reverse", d3_file, "--element", "9")
    assert code == 2
    assert "out of range" in err


def test_quotient_identity_projection(capsys, d3_file):
    code, out, _ = run(capsys, "quotient", d3_file, "--variety", "medial")
    assert code == 0
    head, _, table = out.partition("\n\n")
    assert head.splitlines() == ["1 -> 1", "2 -> 2", "3 -> 3"]
    assert parse_table_text(table) == dihedral_quandle(3).table


def test_quotient_collapse_to_one_class(capsys, d3_file):
    code, out, _ = run(capsys, "quotient", d3_file, "--variety", "nquandle",
                       "--n", "1")
    assert code == 0
    assert out == "1 -> 1\n2 -> 1\n3 -> 1\n\nquandle v1\nn=1\n1\n"


def test_quotient_output_feeds_back_into_check(capsys, tmp_path):
    path = tmp_path / "conj.txt"
    path.write_text(render_table_text(conjugation_quandle_s3()))
    code, out, _ = run(capsys, "quotient", str(path), "--variety", "medial")
    assert code == 0
    table_text = out[out.index("quandle v1"):]
    quot = tmp_path / "quot.txt"
    quot.write_text(table_text)
    code, out, _ = run(capsys, "check", str(quot), "--medial")
    assert code == 0
    assert "medial: True" in out


def test_quotient_flag_validation(capsys, d3_file):
    code, _, err = run(capsys, "quotient", d3_file, "--variety", "nquandle")
    assert code == 2 and "requires --n" in err
    code, _, err = run(capsys, "quotient", d3_file, "--variety", "medial",
                       "--n", "2")
    assert code == 2 and "only applies" in err
    code, _, _ = run(capsys, "quotient", d3_file, "--variety", "abelian")
    assert code == 2


def test_verify_paper_succeeds(capsys):
    code, out, _ = run(capsys, "verify-paper", "--samples", "25")
    assert code == 0
    assert "total classes: 2" in out
    assert "index=1" in out


# int() reads each of these; an integer argument is an optional '-' and a
# run of ASCII digits
NON_ASCII_INTEGERS = ["５", "١", "1_0", "+1", " 1", "1\n"]


@pytest.mark.parametrize("text", NON_ASCII_INTEGERS)
def test_integer_arguments_take_ascii_digits_only(capsys, d3_file, text):
    assert int(text) in (1, 5, 10)
    for argv in (["verify-paper", "--samples", text],
                 ["verify-paper", "--seed", text],
                 ["check", d3_file, "--nquandle", text],
                 ["reverse", d3_file, "--element", text],
                 ["quotient", d3_file, "--variety", "nquandle", "--n", text],
                 ["demo-affine", "--witness", "(3,-4)", text]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "error: " in err, argv


def test_integer_arguments_take_a_minus_sign(capsys, d3_file):
    code, out, _ = run(capsys, "verify-paper", "--samples", "1", "--seed", "-3")
    assert code == 0 and "samples=1 seed=-3\n" in out
    # the translations of the dihedral quandle are involutions
    code, out, err = run(capsys, "check", d3_file, "--nquandle", "-2")
    assert (code, err) == (0, "") and out.endswith("\n-2-quandle: True\n")


def test_verify_paper_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "verify-paper", "--samples", "-5")
    assert code == 2 and out == ""
    assert "--samples" in err


def test_verify_paper_bounds_samples_before_any_work(capsys, monkeypatch):
    # a small input must not start unbounded work: above the limit nothing
    # runs, and the limit itself still reaches verify_theorem
    counts = []

    def recorded(samples, seed):
        counts.append(samples)
        raise collapse.CollapseError("lattice", "stub")

    monkeypatch.setattr(cli_module, "verify_theorem", recorded)
    for text in ("1000001", "10" + "0" * 30):
        code, out, err = run(capsys, "verify-paper", "--samples", text)
        assert (code, out) == (2, "")
        assert err == f"error: --samples must be at most 1000000, got {int(text)}\n"
    assert counts == []
    assert run(capsys, "verify-paper", "--samples", "1000000")[0] == 1
    assert counts == [1000000]
    code, out, err = run(capsys, "verify-paper", "--samples", "-5")
    assert (code, out, err) == (2, "", "error: --samples must be at least 0, got -5\n")
    code, out, _ = run(capsys, "verify-paper", "--help")
    assert code == 0 and "0 to 1000000 (default 200)" in " ".join(out.split())


def test_verify_paper_reports_a_broken_lattice_certificate(capsys, monkeypatch):
    # a basis column the stated combinations do not sum to breaks the certificate
    monkeypatch.setattr(collapse.CollapseLattice, "basis_columns",
                        lambda self: ((2, 0), (0, 1)))
    code, out, err = run(capsys, "verify-paper", "--samples", "0")
    assert code == 1 and out == ""
    assert err.startswith("verification failed at stage lattice: ")
    assert "combination certificate broken" in err


def test_verify_paper_reports_an_operation_that_crosses_orbit_tags(capsys,
                                                                   monkeypatch):
    # the reversed kernel returning the acting element's tag
    monkeypatch.setattr(collapse, "reversed_kernel", lambda a, b, unit=1: b)
    code, out, err = run(capsys, "verify-paper", "--samples", "0")
    assert (code, out) == (1, "")
    assert err == ("verification failed at stage separation: tag 1 acted on by"
                   " tag 2 gives tag 2 on pairs and 1 symbolically\n")


@pytest.mark.parametrize("error", [
    collapse.CollapseError("lattice", "boom"), collapse.ExpansionMismatch("boom"),
    collapse.NonUniformRelation("boom"), collapse.WitnessFailure("boom"),
], ids=lambda error: type(error).__name__)
def test_verify_paper_reports_every_collapse_failure(capsys, monkeypatch, error):
    # one failure family: each type is a CollapseError naming its stage
    def failing(samples, seed):
        raise error

    monkeypatch.setattr(cli_module, "verify_theorem", failing)
    assert run(capsys, "verify-paper", "--samples", "0") == (
        1, "", f"verification failed at stage {error.stage}: boom\n")


@pytest.mark.parametrize("shifts, index", [
    (((2, 0), (0, 1)), 2),      # determinant 2
    (((1, 1), (2, 2)), None),   # determinant 0: rank 1
])
def test_verify_paper_reports_a_shift_lattice_that_is_not_all_of_z2(
        capsys, monkeypatch, shifts, index):
    forced = iter(quandleworks.RingElem(*s) for s in shifts)
    # verify_theorem passes the two sides it expanded once per run
    monkeypatch.setattr(collapse, "derive_relation",
                        lambda assignment, sides: next(forced))
    code, out, err = run(capsys, "verify-paper", "--samples", "0")
    assert code == 1 and out == ""
    assert err == (f"verification failed at stage lattice: shift lattice has"
                   f" index {index}, orbit 1 does not collapse\n")


def test_verify_paper_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify-paper", "--samples", "25", "--seed", "7")
    _, second, _ = run(capsys, "verify-paper", "--samples", "25", "--seed", "7")
    assert first == second


def test_verify_paper_show_expansion(capsys):
    code, out, _ = run(capsys, "verify-paper", "--samples", "5",
                       "--show-expansion")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expansion coefficients:"
    assert lines[1:6] == ["  constant (-1,0)", "  w (0,1)", "  x (1,-1)",
                          "  y (1,0)", "  z (-1,1)"]


@pytest.mark.parametrize("golden", GOLDEN_RUNS, ids=[g["name"] for g in GOLDEN_RUNS])
def test_output_matches_the_frozen_golden_run(capsys, golden):
    assert run(capsys, *golden["argv"]) == (
        golden["code"], golden["stdout"], golden["stderr"])


def test_demo_affine_op(capsys):
    code, out, _ = run(capsys, "demo-affine", "--op", "(0,0)@1", "(0,0)@2")
    assert code == 0 and out == "(1,1)@1\n"
    code, out, _ = run(capsys, "demo-affine", "--op", "(0,0)@1", "(0,0)@1")
    assert code == 0 and out == "(0,0)@1\n"


def test_demo_affine_witness(capsys):
    code, out, _ = run(capsys, "demo-affine", "--witness", "(0,0)", "1")
    assert code == 0 and out == "(-3,-2)@2\n"
    code, out, _ = run(capsys, "demo-affine", "--witness", "(0,0)", "2")
    assert code == 0 and out == "(3,2)@1\n"


def test_demo_affine_rejects_bad_input(capsys):
    code, _, err = run(capsys, "demo-affine", "--op", "(0,0)@1", "oops")
    assert code == 2 and "error:" in err
    # digits of other scripts are not numerals of the point format
    code, out, err = run(capsys, "demo-affine", "--op", "(３,1)@1", "(0,0)@1")
    assert (code, out) == (2, "") and "cannot parse ring element" in err
    code, out, err = run(capsys, "demo-affine", "--op", "(3,1)@1", "(0,0)@١")
    assert (code, out) == (2, "") and "bad orbit tag" in err
    code, _, err = run(capsys, "demo-affine", "--witness", "(0,0)", "3")
    assert code == 2
    code, _, _ = run(capsys, "demo-affine")
    assert code == 2


def _write_corpus(tmp_path, entries):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, q in entries:
        (root / name).write_text(render_table_text(q))
    return str(root)


def test_reversal_experiment_reports_drops_and_collisions(capsys, tmp_path,
                                                          shadow_mod5):
    twin = relabel(shadow_mod5, [3, 1, 4, 0, 2, 8, 6, 9, 5, 7])
    assert twin != shadow_mod5
    root = _write_corpus(tmp_path, [
        ("d3.txt", dihedral_quandle(3)),
        ("d5.txt", dihedral_quandle(5)),
        ("shadow-a.txt", shadow_mod5),
        ("shadow-b.txt", twin),
    ])
    code, out, err = run(capsys, "reversal-experiment", root)
    assert code == 0
    lines = out.splitlines()
    assert "d3.txt 1 3 3 -" in lines
    assert "d5.txt 1 5 5 -" in lines
    assert "shadow-a.txt 6 10 2 drop" in lines
    assert "shadow-b.txt 6 10 2 drop" in lines
    collisions = [line for line in lines if line.startswith("collision:")]
    assert len(collisions) == 1
    assert "shadow-a.txt" in collisions[0] and "shadow-b.txt" in collisions[0]
    assert err == ""


def test_reversal_experiment_skips_unsuitable_files(capsys, tmp_path):
    root = _write_corpus(tmp_path, [
        ("conj.txt", conjugation_quandle_s3()),
        ("d3.txt", dihedral_quandle(3)),
    ])
    (tmp_path / "corpus" / "junk.txt").write_text("not a table\n")
    (tmp_path / "corpus" / "broken.txt").write_text("quandle v1\nn=2\n2 2\n1 1\n")
    code, out, err = run(capsys, "reversal-experiment", root)
    assert code == 0
    assert "d3.txt 1 3 3 -" in out
    assert "conj.txt" not in out
    assert "skipping broken.txt: not a quandle" in err
    assert "skipping conj.txt: not medial" in err
    assert "skipping junk.txt" in err


def test_reversal_experiment_asks_only_whether_a_table_is_medial(
        capsys, tmp_path, monkeypatch):
    # the displacement group decides; the instance scan, which only names
    # a witness the command would throw away, never runs
    root = _write_corpus(tmp_path, [
        ("conj.txt", conjugation_quandle_s3()),
        ("d3.txt", dihedral_quandle(3)),
    ])

    def forbidden(*args):
        raise AssertionError("reversal-experiment scanned for a medial witness")

    monkeypatch.setattr(quandle, "scan_medial", forbidden)
    code, out, err = run(capsys, "reversal-experiment", root)
    assert code == 0
    assert "d3.txt 1 3 3 -" in out and "conj.txt" not in out
    assert err == "warning: skipping conj.txt: not medial\n"


def test_reversal_experiment_skips_an_order_too_long_to_convert(capsys, tmp_path):
    root = _write_corpus(tmp_path, [("d3.txt", dihedral_quandle(3))])
    (tmp_path / "corpus" / "huge.txt").write_text(HUGE_ORDER)
    code, out, err = run(capsys, "reversal-experiment", root)
    assert code == 0
    assert "d3.txt 1 3 3 -" in out
    assert err == "warning: skipping huge.txt: line 2: order is too large\n"


def test_reversal_experiment_empty_directory(capsys, tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    code, out, err = run(capsys, "reversal-experiment", str(root))
    assert code == 0
    assert "file orbit_rep order reversed_medial_order drop" in out
    assert err == ""
    code, _, err = run(capsys, "reversal-experiment", str(tmp_path / "nope"))
    assert code == 2


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "quandleworks" in out
    # main reads any iterable of arguments, as parse_args does
    assert main(iter(["verify-paper", "--samples", "0"])) == 0


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN_USAGE["python"],
    reason=f"argparse output recorded on Python {GOLDEN_USAGE['python']}")
@pytest.mark.parametrize("golden", GOLDEN_USAGE["runs"],
                         ids=[g["name"] for g in GOLDEN_USAGE["runs"]])
def test_help_and_usage_errors_match_the_golden_bytes(capsys, monkeypatch, golden):
    monkeypatch.setenv("COLUMNS", str(GOLDEN_USAGE["columns"]))
    assert run(capsys, *golden["argv"]) == (
        golden["code"], golden["stdout"], golden["stderr"])


# FILE and DIR stand for a table file and the directory that holds it
ORACLE_ARGVS = [golden["argv"] for golden in GOLDEN_USAGE["runs"]] + [
    ["check", "FILE", "--medial", "--nquandle", "2"],
    ["orbits", "FILE"],
    ["reverse", "FILE", "--element", "2"],
    ["quotient", "FILE", "--variety", "nquandle", "--n", "2"],
    ["verify-paper", "--samples", "0", "--show-expansion"],
    ["demo-affine", "--witness", "(3,-4)", "1"],
    ["reversal-experiment", "DIR"],
    ["--", "check", "FILE"],
    ["chec", "FILE"],
    ["Check", "FILE"],
    # lines around the switch from a command's own parser to the whole tree
    ["check", "FILE", "--bogus"],
    ["check", "--", "FILE"],
    ["check", "FILE", "--", "x"],
    ["check", "FILE", "-h", "extra"],
    ["verify-paper", "--sam", "3"],
    ["verify-paper", "-x"],
    ["quotient", "FILE", "--variety", "x"],
]


def whole_tree_main(argv) -> int:
    """main as the whole tree runs every line, errors mapped as main maps
    them: the reference that main's own-parser path must match."""
    try:
        args = cli_module.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (cli_module.UsageError, cli_module.MalformedTable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def answer(run_line, argv):
    """Exit code, stdout and stderr of run_line(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_line(argv)
    return code, out.getvalue(), err.getvalue()


def table_places(directory):
    """FILE and DIR for a d3 table written in `directory`."""
    (directory / "d3.txt").write_text(render_table_text(dihedral_quandle(3)))
    return {"FILE": str(directory / "d3.txt"), "DIR": str(directory)}


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", ORACLE_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no-command")
def test_main_answers_as_the_parser_of_every_command_does(monkeypatch, tmp_path,
                                                          argv, columns):
    places = table_places(tmp_path)
    argv = [places.get(arg, arg) for arg in argv]
    monkeypatch.setenv("COLUMNS", columns)
    assert answer(main, argv) == answer(whole_tree_main, argv)


def _option_strings():
    for _, add_arguments in cli_module.COMMANDS.values():
        parser = argparse.ArgumentParser()
        add_arguments(parser)
        for action in parser._actions:
            yield from action.option_strings


# every command name and option string (-h and --help among them), the
# end-of-options marker, and values that fill the commands' arguments or
# fail their checks
LINE_WORDS = st.sampled_from(list(dict.fromkeys([
    *cli_module.COMMANDS, *_option_strings(), "--",
    "FILE", "DIR", "0", "2", "-2", "x", "(1,2)@1", "medial", "nquandle"])))
# half the lines start with a command name, so both parsers get lines
command_lines = st.builds(
    operator.add,
    st.lists(st.sampled_from(list(cli_module.COMMANDS)) | LINE_WORDS, max_size=1),
    st.lists(LINE_WORDS, max_size=5))


@pytest.fixture(scope="module")
def oracle_places(tmp_path_factory):
    return table_places(tmp_path_factory.mktemp("oracle"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines)
def test_main_answers_random_lines_as_the_whole_tree_does(oracle_places, argv):
    argv = [oracle_places.get(arg, arg) for arg in argv]
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert answer(main, argv) == answer(whole_tree_main, argv)


# add_argument calls: each parser adds its -h, and the commands add 15
# arguments in all, 3 of them verify-paper's and 3 check's; a named command
# builds its own parser alone, the whole tree 8, and a named line with
# arguments left over both
@pytest.mark.parametrize("argv, arguments", [
    (["verify-paper", "--samples", "0"], 1 + 3),
    (["check", "FILE"], 1 + 3),
    (["check", "FILE", "extra"], 1 + 3 + 8 + 15),
    (["--help"], 8 + 15),
    ([], 8 + 15),
    (["no-such-command"], 8 + 15),
], ids=["verify-paper", "check", "check-extra", "help", "no-command",
        "unknown-command"])
def test_main_adds_only_the_named_commands_arguments(capsys, monkeypatch, d3_file,
                                                     argv, arguments):
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting_add_argument(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        counting_add_argument)
    run(capsys, *(d3_file if arg == "FILE" else arg for arg in argv))
    assert len(added) == arguments, added


# ArgumentParsers built: one valid line of each command builds its own
# parser alone, a line that names no command builds all 8, and a named line
# with arguments left over builds its own and then all 8
PARSER_LINES = [
    (["check", "FILE", "--medial"], 1, 0),
    (["orbits", "FILE"], 1, 0),
    (["reverse", "FILE", "--element", "2"], 1, 0),
    (["quotient", "FILE", "--variety", "medial"], 1, 0),
    (["verify-paper", "--samples", "0"], 1, 0),
    (["demo-affine", "--op", "(1,2)@1", "(0,0)@2"], 1, 0),
    (["reversal-experiment", "DIR"], 1, 0),
    (["check", "FILE", "extra"], 1 + 8, 2),
    (["--help"], 8, 0),
    ([], 8, 2),
    (["no-such-command"], 8, 2),
]


@pytest.mark.parametrize("argv, parsers, code", PARSER_LINES,
                         ids=[" ".join(argv) or "no-command"
                              for argv, *_ in PARSER_LINES])
def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch, tmp_path,
                                                    argv, parsers, code):
    places = table_places(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, *(places.get(arg, arg) for arg in argv))[0] == code
    assert len(built) == parsers, built


def test_the_docs_name_every_command_in_order():
    listed = cli_module.__doc__.split("Commands:", 1)[1].split(".", 1)[0]
    assert [name.strip() for name in listed.split(",")] == list(cli_module.COMMANDS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    synopsis = synopsis.split("```", 1)[0]
    assert [line.split()[1] for line in synopsis.splitlines()] == list(
        cli_module.COMMANDS)


VALID_TABLES = [render_table_text(table) for n in (1, 2, 3, 4)
                for table in enumerate_small_quandles(n)]
VALID_TABLES.append(render_table_text(conjugation_quandle_s3()))


@st.composite
def table_texts(draw):
    """Small 'quandle v1' tables, some with a bad header, shape or entry."""
    n = draw(st.integers(1, 4))
    declared = draw(st.sampled_from([n, n, n, n + 1, n - 1]))
    low, high = (0, n + 1) if draw(st.booleans()) else (1, n)
    rows = [" ".join(str(draw(st.integers(low, high))) for _ in range(n))
            for _ in range(n)]
    header = draw(st.sampled_from(["quandle v1", "quandle v1", "quandle v2", ""]))
    return "\n".join([header, f"n={declared}", *rows]) + "\n"


@st.composite
def file_bytes(draw):
    """Half of them quandle tables; the rest near misses, text and bytes."""
    if draw(st.booleans()):
        return draw(st.sampled_from(VALID_TABLES)).encode()
    return draw(st.one_of(
        table_texts().map(str.encode),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=40).map(str.encode),
        st.binary(max_size=40)))


flag_ints = st.one_of(st.integers(-2, 5), st.integers()).map(str)
ring_texts = st.builds("({},{})".format, st.integers(-9, 9), st.integers(-9, 9))
point_texts = st.one_of(
    st.builds("{}@{}".format, ring_texts, st.sampled_from("1233")),
    st.text(max_size=8))


@st.composite
def cli_argvs(draw):
    """Argument lists; a table command's file goes in at position 1."""
    command = draw(st.sampled_from(["check", "orbits", "reverse", "quotient",
                                    "demo-affine"]))
    if command == "demo-affine":
        if draw(st.booleans()):
            return [command, "--op", draw(point_texts), draw(point_texts)]
        return [command, "--witness", draw(st.one_of(ring_texts, st.text(max_size=8))),
                draw(st.one_of(st.sampled_from("123"), st.text(max_size=3)))]
    argv = [command]
    if command == "check":
        if draw(st.booleans()):
            argv.append("--medial")
        if draw(st.booleans()):
            argv += ["--nquandle", draw(flag_ints)]
    elif command == "reverse":
        argv += ["--element", draw(st.integers(1, 4).map(str) | flag_ints)]
    elif command == "quotient":
        variety = draw(st.sampled_from(["medial", "nquandle", "nquandle", "abelian"]))
        argv += ["--variety", variety]
        # --n goes with nquandle, except now and then
        if (variety == "nquandle") != (draw(st.integers(0, 4)) == 0):
            argv += ["--n", draw(flag_ints)]
    return argv


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.txt"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(content=file_bytes(), argv=cli_argvs())
def test_cli_fuzz_keeps_the_exit_contract(fuzz_path, content, argv):
    fuzz_path.write_bytes(content)
    if argv[0] != "demo-affine":
        argv.insert(1, str(fuzz_path))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, content)
