"""Self-test of the benchmark: the flat per-layer predictions as exact
counts, full coverage of the wrapped functions, and output checks that
reject wrong results.

    python3 -m pytest bench/tests -q
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
LAYERS = ("cli", "quandle", "variety", "ring", "affine", "collapse")


@pytest.fixture(scope="module")
def cli():
    return run.load_package()


@pytest.fixture(scope="module")
def traced(cli, tmp_path_factory):
    """One traced cycle of each workload: (calls per metric, loop)."""
    out = {}
    for name in wl.WORKLOADS:
        workload = wl.WORKLOADS[name](SEED, tmp_path_factory.mktemp(name))
        tracer = tr.Tracer()
        loop = run.Loop(cli, workload)
        tracer.install()
        try:
            for op in workload.cycle(0):
                loop.run_op(op)
        finally:
            tracer.uninstall()
        calls = dict(tracer.calls)
        calls["variety.union.merges"] = tracer.merges
        out[name] = calls, loop
    return out


def _layer_calls(calls, layers):
    return {k: v for k, v in calls.items() if k.split(".")[0] in layers and v}


@pytest.mark.parametrize("name", ["shadow", "tables"])
def test_finite_workloads_never_reach_the_ring(traced, name):
    calls, _ = traced[name]
    assert _layer_calls(calls, ("ring", "affine", "collapse")) == {}


def test_paper_never_reaches_the_finite_engine(traced):
    calls, _ = traced["paper"]
    assert _layer_calls(calls, ("quandle", "variety")) == {}


def test_every_wrapped_function_is_called_somewhere(traced):
    names = {name for *_, name, _ in tr.TARGETS}
    seen = {k for calls, _ in traced.values() for k, v in calls.items() if v}
    assert names - seen == set()
    assert {name.split(".")[0] for name in names} == set(LAYERS)


def test_paper_expands_six_times_per_verification(traced):
    calls, _ = traced["paper"]
    assert calls["collapse.verify_theorem"] == 1
    assert calls["collapse.expand"] == 6


def test_every_output_is_checked_and_right(traced):
    for name, (_, loop) in traced.items():
        assert loop.attempted > 0 and loop.correct, name
    # the only failure is the known one, and it is not filtered out
    assert {name: set(loop.raised) for name, (_, loop) in traced.items()} == {
        "paper": set(), "shadow": set(), "tables": set(wl.KNOWN_DEFECTS)}


def test_an_op_that_raises_makes_the_run_incorrect(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise IndexError(argv[0])

    workload = wl.shadow(SEED, tmp_path)
    loop = run.Loop(Crashing, workload)
    loop.run_op(workload.cycle(0)[0])
    assert loop.failed == 1 and not loop.correct


def test_uninstall_restores_every_namespace(cli):
    from quandleworks import quandle, variety
    before = (cli.main, cli.parse_table_text, quandle.check_axioms,
              variety.Congruence.union, cli.verify_theorem)
    tracer = tr.Tracer()
    tracer.install()
    assert cli.parse_table_text is not before[1]
    assert quandle.check_axioms is not before[2]
    tracer.uninstall()
    assert (cli.main, cli.parse_table_text, quandle.check_axioms,
            variety.Congruence.union, cli.verify_theorem) == before


def test_shadow_ladder_uses_every_root_in_equal_shares():
    assert wl.shadow_ladder() == [(5, 2), (11, 3), (19, 4), (5, 2), (11, 7), (19, 14)]


def test_shadow_check_rejects_a_three_class_projection(tmp_path):
    m, t = 5, 2
    perm = list(range(2 * m))
    op = wl.shadow_op(m, t, perm, tmp_path / "s.txt")
    rows = ref.reverse(wl.shadow_table(m, t), m)
    good = ref.quotient_text(rows, [list(range(m)), list(range(m, 2 * m))])
    assert op.check(0, good, "") is None
    bad = ref.quotient_text(rows, [list(range(m)), [m], list(range(m + 1, 2 * m))])
    assert op.check(0, bad, "") is not None
    assert op.check(1, good, "") is not None


def test_witness_is_checked_by_evaluation():
    rows = wl.REVERSED["rev-affine27t4"]
    check = wl.check_op_expectation(rows, 9, medial=False)
    w = ref.medial_witness(rows)
    line = f"medial: False witness=({w[0]}, {w[1]}, {w[2]}, {w[3]})"
    holds = "9-quandle: True"
    assert check(1, f"{wl.AXIOMS_OK}\n{line}\n{holds}\n", "") is None
    assert check(1, f"{wl.AXIOMS_OK}\nmedial: False witness=(0, 0, 0, 0)\n{holds}\n", "")


def test_reference_facts_behind_the_corpus():
    for rows in wl.CORPUS.values():
        assert ref.medial_witness(rows) is None
    for rows in wl.REVERSED.values():
        assert ref.medial_witness(rows) is not None
    assert len(ref.least_congruence(wl.REVERSED["rev-affine27t4"])) == 9
    assert len(ref.least_congruence(wl.REVERSED["rev-affine21t4"])) == 3


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
