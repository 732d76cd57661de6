"""The traced benchmark pass still reads today's counters.

``bench/worker.py`` wraps names inside ``sdres`` and its ``NOTES`` read
attributes of their arguments and results; ``bench/run.py``'s
``layer_metrics`` turns the spans into per-layer metrics.  A change to a
shape that ``NOTES`` reads would otherwise break only ``--trace 1``.  Both
files are loaded by path and run unchanged.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

import sdres

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# per-layer counters of one traced run at pipeline seed 0
COUNTERS = {
    "corpus4": {"resultant.m1_dim": 9, "resultant.m1_nnz": 20,
                "resultant.m2_dim": 3, "algred.prolonged_rows": 6},
    "s1_4_3": {"resultant.m1_dim": 32, "resultant.m1_nnz": 80},
    "S4": {"algred.prolonged_rows": 42},
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    """``bench/worker.py`` and ``bench/run.py`` as modules; ``run.py``
    imports its siblings from ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("vanish", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return load("worker"), load("run")


@pytest.mark.parametrize("case", COUNTERS)
def test_traced_run_case_reads_todays_counters(bench, case):
    worker, run = bench
    request = {"text": (BENCH / "cases" / f"{case}.sys").read_text(),
               "stage": "resultant", "seed": 0, "paranoid": False,
               "trace": True}
    reply = worker.run_case(sdres, request, worker.Tracer())
    assert reply["kind"] == "ok", reply.get("error")
    terms = len(json.loads(reply["payload"])["resultant"]["terms"])
    metrics = run.layer_metrics(reply["spans"], terms)
    assert {k: metrics[k] for k in COUNTERS[case]} == COUNTERS[case]


# the stage entry points that ``run_pipeline`` calls by name, each the span
# behind a per-layer metric
STAGE_SPANS = ("symbolic_rank", "find_super_essential", "select_and_specialize",
               "algebraic_reduction", "find_minimal_essential",
               "variable_essential_reduce", "strong_essential_transform",
               "compute_resultant")


def test_traced_run_keeps_a_span_per_stage(bench):
    # moving a stage's work out of its wrapped name would silently zero
    # that stage's metric rather than fail
    worker, _ = bench
    request = {"text": (BENCH / "cases" / "S4.sys").read_text(),
               "stage": "resultant", "seed": 0, "paranoid": False,
               "trace": True}
    reply = worker.run_case(sdres, request, worker.Tracer())
    assert reply["kind"] == "ok", reply.get("error")
    names = [span[0] for span in reply["spans"]]
    assert [name for name in STAGE_SPANS if name not in names] == []
