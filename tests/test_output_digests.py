"""Two output gates over many inputs at once.

* The bounds stage: ``serialize(run_pipeline(text, stage="bounds", seed=0),
  "json")``, or the ``repr`` of the ``SDResError`` it raises, for each of
  the 2 x 1000 analysis draws of ``bench/workloads.py`` (seeds 0 and 1).
  Error messages are part of the digest.
* Full ``--format json`` reports: toy, golden, corpus1-5, S1, S4, S6, N1,
  s1_4_3, s1_4_5, shift20, shift30 and the shift family
  ``P0 = u + u*y[1,0]*y[1,k]``, ``P1 = u + u*y[1,1]`` at k = 5, 50 and 300,
  each at pipeline seeds 0 and 1, randomized then paranoid (72 payloads).

Each sha256 is over the outputs in that order, each followed by a NUL byte.
``bench/workloads.py`` is loaded by path and not changed.
"""

import hashlib
import importlib.util
import pathlib

from sdres import parse_system, run_pipeline, serialize
from sdres.errors import SDResError

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

BOUNDS_DIGEST = \
    "a3c3b978d5a0ff40ef1f6e94be8526c8acfb98456245d544c8d7aa3346ef9e60"
JSON_DIGEST = \
    "7e0379cd06f981d52d63f755ad3d420eec47a2365dce5f31015807b59644650a"

CASES = ("toy", "golden", "corpus1", "corpus2", "corpus3", "corpus4",
         "corpus5", "S1", "S4", "S6", "N1", "s1_4_3", "s1_4_5", "shift20",
         "shift30")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bounds_stage_digest_over_the_analysis_draws():
    workloads = load_workloads()
    digest = hashlib.sha256()
    for seed in (0, 1):
        for text in workloads.analysis_texts(seed):
            try:
                out = serialize(run_pipeline(parse_system(text),
                                             stage="bounds", seed=0), "json")
            except SDResError as exc:
                out = repr(exc).encode()
            digest.update(out + b"\0")
    assert digest.hexdigest() == BOUNDS_DIGEST


def test_json_digest_over_cases_seeds_and_routes():
    texts = [load_workloads().case_text(name) for name in CASES]
    texts += [f"P0 = u + u*y[1,0]*y[1,{k}]\nP1 = u + u*y[1,1]"
              for k in (5, 50, 300)]
    digest = hashlib.sha256()
    for text in texts:
        src = parse_system(text)
        for seed in (0, 1):
            for paranoid in (False, True):
                digest.update(serialize(run_pipeline(
                    src, seed=seed, paranoid=paranoid), "json") + b"\0")
    assert digest.hexdigest() == JSON_DIGEST
