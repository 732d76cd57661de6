"""sdres benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload golden --seed 0 --seconds 12 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/``.  One single-threaded client drives one worker process in a closed
loop, one case at a time, through parse_system -> run_pipeline -> serialize.
Each case has a time budget; a case that overruns it is stopped by killing
the worker, which is then replaced.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` a traced pass reports the per-layer
metrics.  Every output is checked: a resultant must vanish where its
system has a solution and equal its reference where one was recorded.
Human-readable lines come first; the last line of stdout is the JSON
result.  A full record (run record, every attempt, metrics, and for traced
runs the spans) is written under ``bench/results/``.  The exit code is 0 when every output
was correct, 1 on any wrong answer and 2 when the benchmark cannot run.
"""

import argparse
import hashlib
import json
import os
import platform
import runpy
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import vanish
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFS = BENCH / "refs"

BUDGET_S = 12.0           # per case; a failed case counts this in wall_s
MEMORY_CAP_MB = 1024      # worker address-space cap (RLIMIT_AS)
STARTUP_S = 60.0          # a worker that is not ready by then is an error
SETUP_SAMPLES = 3         # fresh interpreters timed for setup_s, before
                          # and again after the measurement
PIPELINE_SEED = 0         # the CLI default
# analysis draws of an unrecorded seed are checked against a rerun through
# the exact rank route under another pipeline seed, with a budget of its own
VERIFY = {"seed": 1, "paranoid": True}
VERIFY_BUDGET_S = 60.0

KINDS = ("solved", "timeout", "sdres_error", "exception", "wrong_answer")
# a traced run attempts each case traced, untraced, untraced, traced, ...:
# pairs whose first member alternates, so that drift favours neither side
TRACE_ORDER = (True, False, False, True, True, False)
OVERHEAD_PAIRS = len(TRACE_ORDER) // 2
DIGEST_CHARS = 8          # hex digits of a payload digest kept as an answer


class HarnessError(Exception):
    """The benchmark itself cannot run (missing program, dead worker...)."""


# ------------------------------------------------------------------ worker


class Worker:
    """At most one worker process, started on demand and killed on overrun."""

    def __init__(self):
        self.proc = None
        self.buf = b""
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def _readline(self, deadline):
        """One reply line, b"" when the worker exited, None on timeout."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return b""
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def _start(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(MEMORY_CAP_MB)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=self.env)
        if not self._readline(time.monotonic() + STARTUP_S):
            self.stop()
            raise HarnessError("the worker did not start")

    def stop(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc, self.buf = None, b""

    def run(self, request, budget):
        """The worker's reply, or a timeout/exception reply made here."""
        if self.proc is None:
            self._start()
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            line = b""
        else:
            line = self._readline(time.monotonic() + budget)
        if line is None:
            self.stop()
            return {"kind": "timeout", "error": f"no answer within {budget:g} s"}
        if not line:
            code = self.proc.poll()
            self.stop()
            return {"kind": "exception", "error": f"worker exited ({code})"}
        reply = json.loads(line)
        if reply["kind"] != "ok":
            self.stop()   # start the next case from a clean process
        return reply


# ------------------------------------------------------------ correctness


def answer(data, stage):
    """What is compared with the reference, from the parsed JSON payload:
    the resultant's terms up to sign for the resultant stage (not the
    matrix sizes, which an alternate construction may change), else a
    digest of the payload without its seed."""
    if stage != "resultant":
        text = json.dumps({k: v for k, v in data.items() if k != "seed"},
                          sort_keys=True).encode()
        return hashlib.sha256(text).hexdigest()[:DIGEST_CHARS]
    if "resultant" not in data:
        return None
    return canonical_terms(
        (int(t["coeff"]),
         [(f["u"][0], f["u"][1], f["shift"], f["exp"]) for f in t["factors"]])
        for t in data["resultant"]["terms"])


def canonical_terms(terms):
    """Terms (coeff, factors) as a hashable value that ignores term order,
    factor order and the overall sign."""
    plus = tuple(sorted((c, tuple(sorted(map(tuple, f)))) for c, f in terms))
    minus = tuple(sorted((-c, f) for c, f in plus))
    return min(plus, minus)


def analysis_references(seed, count):
    """Recorded payload digest per draw, all None for an unrecorded seed."""
    digests = json.loads((REFS / "analysis.json").read_text()).get(str(seed))
    if digests is None or len(digests) != count * DIGEST_CHARS:
        return [None] * count
    return [digests[i:i + DIGEST_CHARS]
            for i in range(0, len(digests), DIGEST_CHARS)]


def references(names):
    """Reference answer per fixed case, None where none was recorded."""
    recorded = json.loads((REFS / "resultants.json").read_text())
    refs = {name: canonical_terms(recorded[name]) if name in recorded else None
            for name in names}
    if "golden" in refs:
        frozen = runpy.run_path(str(ROOT / "tests" / "golden_resultant.py"))
        refs["golden"] = canonical_terms(
            (sign, [(i, j, l, 1) for i, j, l in factors])
            for sign, factors in frozen["GOLDEN_TERMS"])
    if "toy" in refs:
        refs["toy"] = canonical_terms(workloads.TOY_TERMS)
    return refs


# ------------------------------------------------------------ measurement


class Case:
    def __init__(self, name, text, stage, reference):
        self.name, self.text, self.stage = name, text, stage
        self.reference = reference
        self.attempts = []

    def request(self, trace, seed=PIPELINE_SEED, paranoid=False):
        return {"text": self.text, "stage": self.stage, "seed": seed,
                "paranoid": paranoid, "trace": trace}

    @property
    def solved(self):
        return all(a["kind"] == "solved" for a in self.attempts)

    def cost(self, record):
        return record["seconds"] if record["kind"] == "solved" else BUDGET_S


def attempt(worker, case, trace=False):
    reply = worker.run(case.request(trace), BUDGET_S)
    record = {"kind": reply["kind"], "traced": trace,
              "seconds": reply.get("seconds"),
              "rss_mb": reply.get("rss_mb"), "error": reply.get("error"),
              "answer": None, "terms": 0, "spans": reply.get("spans")}
    if reply["kind"] == "ok":
        data = json.loads(reply["payload"])
        record["kind"] = "solved"
        record["answer"] = answer(data, case.stage)
        record["terms"] = len(data.get("resultant", {}).get("terms", ()))
    case.attempts.append(record)
    return record


def measure(worker, cases, seconds):
    """Every case once, then the solved ones round-robin for ``seconds``
    more.  Failed cases are not repeated: each already costs its whole
    budget."""
    for case in cases:
        attempt(worker, case)
    end = time.monotonic() + seconds
    again = [c for c in cases if c.solved]
    while again and time.monotonic() < end:
        for case in again:
            if time.monotonic() >= end:
                break
            attempt(worker, case)
        again = [c for c in again if c.solved]


def problem(worker, case, given):
    """What is wrong with the answer ``given`` to ``case``, None if nothing.

    A resultant must vanish where its system has a solution (``vanish.py``,
    which shares no code with the program) and, where one was recorded,
    equal the reference.  An ``analysis`` draw of an unrecorded seed is
    compared with a rerun, untimed and with a budget of its own, through
    the exact rank route."""
    if case.stage == "resultant":
        if given is None:
            return "the payload has no resultant"
        wrong = vanish.problem(case.text, given)
        if wrong:
            return wrong
    elif case.reference is None:
        reply = worker.run(case.request(False, **VERIFY), VERIFY_BUDGET_S)
        if reply["kind"] != "ok":
            return f"no reference: the rerun gave {reply['kind']}"
        case.reference = answer(json.loads(reply["payload"]), case.stage)
    if case.reference is not None and given != case.reference:
        return "answer differs from the reference"
    return None


def verify(worker, cases):
    """Turn every solved attempt with a wrong answer into a wrong_answer."""
    for case in cases:
        solved = [a for a in case.attempts if a["kind"] == "solved"]
        problems = {given: problem(worker, case, given)
                    for given in {a["answer"] for a in solved}}
        for a in solved:
            if problems[a["answer"]] is not None:
                a["kind"] = "wrong_answer"
                a["error"] = problems[a["answer"]]


def measure_traced(worker, cases):
    """Every case in TRACE_ORDER, stopping at its first failure.  Only the
    first attempt, which is traced, keeps its spans."""
    for case in cases:
        for trace in TRACE_ORDER:
            if attempt(worker, case, trace)["kind"] != "solved":
                break
        for a in case.attempts[1:]:
            a["spans"] = None


def measure_setup():
    """Seconds for a fresh interpreter to run ``import sdres``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import sdres"], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=STARTUP_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise HarnessError("import sdres failed: "
                               + done.stderr.decode(errors="replace")[-500:])
    return samples


# --------------------------------------------------------------- metrics


def end_to_end(cases, setup):
    """Metric values and their sample counts."""
    wall = sum(statistics.median(c.cost(a) for a in c.attempts) for c in cases)
    # first attempts only: the worker's peak grows a little with every
    # repeat, and how many repeats fit in --seconds depends on the host
    rss = [c.attempts[0]["rss_mb"] for c in cases
           if c.attempts[0]["kind"] == "solved"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "solved_frac": sum(c.solved for c in cases) / len(cases),
        "peak_rss_mb": max(rss, default=0.0),
    }
    samples = {"setup_s": len(setup), "wall_s": sum(len(c.attempts) for c in cases),
               "solved_frac": len(cases), "peak_rss_mb": len(rss)}
    return values, samples


# summed duration of every span of that name
SPAN_TIME = {
    "resultant.subdivision_s": "mixed_subdivision",
    "ratlp.lp_s": "solve_lp",
    "resultant.minor_check_s": "_minor_nonzero_check",
    "resultant.matrices_s": "build_matrices",
    "resultant.sylvester_s": "sylvester_resultant",
    "essanalysis.rank_s": "rank_with_pivots",
    "essanalysis.check_s": "symbolic_rank",
    "essanalysis.super_s": "find_super_essential",
    "essanalysis.bounds_s": "select_and_specialize",
    "algred.reduce_s": "algebraic_reduction",
    "algred.circuit_s": "find_minimal_essential",
    "algred.varreduce_s": "variable_essential_reduce",
    "algred.lattice_s": "strong_essential_transform",
    "parsing.parse_s": "parse_system",
    "pipeline.serialize_s": "serialize",
}
# number of spans of that name
SPAN_COUNT = {
    "ratlp.lp_solves": "solve_lp",
    "multipoly.det_calls": "determinant",
    "essanalysis.rank_queries": "rank_with_pivots",
    "essanalysis.jacobi_calls": "jacobi_number",
}
# sum of one attribute recorded on spans of that name
SPAN_ATTR = {
    "resultant.points": ("mixed_subdivision", "points"),
    "resultant.m1_dim": ("build_matrices", "dim"),
    "resultant.m1_nnz": ("build_matrices", "nnz"),
    "resultant.m2_dim": ("build_matrices", "minor"),
    "resultant.attempts": ("compute_resultant", "attempts"),
    "algred.prolonged_rows": ("find_minimal_essential", "rows"),
}


def self_times(spans):
    """Each span's duration minus the time its children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, terms):
    """Per-layer values from one case's spans (see README.md for each)."""
    out = defaultdict(float)
    for metric, name in SPAN_COUNT.items():
        out[metric] = sum(1 for s in spans if s[0] == name)
    own = self_times(spans)
    det_order = defaultdict(int)
    in_circuit = []
    for name, _, _, parent, _ in spans:
        in_circuit.append(name == "find_minimal_essential" or
                          (parent is not None and in_circuit[parent]))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        duration = end - start
        for metric, span_name in SPAN_TIME.items():
            if name == span_name:
                out[metric] += duration
        for metric, (span_name, key) in SPAN_ATTR.items():
            if name == span_name and attrs:
                out[metric] += attrs[key]
        if name == "solve_lp" and attrs and attrs["status"] == "infeasible":
            out["ratlp.lp_infeasible"] += 1
        if name == "stage_rng" and attrs["tag"].startswith("subdivision-"):
            out["resultant.subdivision_attempts"] += 1
        if name == "rank_with_pivots" and in_circuit[i]:
            out["algred.circuit_rank_queries"] += 1
        if name == "quotient_resultant":
            out["resultant.quotient_s"] += own[i]
        if name == "determinant" and parent is not None \
                and spans[parent][0] == "quotient_resultant":
            side = "num" if det_order[parent] == 0 else "den"
            det_order[parent] += 1
            out[f"multipoly.det_{side}_s"] += duration
    out["resultant.terms"] = terms
    return out


def overhead(cases):
    """(traced - untraced) / untraced seconds over the solved cases, per
    pair of attempts."""
    traced = [0.0] * OVERHEAD_PAIRS
    untraced = [0.0] * OVERHEAD_PAIRS
    for case in cases:
        if not case.solved:
            continue
        for i, a in enumerate(case.attempts):
            side = traced if a["traced"] else untraced
            side[i // 2] += a["seconds"]
    return [(t - u) / u for t, u in zip(traced, untraced) if u]


def per_layer(cases, wanted):
    """Workload totals, per-case values, and the traced/untraced overhead
    ratios (one per pair)."""
    total = defaultdict(float)
    by_case = {}
    for case in cases:
        traced = case.attempts[0]
        if traced["spans"] is None:
            continue   # killed on timeout: its spans are lost
        values = layer_metrics(traced["spans"], traced["terms"])
        by_case[case.name] = {k: v for k, v in values.items() if v}
        for k, v in values.items():
            total[k] += v
    total["ratlp.points_per_lp"] = (total["resultant.points"]
                                    / total["ratlp.lp_solves"]
                                    if total["ratlp.lp_solves"] else 0.0)
    ratios = overhead(cases)
    total["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    return {k: total[k] for k in wanted}, by_case, ratios


# ------------------------------------------------------------------ record


def run_record(args):
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0")
        source.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pipeline_seed": PIPELINE_SEED,
        "budget_s": BUDGET_S, "memory_cap_mb": MEMORY_CAP_MB,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "commit": commit, "source_sha256": source.hexdigest(),
    }


def spec():
    """Metric names and units from BENCHMARK.json: (end_to_end, per_layer)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def load_cases(workload, seed):
    stage = workloads.STAGE[workload]
    if workload == "analysis":
        texts = workloads.analysis_texts(seed)
        refs = analysis_references(seed, len(texts))
        return [Case(f"draw{i:04d}", text, stage, ref)
                for i, (text, ref) in enumerate(zip(texts, refs))]
    names = workloads.FIXED[workload]
    refs = references(names)
    return [Case(n, workloads.case_text(n), stage, refs[n]) for n in names]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdres" / "__init__.py").is_file():
        print(f"run.py: no program at {SRC}/sdres", file=sys.stderr)
        return 2
    e2e_units, layer_units = spec()
    units = layer_units if args.trace else e2e_units
    record = run_record(args)
    cases = load_cases(args.workload, args.seed)
    worker = Worker()
    try:
        if args.trace:
            measure_traced(worker, cases)
        else:
            setup = measure_setup()
            measure(worker, cases, args.seconds)
            setup += measure_setup()
        verify(worker, cases)
    finally:
        worker.stop()

    by_case = None
    if args.trace:
        values, by_case, ratios = per_layer(cases, units)
        samples = {name: 1 for name in units}
        samples["trace.overhead_frac"] = len(ratios)
        # a median smaller than the spread between pairs is drift, not cost
        record["overhead_pairs"] = ratios
        record["overhead_resolved"] = bool(ratios) and abs(
            values["trace.overhead_frac"]) > max(ratios) - min(ratios)
    else:
        values, samples = end_to_end(cases, setup)
    attempts = [a for c in cases for a in c.attempts]
    kinds = {k: sum(a["kind"] == k for a in attempts) for k in KINDS}
    correct = kinds["wrong_answer"] == 0
    record["samples"] = samples
    record["units"] = units
    record["attempts_by_kind"] = kinds

    print("run record: " + json.dumps(
        {k: v for k, v in record.items() if k not in ("samples", "units")}))
    for case in cases if args.workload != "analysis" else []:
        a = case.attempts[0]
        time_s = f"{a['seconds']:.4f} s" if a["seconds"] is not None else "-"
        print(f"case {case.name:10s} {a['kind']:12s} {time_s:>11s}"
              f"  x{len(case.attempts)}  {a['error'] or ''}")
        if by_case is not None and case.name in by_case:
            counts = {k: int(v) for k, v in by_case[case.name].items()
                      if not k.endswith("_s")}
            print(f"     counts {json.dumps(counts)}")
    for case in cases:
        for a in case.attempts:
            if a["kind"] == "wrong_answer":
                print(f"WRONG ANSWER {case.name}: {a['error']}")
    for name, unit in units.items():
        note = ""
        if name == "trace.overhead_frac" and not record["overhead_resolved"]:
            note = "  unresolved: smaller than the spread between pairs"
        print(f"{name:34s} {values[name]:14.6f} {unit:6s} (n={samples[name]}){note}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as handle:
        json.dump({"record": record, "metrics": values, "by_case": by_case,
                   "attempts": {c.name: [[a["kind"], a["seconds"], a["error"]]
                                         for a in c.attempts] for c in cases}},
                  handle, indent=1)
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w") as handle:
            for case in cases:
                spans = case.attempts[0]["spans"] or []
                for i, ((name, start, end, parent, attrs), own) in enumerate(
                        zip(spans, self_times(spans))):
                    handle.write(json.dumps({
                        "case": case.name, "id": i, "name": name,
                        "start": start, "end": end, "self": own,
                        "parent": parent, "attrs": attrs}) + "\n")

    # one operation per case: repeats are timing samples of it, and their
    # number depends on the host, so counting them would make the totals vary
    print(json.dumps({
        "correct": correct, "attempted": len(cases),
        "failed": sum(not c.solved for c in cases),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(2)
