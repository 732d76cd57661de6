"""Benchmark worker: runs one case at a time for ``run.py``.

Started as ``python3 worker.py CAP_MB`` with ``src`` on PYTHONPATH.  It caps
its own address space, imports sdres, prints a ready line and then answers
one JSON request per stdin line with one JSON line on stdout.  A request is
``{"text", "stage", "seed", "paranoid", "trace"}``; the reply holds
the outcome kind, the serialized payload or the error, the seconds spent in
parse -> pipeline -> serialize, the peak RSS so far and, when traced, the
spans.  The harness enforces the time budget by killing this process.

Tracing wraps, from outside the program, the names that each module looks
up at call time in the next one, so nothing inside ``src/`` changes.
"""

import json
import resource
import sys
import time

# (owner, attribute) pairs whose calls become spans, named after the
# attribute; an owner is a module or "module:Class"
TRACED = (
    ("sdres", "parse_system"),
    ("sdres", "run_pipeline"),
    ("sdres", "serialize"),
    ("sdres.pipeline", "symbolic_rank"),
    ("sdres.pipeline", "find_super_essential"),
    ("sdres.pipeline", "select_and_specialize"),
    ("sdres.pipeline", "algebraic_reduction"),
    ("sdres.pipeline", "compute_resultant"),
    ("sdres.essanalysis", "jacobi_number"),
    ("sdres.algred", "find_minimal_essential"),
    ("sdres.algred", "variable_essential_reduce"),
    ("sdres.algred", "strong_essential_transform"),
    ("sdres.resultant", "mixed_subdivision"),
    ("sdres.resultant", "solve_lp"),
    ("sdres.resultant", "build_matrices"),
    ("sdres.resultant", "_minor_nonzero_check"),
    ("sdres.resultant", "quotient_resultant"),
    ("sdres.resultant", "determinant"),
    ("sdres.resultant", "sylvester_resultant"),
    ("sdres.resultant", "stage_rng"),
    ("sdres.essanalysis:RankOracle", "rank_with_pivots"),
)


def _nnz(matrix):
    return sum(1 for row in matrix for entry in row if not entry.is_zero())


# counters recorded on a span from (args, result) when the call returns
NOTES = {
    "solve_lp": lambda args, res: {"status": res.status},
    "mixed_subdivision": lambda args, res: {"points": len(res.points)},
    "build_matrices": lambda args, res: {
        "dim": len(res.m1), "nnz": _nnz(res.m1), "minor": len(res.minor_rows)},
    "find_minimal_essential": lambda args, res: {"rows": args[1]},
    "compute_resultant": lambda args, res: {"attempts": res.attempts},
    "stage_rng": lambda args, res: {"tag": args[1]},
}


def _owner(path):
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder for one case at a time.

    A span is ``[name, start, end, parent, attrs]`` with times in seconds
    from the case start and ``parent`` the index of the enclosing span
    (None at the top).  Wrappers are installed only while a traced case
    runs, so untraced cases run the program unmodified.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.origin = 0.0
        self.saved = []

    def start(self):
        self.spans, self.stack = [], []
        self.origin = time.perf_counter()
        for owner, name in TRACED:
            target = _owner(owner)
            original = getattr(target, name)
            self.saved.append((target, name, original))
            setattr(target, name, self._wrap(name, original))

    def stop(self):
        for target, name, original in reversed(self.saved):
            setattr(target, name, original)
        self.saved = []
        return self.spans

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter() - self.origin, None,
                    stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.origin
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def run_case(sdres, request, tracer):
    if request["trace"]:
        tracer.start()
    start = time.perf_counter()
    try:
        src = sdres.parse_system(request["text"])
        report = sdres.run_pipeline(src, stage=request["stage"],
                                    seed=request["seed"],
                                    paranoid=request["paranoid"])
        payload = sdres.serialize(report, format="json")
    except sdres.SDResError as exc:
        reply = {"kind": "sdres_error", "error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # every other failure is a result to record
        reply = {"kind": "exception", "error": f"{type(exc).__name__}: {exc}"}
    else:
        reply = {"kind": "ok", "payload": payload.decode()}
    reply["seconds"] = time.perf_counter() - start
    if request["trace"]:
        reply["spans"] = tracer.stop()
    reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return reply


def main():
    cap = int(sys.argv[1]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    channel = sys.stdout
    sys.stdout = sys.stderr   # nothing the program prints may reach the channel
    import sdres
    tracer = Tracer()
    channel.write('{"ready": true}\n')
    channel.flush()
    for line in sys.stdin:
        channel.write(json.dumps(run_case(sdres, json.loads(line), tracer)) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()
