"""Record the benchmark's reference answers in ``refs/``.

    python3 bench/record_refs.py

Run once, when the benchmark's cases change.  Every case is run at pipeline
seed 0, at seed 1, and under ``paranoid=True``; its answer is recorded only
when all three runs finish within RECORD_BUDGET_S seconds each and agree.

* ``refs/resultants.json``: the resultant (terms up to sign) of each fixed
  case other than golden and toy, whose references are frozen elsewhere.
  Cases that do not finish are listed and left without a reference.
* ``refs/analysis.json``: for each seed in ANALYSIS_SEEDS, the payload
  digests of the ``analysis`` draws, concatenated in draw order.
"""

import json
import sys

import run
import workloads

ROUTES = ({"seed": 0, "paranoid": False}, {"seed": 1, "paranoid": False},
          {"seed": 0, "paranoid": True})
ANALYSIS_SEEDS = range(20)
RECORD_BUDGET_S = 60.0


def agreed_answer(worker, case):
    """(answer, None) when every route agrees, else (None, why not)."""
    answers = []
    for route in ROUTES:
        reply = worker.run(case.request(False, **route), RECORD_BUDGET_S)
        if reply["kind"] != "ok":
            return None, f"{route} gave {reply['kind']} {reply.get('error')}"
        answers.append(run.answer(json.loads(reply["payload"]), case.stage))
    if len(set(answers)) != 1:
        sys.exit(f"{case.name}: the routes disagree")
    return answers[0], None


def write_lines(path, entries):
    """JSON object with one entry per line, so a diff shows what changed."""
    lines = [f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
             for key, value in entries.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    resultants, digests = {}, {}
    worker = run.Worker()
    try:
        for workload, names in workloads.FIXED.items():
            for name in names:
                if name in ("golden", "toy"):
                    continue
                case = run.Case(name, workloads.case_text(name),
                                workloads.STAGE[workload], None)
                terms, why = agreed_answer(worker, case)
                if terms is None:
                    print(f"{name}: not recorded, {why}", file=sys.stderr)
                else:
                    resultants[name] = terms
                    print(f"{name}: {len(terms)} terms", file=sys.stderr)
        for seed in ANALYSIS_SEEDS:
            answers = []
            for text in workloads.analysis_texts(seed):
                case = run.Case("draw", text, workloads.STAGE["analysis"], None)
                digest, why = agreed_answer(worker, case)
                if digest is None:
                    sys.exit(f"analysis seed {seed}: a draw failed, {why}")
                answers.append(digest)
            digests[str(seed)] = "".join(answers)
            print(f"analysis seed {seed}: {len(answers)} draws", file=sys.stderr)
    finally:
        worker.stop()
    write_lines(run.REFS / "resultants.json", resultants)
    write_lines(run.REFS / "analysis.json", digests)


if __name__ == "__main__":
    main()
