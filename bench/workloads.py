"""Benchmark workloads: which cases each one runs, and why.

Fixed cases are stored as input files in ``cases/``; the ``analysis`` draws
are generated from the benchmark seed.  Every case is run through the public
API (parse_system -> run_pipeline -> serialize) at pipeline seed 0, the CLI
default, so the fixed workloads give the same work on every benchmark seed.
"""

import random
from pathlib import Path

CASES_DIR = Path(__file__).resolve().parent / "cases"

# Subdivision LPs are 95-97 % of the solved time here (golden: 288 cold
# Fraction simplex solves, 281 infeasible); S2 and S3 time out inside the
# subdivision.
GOLDEN = ("golden", "toy", "corpus1", "corpus2", "corpus3", "corpus4",
          "corpus5", "S2", "S3")
# The symbolic determinant and quotient take 98 % of the time; S1 and S5
# time out.
NEWTON_DET = ("s1_4_3", "s1_4_5", "S1", "S5")
# A few rank queries on high-degree shift polynomials take 99.7 % of the
# time; S6 and N1 fail fast on the Sylvester path.
HIGH_SHIFT = ("shift20", "shift30", "S4", "S6", "N1")

FIXED = {"golden": GOLDEN, "newton-det": NEWTON_DET, "high-shift": HIGH_SHIFT}
WORKLOADS = ("golden", "newton-det", "high-shift", "analysis")

# stage each workload runs to: analysis serves `sdres check/super/bounds`
STAGE = {"golden": "resultant", "newton-det": "resultant",
         "high-shift": "resultant", "analysis": "bounds"}

ANALYSIS_DRAWS = 1000

# du[0,0]*u[1,1] - du[0,1]*u[1,0]; a term is (coeff, ((poly, coeff, shift,
# exponent), ...))
TOY_TERMS = ((1, ((0, 0, 1, 1), (1, 1, 0, 1))),
             (-1, ((0, 1, 1, 1), (1, 0, 0, 1))))


def case_text(name):
    return (CASES_DIR / f"{name}.sys").read_text()


def analysis_texts(seed, count=ANALYSIS_DRAWS):
    """``count`` candidate systems drawn from ``seed``.

    Same distribution as the acceptance tests' random_candidate_system:
    1-3 variables, n+1 polynomials of 2-4 terms, each variable present in
    a term with probability 0.6 at shift 0-2 and exponent +-1 or +-2.
    """
    rng = random.Random(f"{seed}/analysis")
    return [_candidate_text(rng) for _ in range(count)]


def _candidate_text(rng):
    n = rng.randint(1, 3)
    lines = []
    for i in range(n + 1):
        nterms = rng.randint(2, 4)
        monos = [()]
        draws = 0
        while len(monos) < nterms and draws < 60:
            draws += 1
            mono = tuple(
                (v, rng.randint(0, 2), rng.choice((-2, -1, 1, 2)))
                for v in range(1, n + 1) if rng.random() < 0.6)
            if mono not in monos:
                monos.append(mono)
        terms = ["*".join(["u"] + [f"y[{v},{k}]" + ("" if e == 1 else f"^{e}")
                                   for v, k, e in mono])
                 for mono in monos]
        lines.append(f"P{i} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"
