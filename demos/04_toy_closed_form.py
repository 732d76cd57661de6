# Smallest nontrivial case: two generic polynomials in one variable.
# Eliminating y by hand gives  u10*du01 - u11*du00  up to sign; the
# mixed-subdivision Newton matrix and the classical Sylvester matrix both
# reproduce it.

from sdres import parse_system, run_pipeline
from sdres.algred import algebraic_reduction
from sdres.diffpoly import support_matrix
from sdres.essanalysis import (
    RankOracle,
    find_super_essential,
    select_and_specialize,
    symbolic_rank,
)
from sdres.pipeline import resultant_terms
from sdres.resultant import extract_supports, sylvester_resultant

TEXT = """
P0 = u + u*y[1,0]
P1 = u + u*y[1,1]
"""

report = run_pipeline(parse_system(TEXT), seed=0)
print("pipeline result (Newton-matrix quotient):")
for coeff, factors in resultant_terms(report):
    pretty = "*".join(
        f"d{r.shift}.u[{r.poly},{r.coeff}]" if r.shift else f"u[{r.poly},{r.coeff}]"
        for r, _ in factors)
    print(f"  {'+' if coeff > 0 else '-'} {pretty}")

# same thing through the classical Sylvester matrix of the z-system
system = parse_system(TEXT).to_system()
oracle = RankOracle(support_matrix(system.polys, system.nvars))
subset = find_super_essential(symbolic_rank(oracle), len(system.polys))
spec = select_and_specialize(system, oracle, subset)
red = algebraic_reduction(spec, spec.bounds.modified)
supports, _ = extract_supports(red.zpolys)
poly, size = sylvester_resultant(supports)
print(f"{size}x{size} Sylvester determinant agrees:", poly == report.resultant)
