# Only a unique minimal subsystem contributes coefficients to the resultant.
# Extract it, pick the variables to keep, and compute the order bounds that
# control how often each polynomial must be transformed.

from sdres import (
    RankOracle,
    find_super_essential,
    parse_system,
    select_and_specialize,
    support_matrix,
    symbolic_rank,
)

TEXT = """
# five generic difference polynomials in y1..y4
P0 = u + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,0]^2*y[2,0]*y[3,0]*y[4,0]*y[4,1]
P1 = u + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,1]^2*y[2,1]*y[3,1]*y[4,1]*y[4,2]
P2 = u + u*y[1,2]^2*y[2,2]^2*y[3,2] + u*y[1,1]^2*y[2,1]^2*y[3,1] + u*y[1,0]^2*y[2,0]*y[3,0]*y[4,0]*y[4,1]
P3 = u + u*y[1,1]*y[2,1] + u*y[1,1]^2*y[2,1]*y[3,1]*y[4,2]
P4 = u + u*y[1,1]*y[3,2]*y[4,1] + u*y[1,1]^2*y[2,2]*y[4,0]
"""

system = parse_system(TEXT).to_system()
# one evaluation of the symbolic support matrix answers all three questions
oracle = RankOracle(support_matrix(system.polys, system.nvars))
subset = find_super_essential(symbolic_rank(oracle), len(system.polys))
print("super-essential subsystem:", ", ".join(f"P{i}" for i in subset))

spec = select_and_specialize(system, oracle, subset)
print("variables kept as pivots:", ", ".join(f"y{v}" for v in spec.kept_vars))
print("order matrix (None = variable absent):")
for row in spec.bounds.order_mat:
    print("  ", row)
print("row-deleted assignment bounds:", spec.bounds.jacobi)
print("gcd-sharpened order bounds:   ", spec.bounds.modified)
