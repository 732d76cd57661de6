# Decide whether a generic Laurent difference system admits a sparse
# difference resultant: the symbolic support matrix must have rank n.

from sdres import (
    RankOracle,
    is_transformally_essential,
    parse_system,
    support_matrix,
    symbolic_rank,
)

GOOD = """
P0 = u + u*y[1,0]
P1 = u + u*y[1,1]
"""

# every monomial quotient lies in a rank-2 lattice, so rank < n here
BAD = """
P0 = u + u*y[1,0]*y[2,0]
P1 = u + u*y[2,0]*y[3,0]
P2 = u + u*y[1,0]*y[2,0]^2*y[3,0]
P3 = u + u*y[1,0]^2*y[2,0]^2
"""

for label, text in (("good", GOOD), ("bad", BAD)):
    src = parse_system(text)
    system = src.to_system()
    report = symbolic_rank(RankOracle(support_matrix(system.polys, system.nvars)))
    verdict = is_transformally_essential(system)
    print(f"{label}: {len(system.polys)} polynomials in {system.nvars} "
          f"variables, support rank {report.rank} -> "
          f"{'resultant exists' if verdict else 'No SDResultant'}")
