"""The reference for ``serialize(report, "json")``: the report as a dict of
plain values, dumped by ``json.dumps(indent=2, sort_keys=True)``.

The program writes the same bytes directly (``pipeline._json_payload``);
the tests compare the two.
"""

import json

from sdres.pipeline import resultant_terms


def structured_dict(report):
    out = {"essential": report.essential, "seed": report.seed}
    if report.super_essential is not None:
        out["super_essential"] = list(report.super_essential)
    if report.kept_vars is not None:
        out["kept_vars"] = list(report.kept_vars)
        out["order_matrix"] = [
            ["-inf" if e is None else e for e in row]
            for row in report.order_matrix]
        out["jacobi"] = list(report.jacobi)
        out["modified_jacobi"] = list(report.modified_jacobi)
    if report.resultant is not None:
        out["alg_essential"] = [
            {"poly": i, "shift": l} for i, l in report.alg_essential]
        out["m1_dim"] = report.m1_dim
        out["m2_dim"] = report.m2_dim
        out["resultant"] = {"terms": [
            {
                "coeff": str(coeff),
                "factors": [
                    {"u": [ref.poly, ref.coeff], "shift": ref.shift,
                     "exp": exp}
                    for ref, exp in factors
                ],
            }
            for coeff, factors in resultant_terms(report)
        ]}
    return out


def reference_json(report):
    """The bytes ``serialize(report, "json")`` must produce."""
    return (json.dumps(structured_dict(report), indent=2, sort_keys=True)
            + "\n").encode()
