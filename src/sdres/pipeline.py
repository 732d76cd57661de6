"""End-to-end driver: existence check through resultant extraction.

Each stage reuses the per-module entry points; all randomness is derived
from one user seed through the shared per-stage splitting rule, so a fixed
seed gives byte-identical structured output.
"""

import json
import time
from dataclasses import dataclass, field

from .algred import algebraic_reduction
from .diffpoly import DiffSystem, support_matrix
from .essanalysis import (
    find_super_essential,
    select_and_specialize,
    symbolic_rank,
)
from .resultant import MAX_RETRIES, compute_resultant

STAGES = ("check", "super", "bounds", "resultant")


@dataclass
class PipelineReport:
    """Everything the driver learned, deepest stage first absent = not run."""

    seed: int
    stage: str                    # deepest stage that actually ran
    essential: bool
    rank: int
    nvars: int
    npolys: int
    reason: str = ""              # set when there is no resultant
    super_essential: tuple = None
    kept_vars: tuple = None
    order_matrix: tuple = None    # None entries mean minus infinity
    jacobi: tuple = None
    modified_jacobi: tuple = None
    alg_essential: tuple = None   # (poly index, shift) per essential row
    m1_dim: int = None
    m2_dim: int = None
    mixed_counts: tuple = None
    resultant: object = None      # MultiPoly
    symbols: object = None        # SymbolTable: id -> CoeffRef
    attempts: int = None
    timing: dict = field(default_factory=dict)

    @property
    def no_resultant(self):
        return not self.essential


def run_pipeline(src, stage="resultant", seed=0, paranoid=False,
                 max_retries=MAX_RETRIES, kept_override=None, log=None):
    """Run the pipeline up to ``stage`` and collect a PipelineReport.

    A system that fails the existence check yields a normal report with
    ``essential`` False; every later stage is skipped.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    depth = STAGES.index(stage)
    t0 = time.perf_counter()
    timing = {}

    def tick(name):
        nonlocal t0
        now = time.perf_counter()
        timing[name] = now - t0
        t0 = now
        if log is not None:
            log(f"stage {name} done in {timing[name]:.3f}s")

    polys, n = src.polys, src.nvars
    if len(polys) != n + 1:
        report = PipelineReport(
            seed=seed, stage="check", essential=False, rank=0,
            nvars=n, npolys=len(polys),
            reason=(f"{len(polys)} polynomials in {n} "
                    f"variable{'s' if n != 1 else ''}; "
                    f"a sparse difference resultant needs exactly {n + 1}"))
        tick("check")
        report.timing = timing
        return report
    rank = symbolic_rank(support_matrix(polys, n), seed=seed,
                         exact=paranoid).rank
    essential = rank == n
    report = PipelineReport(
        seed=seed, stage="check", essential=essential, rank=rank,
        nvars=n, npolys=len(polys))
    tick("check")
    if not essential:
        report.reason = f"symbolic support matrix has rank {rank} < {n}"
        report.timing = timing
        return report
    if depth < 1:
        report.timing = timing
        return report

    system = DiffSystem(polys=polys, nvars=n)
    report.super_essential = find_super_essential(system, seed=seed,
                                                  exact=paranoid)
    report.stage = "super"
    tick("super")
    if depth < 2:
        report.timing = timing
        return report

    spec = select_and_specialize(system, report.super_essential, seed=seed,
                                 kept_override=kept_override, exact=paranoid)
    report.kept_vars = spec.kept_vars
    report.order_matrix = spec.bounds.order_mat
    report.jacobi = spec.bounds.jacobi
    report.modified_jacobi = spec.bounds.modified
    report.stage = "bounds"
    tick("bounds")
    if depth < 3:
        report.timing = timing
        return report

    red = algebraic_reduction(spec.polys, spec.bounds.modified, seed=seed,
                              exact=paranoid)
    res = compute_resultant(red.zpolys, seed=seed, max_retries=max_retries)
    report.alg_essential = red.essential_tags
    report.m1_dim = res.m1_dim
    report.m2_dim = res.m2_dim
    report.mixed_counts = res.mixed_counts
    report.resultant = res.polynomial
    report.symbols = res.symbols
    report.attempts = res.attempts
    report.stage = "resultant"
    tick("resultant")
    report.timing = timing
    return report


# ------------------------------------------------------------- serialization


def _factor_label(ref, exp):
    head = "" if ref.shift == 0 else ("d" if ref.shift == 1 else f"d{ref.shift}")
    s = f"{head}u[{ref.poly},{ref.coeff}]"
    return s if exp == 1 else f"{s}^{exp}"


def resultant_terms(report):
    """Term list of the resultant with symbol ids mapped back to shifted
    input coefficients, ready for serialization."""
    out = []
    for mono, coeff in report.resultant.sorted_terms():
        factors = sorted(
            (report.symbols.lookup(sid), exp) for sid, exp in mono)
        out.append((coeff, tuple(factors)))
    return tuple(out)


def _term_string(coeff, factors):
    body = "*".join(_factor_label(ref, exp) for ref, exp in factors)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def _text_lines(report, verbose=False):
    lines = []
    if report.no_resultant:
        lines.append(f"No SDResultant ({report.reason})")
        lines.append(f"seed: {report.seed}")
        if verbose:
            lines.extend(_timing_lines(report))
        return lines
    lines.append(
        f"essential: yes (support matrix rank {report.rank} in "
        f"{report.nvars} variable{'s' if report.nvars != 1 else ''})")
    if report.super_essential is not None:
        inner = ", ".join(f"P{i}" for i in report.super_essential)
        lines.append(f"super-essential subsystem: {{{inner}}}")
    if report.kept_vars is not None:
        lines.append("kept variables: "
                     + ", ".join(f"y{v}" for v in report.kept_vars))
        lines.append("order matrix (rows follow the subsystem):")
        for row in report.order_matrix:
            cells = ["-inf" if e is None else str(e) for e in row]
            lines.append("  [" + " ".join(f"{c:>4}" for c in cells) + "]")
        lines.append("jacobi bounds: "
                     + ", ".join(str(j) for j in report.jacobi))
        lines.append("modified bounds: "
                     + ", ".join(str(j) for j in report.modified_jacobi))
    if report.resultant is not None:
        inner = ", ".join(_row_label(i, l) for i, l in report.alg_essential)
        lines.append(f"algebraic essential system: {inner}")
        lines.append(f"matrix dimensions: {report.m1_dim} with a "
                     f"{report.m2_dim}-row minor")
        terms = resultant_terms(report)
        lines.append(f"resultant ({len(terms)} terms, total degree "
                     f"{report.resultant.total_degree()}):")
        for coeff, factors in terms:
            lines.append("  " + _term_string(coeff, factors))
    lines.append(f"seed: {report.seed}")
    if verbose:
        lines.extend(_timing_lines(report))
    return lines


def _row_label(i, l):
    if l == 0:
        return f"P{i}"
    if l == 1:
        return f"dP{i}"
    return f"d{l}P{i}"


def _timing_lines(report):
    return ["timing: " + ", ".join(
        f"{k} {v:.3f}s" for k, v in report.timing.items())]


def _structured_dict(report):
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


def serialize(report, format="text", verbose=False):
    """Bytes for the CLI: human-readable text or stable structured JSON."""
    if format == "text":
        return ("\n".join(_text_lines(report, verbose=verbose)) + "\n").encode()
    if format in ("structured", "json"):
        payload = json.dumps(_structured_dict(report), indent=2,
                             sort_keys=True)
        return (payload + "\n").encode()
    raise ValueError(f"unknown serialization format {format!r}")
