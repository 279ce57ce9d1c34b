"""Expression-AST lint: data hazards of the site-parallel model.

A QDP expression is compiled to a kernel that runs one thread per
site.  That execution model makes some syntactically valid
expressions hazardous:

``shift-alias``
    ``psi = shift(psi, FORWARD, mu)`` — the destination is read
    through a shifted view.  In a raw site-parallel kernel this is a
    silent read/write race: thread ``x`` writes ``psi(x)`` while
    thread ``x - mu`` is reading it.  (The evaluator defuses the race
    by materializing a temporary copy first, QDP++-style — correct,
    but an extra kernel launch and a full field of traffic.)
``shift-antiparallel``
    The same field shifted both FORWARD and BACKWARD along one axis
    in a single expression: both faces of the axis are needed at
    once, which defeats face buffering in multi-rank runs (both
    halos must be exchanged before the kernel can start anywhere).
    A note, not a warning — stencil operators like dslash are
    antiparallel by construction; the finding makes the comm cost
    visible without flagging correct code.
``lattice-conformance``
    Fields over non-conformant lattices (different shapes), or a
    subset whose site table exceeds the destination lattice — the
    layout function would index out of bounds.
``shift-materialization``
    ``shift`` of a non-leaf expression (or of a shift) is legal but
    is materialized into a temporary before the main kernel — a
    note, so the cost is visible.

:func:`lint_assignment` reports findings as structured
:class:`~repro.diagnostics.Diagnostic` records;
:func:`check_assignment` is the evaluator hook that applies the
``REPRO_VERIFY`` strictness knob.  Neither walks the tree: a pass is a
set operation on the root's facts (:class:`~repro.core.expr.Expr`).
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity, emit_warnings, errors
from .expr import Expr, leaf_fields

#: Names of the AST lint passes, for reporting.
LINT_PASSES = ("shift-alias", "shift-antiparallel", "lattice-conformance",
               "shift-materialization")


class LintError(Exception):
    """An expression failed AST lint under ``REPRO_VERIFY=error``."""

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


def _field_name(field) -> str:
    return getattr(field, "name", None) or f"field#{field.uid}"


def _fields(expr: Expr) -> dict:
    """uid -> field of every field ``expr`` reads."""
    return {f.uid: f for f in leaf_fields(expr.leaves)}


def _nonconformant(ref, fields) -> list:
    """The fields (by uid) whose lattice differs in shape from
    ``ref``'s."""
    ref_lat = ref.lattice
    dims = getattr(ref_lat, "dims", None)
    return [f for _, f in sorted(fields.items())
            if f.lattice is not ref_lat
            and getattr(f.lattice, "dims", None) != dims]


def lint_assignment(dest, expr: Expr, subset=None,
                    assume_materialization: bool = False
                    ) -> list[Diagnostic]:
    """Lint the assignment ``dest = expr`` (optionally on a subset).

    ``dest`` may be ``None`` to lint a bare expression.  With
    ``assume_materialization`` (the evaluator's view) the
    ``shift-alias`` race is downgraded to a warning, because the
    evaluator copies the aliased field into a temporary first;
    without it (the raw-kernel view used by ``repro.lint`` and direct
    callers) it is an error.
    """
    out: list[Diagnostic] = []
    dest_name = _field_name(dest) if dest is not None else ""
    fields = _fields(expr)

    # -- shift-alias ------------------------------------------------------
    if dest is not None and dest.uid in expr.shift_reads:
        if assume_materialization:
            sev = Severity.WARNING
            tail = (" — the evaluator materializes a temporary copy "
                    "first (extra kernel launch and field traffic)")
        else:
            sev = Severity.ERROR
            tail = (" — a silent read/write race in a site-parallel "
                    "kernel (thread x writes the word thread x-mu reads)")
        out.append(Diagnostic(
            sev, "shift-alias",
            f"destination '{dest_name}' aliases a shifted operand{tail}",
            obj=dest_name))

    # -- shift-antiparallel ----------------------------------------------
    signs = expr.signs
    for uid, mu in sorted((u, m) for u, m, s in signs
                          if s > 0 and (u, m, -1) in signs):
        out.append(Diagnostic(
            Severity.NOTE, "shift-antiparallel",
            f"field '{_field_name(fields[uid])}' is shifted both "
            f"FORWARD and BACKWARD along mu={mu} in one expression — "
            f"both faces are required before any site can start, "
            f"defeating face-buffered comm/compute overlap",
            obj=dest_name))

    # -- lattice-conformance ----------------------------------------------
    if dest is not None:
        fields.setdefault(dest.uid, dest)
    ref = dest if dest is not None else (
        fields[min(fields)] if fields else None)
    if ref is not None:
        for f in _nonconformant(ref, fields):
            out.append(Diagnostic(
                Severity.ERROR, "lattice-conformance",
                f"field '{_field_name(f)}' lives on lattice "
                f"{getattr(f.lattice, 'dims', '?')} but "
                f"'{_field_name(ref)}' is on "
                f"{getattr(ref.lattice, 'dims', '?')} — non-conformant "
                f"operands in one expression",
                obj=dest_name))
        if subset is not None and dest is not None \
                and _beyond(subset, dest):
            out.append(Diagnostic(
                Severity.ERROR, "lattice-conformance",
                f"subset '{subset.name}' references site "
                f"{subset.table_facts[1][1]} beyond the destination "
                f"lattice ({dest.lattice.nsites} sites)",
                obj=dest_name))

    # -- shift-materialization --------------------------------------------
    for nested in expr.deep:
        what = "a nested shift" if nested else "a non-leaf expression"
        out.append(Diagnostic(
            Severity.NOTE, "shift-materialization",
            f"shift of {what} is materialized into a temporary before "
            f"the main kernel (extra kernel launch and field traffic)",
            obj=dest_name))

    return out


def _beyond(subset, dest) -> bool:
    """The subset's measured site range leaves ``dest``'s lattice."""
    return subset.table_facts[1][1] >= dest.lattice.nsites


def check_assignment(dest, expr: Expr, subset=None,
                     mode: str = "error") -> list[Diagnostic]:
    """Evaluator hook: lint and apply the strictness ``mode``.

    ``off`` skips the lint; ``warn`` reports findings as Python
    warnings; ``error`` additionally raises :class:`LintError` on
    error-severity findings.  Notes are never reported, so diagnostics
    are formatted (and returned, notes included) only when the facts
    show an aliased shift, a non-conformant operand or a subset beyond
    the destination; otherwise the result is empty.
    """
    lattice = dest.lattice
    if mode == "off" or not (
            dest.uid in expr.shift_reads
            or (subset is not None and _beyond(subset, dest))
            or (any(f.lattice is not lattice for f in leaf_fields(expr.leaves))
                and _nonconformant(dest, _fields(expr)))):
        return []
    diagnostics = lint_assignment(dest, expr, subset=subset,
                                  assume_materialization=True)
    errs = errors(diagnostics)
    if mode == "error" and errs:
        emit_warnings([d for d in diagnostics if d not in errs])
        raise LintError("\n".join(d.render() for d in errs), diagnostics)
    emit_warnings(diagnostics)
    return diagnostics
