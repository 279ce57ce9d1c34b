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
``REPRO_VERIFY`` strictness knob.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity, emit_warnings, errors
from .expr import Expr, FieldRef, ShiftNode

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


def lint_assignment(dest, expr: Expr, subset=None,
                    assume_materialization: bool = False
                    ) -> list[Diagnostic]:
    """Lint the assignment ``dest = expr`` (optionally on a subset).

    ``dest`` may be ``None`` to lint a bare expression.  With
    ``assume_materialization`` (the evaluator's view) the
    ``shift-alias`` race is downgraded to a warning, because the
    evaluator copies the aliased field into a temporary before
    launching the site-parallel kernel; without it (the raw-kernel
    view used by ``repro.lint`` and direct callers) it is an error.
    """
    out: list[Diagnostic] = []
    dest_name = _field_name(dest) if dest is not None else ""

    # -- one preorder walk collecting the facts every pass needs; each
    # -- node carries the (mu, sign) of the shifts enclosing it
    shifted_uids: set[int] = set()           # fields read through a shift
    shift_signs: dict[tuple[int, int], set[int]] = {}   # (uid, mu) -> signs
    fields: dict[int, object] = {}            # uid -> field
    deep_shifts: list[ShiftNode] = []

    stack = [(expr, ())]
    while stack:
        node, shifts = stack.pop()
        if isinstance(node, FieldRef):
            f = node.field
            fields.setdefault(f.uid, f)
            if shifts:
                shifted_uids.add(f.uid)
                for mu, sign in shifts:
                    shift_signs.setdefault((f.uid, mu), set()).add(sign)
            continue
        if isinstance(node, ShiftNode):
            if not isinstance(node.child, FieldRef):
                deep_shifts.append(node)
            shifts += ((node.mu, node.sign),)
        for child in reversed(node.children()):
            stack.append((child, shifts))

    # -- shift-alias ------------------------------------------------------
    if dest is not None and dest.uid in shifted_uids:
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
    for (uid, mu), signs in sorted(shift_signs.items()):
        if {+1, -1} <= signs:
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
        ref_lat = ref.lattice
        for uid, f in sorted(fields.items()):
            lat = f.lattice
            if lat is ref_lat:
                continue
            if getattr(lat, "dims", None) != getattr(ref_lat, "dims", None):
                out.append(Diagnostic(
                    Severity.ERROR, "lattice-conformance",
                    f"field '{_field_name(f)}' lives on lattice "
                    f"{getattr(lat, 'dims', '?')} but "
                    f"'{_field_name(ref)}' is on "
                    f"{getattr(ref_lat, 'dims', '?')} — non-conformant "
                    f"operands in one expression",
                    obj=dest_name))
        if subset is not None and dest is not None:
            hi = subset.table_facts[1][1]     # measured (lo, hi) range
            if hi >= dest.lattice.nsites:
                out.append(Diagnostic(
                    Severity.ERROR, "lattice-conformance",
                    f"subset '{subset.name}' references site {hi} beyond "
                    f"the destination lattice ({dest.lattice.nsites} sites)",
                    obj=dest_name))

    # -- shift-materialization --------------------------------------------
    for node in deep_shifts:
        what = ("a nested shift" if isinstance(node.child, ShiftNode)
                else "a non-leaf expression")
        out.append(Diagnostic(
            Severity.NOTE, "shift-materialization",
            f"shift of {what} is materialized into a temporary before "
            f"the main kernel (extra kernel launch and field traffic)",
            obj=dest_name))

    return out


def check_assignment(dest, expr: Expr, subset=None,
                     mode: str = "error") -> list[Diagnostic]:
    """Evaluator hook: lint and apply the strictness ``mode``.

    ``off`` skips the lint; ``warn`` reports everything as Python
    warnings; ``error`` additionally raises :class:`LintError` on
    error-severity findings.  Returns the diagnostics either way.
    """
    if mode == "off":
        return []
    diagnostics = lint_assignment(dest, expr, subset=subset,
                                  assume_materialization=True)
    if not diagnostics:
        return diagnostics
    errs = errors(diagnostics)
    if mode == "error" and errs:
        emit_warnings([d for d in diagnostics if d not in errs])
        raise LintError("\n".join(d.render() for d in errs), diagnostics)
    emit_warnings(diagnostics)
    return diagnostics
