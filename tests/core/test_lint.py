"""Tests for the expression-AST lint (shift aliasing, conformance)."""

import numpy as np
import pytest

from repro.core.expr import shift
from repro.core.lint import LintError, check_assignment, lint_assignment
from repro.diagnostics import Severity
from repro.qdp.fields import LatticeField, latt_complex, latt_fermion
from repro.qdp.lattice import BACKWARD, FORWARD, Lattice, Subset
from repro.typesys import fermion


def _by_pass(diagnostics, name):
    return [d for d in diagnostics if d.pass_name == name]


@pytest.fixture()
def fields(ctx, lat4):
    psi = latt_fermion(lat4)
    chi = latt_fermion(lat4)
    return psi, chi


class TestShiftAlias:
    def test_aliased_shift_is_an_error_raw(self, fields):
        psi, _ = fields
        found = _by_pass(lint_assignment(psi, shift(psi.ref(), +1, 0)),
                         "shift-alias")
        assert len(found) == 1
        assert found[0].severity == Severity.ERROR
        assert "race" in found[0].message

    def test_aliased_shift_downgraded_under_materialization(self, fields):
        psi, _ = fields
        found = _by_pass(
            lint_assignment(psi, shift(psi.ref(), +1, 0),
                            assume_materialization=True),
            "shift-alias")
        assert len(found) == 1
        assert found[0].severity == Severity.WARNING

    def test_non_aliased_shift_is_clean(self, fields):
        psi, chi = fields
        assert not _by_pass(lint_assignment(psi, shift(chi.ref(), +1, 0)),
                            "shift-alias")

    def test_unshifted_self_reference_is_clean(self, fields):
        psi, chi = fields
        # psi = psi + chi reads psi(x) in the thread that writes it: fine
        assert not _by_pass(lint_assignment(psi, psi.ref() + chi.ref()),
                            "shift-alias")

    def test_alias_buried_in_subexpression(self, fields):
        psi, chi = fields
        expr = chi.ref() + shift(psi.ref() * 2.0, -1, 2)
        assert _by_pass(lint_assignment(psi, expr), "shift-alias")


class TestAntiparallel:
    def test_forward_and_backward_noted_per_axis(self, fields):
        psi, chi = fields
        expr = (shift(chi.ref(), +1, 0) + shift(chi.ref(), -1, 0)
                + shift(chi.ref(), +1, 1) + shift(chi.ref(), -1, 1))
        found = _by_pass(lint_assignment(psi, expr), "shift-antiparallel")
        assert len(found) == 2          # one per axis, not per shift
        assert all(d.severity == Severity.NOTE for d in found)

    def test_same_direction_twice_is_clean(self, fields):
        psi, chi = fields
        expr = shift(chi.ref(), +1, 0) + shift(chi.ref(), +1, 0)
        assert not _by_pass(lint_assignment(psi, expr), "shift-antiparallel")

    def test_different_axes_are_clean(self, fields):
        psi, chi = fields
        expr = shift(chi.ref(), +1, 0) + shift(chi.ref(), -1, 1)
        assert not _by_pass(lint_assignment(psi, expr), "shift-antiparallel")

    def test_nested_opposite_shifts_noted_on_the_leaf(self, fields):
        psi, chi = fields
        expr = shift(shift(chi.ref(), FORWARD, 2), BACKWARD, 2)
        found = _by_pass(lint_assignment(psi, expr), "shift-antiparallel")
        assert len(found) == 1
        assert "along mu=2" in found[0].message
        assert f"'{chi.name}'" in found[0].message

    def test_shift_of_expression_counts_each_leaf(self, ctx, lat4):
        a, b, c = (latt_complex(lat4) for _ in range(3))
        expr = shift(a.ref() * b.ref(), FORWARD, 0) \
            + shift(a.ref(), BACKWARD, 0)
        found = _by_pass(lint_assignment(c, expr), "shift-antiparallel")
        assert len(found) == 1
        assert f"'{a.name}'" in found[0].message

    @pytest.mark.parametrize("outer", [(BACKWARD, 1), (FORWARD, 0)])
    def test_nested_same_sign_or_other_axis_is_clean(self, fields, outer):
        psi, chi = fields
        sign, mu = outer
        expr = shift(shift(chi.ref(), BACKWARD, 1), sign, mu)
        assert not _by_pass(lint_assignment(psi, expr), "shift-antiparallel")


class TestConformance:
    def test_mixed_lattices_are_an_error(self, ctx, lat4):
        a = latt_complex(lat4)
        other = Lattice((2, 2, 2, 2))
        b = latt_complex(other)
        found = _by_pass(lint_assignment(a, a.ref() + b.ref()),
                         "lattice-conformance")
        assert found and found[0].severity == Severity.ERROR

    def test_subset_beyond_lattice_is_an_error(self, ctx, lat4, fields):
        psi, chi = fields
        bad = Subset("bad", np.array([0, lat4.nsites + 3]))
        found = _by_pass(lint_assignment(psi, chi.ref(), subset=bad),
                         "lattice-conformance")
        assert found and "beyond" in found[0].message

    def test_conformant_is_clean(self, ctx, fields):
        psi, chi = fields
        assert not _by_pass(lint_assignment(psi, chi.ref()),
                            "lattice-conformance")


class TestMaterializationNote:
    def test_shift_of_expression_noted(self, fields):
        psi, chi = fields
        found = _by_pass(lint_assignment(psi, shift(chi.ref() * 2.0, +1, 0)),
                         "shift-materialization")
        assert found and found[0].severity == Severity.NOTE

    def test_shift_of_leaf_not_noted(self, fields):
        psi, chi = fields
        assert not _by_pass(lint_assignment(psi, shift(chi.ref(), +1, 0)),
                            "shift-materialization")


class TestReport:
    def test_multi_finding_report_is_pinned(self, ctx, lat4):
        psi, chi, phi = (LatticeField(lat4, fermion(), name=n)
                         for n in ("psi", "chi", "phi"))
        eta = LatticeField(Lattice((2, 2, 2, 2)), fermion(), name="eta")
        expr = (shift(psi.ref() * 2.0, +1, 0)
                + shift(shift(chi.ref(), +1, 1), -1, 1)
                + shift(chi.ref(), -1, 0) + shift(phi.ref(), +1, 0)
                + shift(chi.ref(), +1, 0) + shift(psi.ref(), -1, 0)
                + eta.ref())
        bad = Subset("bad", np.array([0, lat4.nsites + 3], dtype=np.int32))
        got = [d.render() for d in lint_assignment(
            psi, expr, subset=bad, assume_materialization=True)]
        faces = ("in one expression — both faces are required before any "
                 "site can start, defeating face-buffered comm/compute "
                 "overlap")
        temp = ("is materialized into a temporary before the main kernel "
                "(extra kernel launch and field traffic)")
        assert got == [
            "warning: shift-alias [psi]: destination 'psi' aliases a "
            "shifted operand — the evaluator materializes a temporary "
            "copy first (extra kernel launch and field traffic)",
            "note: shift-antiparallel [psi]: field 'psi' is shifted both "
            f"FORWARD and BACKWARD along mu=0 {faces}",
            "note: shift-antiparallel [psi]: field 'chi' is shifted both "
            f"FORWARD and BACKWARD along mu=0 {faces}",
            "note: shift-antiparallel [psi]: field 'chi' is shifted both "
            f"FORWARD and BACKWARD along mu=1 {faces}",
            "error: lattice-conformance [psi]: field 'eta' lives on "
            "lattice (2, 2, 2, 2) but 'psi' is on (4, 4, 4, 4) — "
            "non-conformant operands in one expression",
            "error: lattice-conformance [psi]: subset 'bad' references "
            "site 259 beyond the destination lattice (256 sites)",
            f"note: shift-materialization [psi]: shift of a non-leaf "
            f"expression {temp}",
            f"note: shift-materialization [psi]: shift of a nested shift "
            f"{temp}",
        ]


class TestCheckAssignment:
    def test_error_mode_raises_on_errors(self, ctx, lat4):
        a = latt_complex(lat4)
        b = latt_complex(Lattice((2, 2, 2, 2)))
        with pytest.raises(LintError, match="non-conformant") as exc:
            check_assignment(a, a.ref() + b.ref(), mode="error")
        assert any(d.pass_name == "lattice-conformance"
                   for d in exc.value.diagnostics)

    def test_warn_mode_never_raises(self, ctx, lat4):
        a = latt_complex(lat4)
        b = latt_complex(Lattice((2, 2, 2, 2)))
        with pytest.warns(RuntimeWarning, match="non-conformant"):
            check_assignment(a, a.ref() + b.ref(), mode="warn")

    def test_off_mode_is_silent(self, ctx, lat4):
        a = latt_complex(lat4)
        b = latt_complex(Lattice((2, 2, 2, 2)))
        assert check_assignment(a, a.ref() + b.ref(), mode="off") == []

    def test_aliased_shift_passes_evaluator_view(self, fields):
        # the evaluator materializes first, so default mode must allow it
        psi, _ = fields
        with pytest.warns(RuntimeWarning, match="shift-alias"):
            diagnostics = check_assignment(psi, shift(psi.ref(), +1, 0),
                                           mode="error")
        assert diagnostics   # reported, not fatal


class TestEvaluatorIntegration:
    def test_mixed_lattice_assignment_raises(self, ctx, lat4, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        a = latt_complex(lat4)
        b = latt_complex(Lattice((2, 2, 2, 2)))
        with pytest.raises(LintError, match="lattice-conformance"):
            a.assign(a.ref() + b.ref())

    def test_off_knob_disables_the_lint(self, ctx, lat4, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "off")
        psi = latt_fermion(lat4)
        chi = latt_fermion(lat4)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi.assign(shift(psi.ref(), +1, 0) + chi.ref())

    def test_aliased_shift_still_evaluates_correctly(self, ctx, lat4,
                                                     monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        psi = latt_fermion(lat4)
        rng = np.random.default_rng(3)
        psi.gaussian(rng)
        before = psi.to_numpy()
        with pytest.warns(RuntimeWarning, match="shift-alias"):
            psi.assign(shift(psi.ref(), +1, 0))
        assert np.allclose(psi.to_numpy(), before[lat4.shift_map(0, +1)])
