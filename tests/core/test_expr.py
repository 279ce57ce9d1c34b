"""Tests for the expression AST: type rules, signatures, structure."""

import numpy as np
import pytest

from repro.core.expr import (
    BinaryNode,
    ConstSpinMatrix,
    ExprTypeError,
    SlotAssigner,
    adj,
    shift,
    timesI,
    trace,
    traceColor,
    traceSpin,
)
from repro.qdp.fields import (
    latt_color_matrix,
    latt_fermion,
    latt_propagator,
    latt_real,
    latt_spin_matrix,
)


class TestTypeRules:
    def test_colormatrix_times_fermion(self, ctx, lat4):
        u = latt_color_matrix(lat4)
        psi = latt_fermion(lat4)
        e = u * psi
        assert e.spec.spin == (4,) and e.spec.color == (3,)

    def test_spinmatrix_times_fermion(self, ctx, lat4):
        g = latt_spin_matrix(lat4)
        psi = latt_fermion(lat4)
        e = g * psi
        assert e.spec.spin == (4,) and e.spec.color == (3,)

    def test_matrix_matrix(self, ctx, lat4):
        u = latt_color_matrix(lat4)
        v = latt_color_matrix(lat4)
        assert (u * v).spec.color == (3, 3)

    def test_propagator_contraction(self, ctx, lat4):
        p = latt_propagator(lat4)
        q = latt_propagator(lat4)
        e = p * q
        assert e.spec.spin == (4, 4) and e.spec.color == (3, 3)

    def test_vector_vector_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        phi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            psi * phi

    def test_addition_shape_mismatch_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        u = latt_color_matrix(lat4)
        with pytest.raises(ExprTypeError):
            psi + u

    def test_precision_promotion(self, ctx, lat4):
        a = latt_fermion(lat4, precision="f32")
        b = latt_fermion(lat4, precision="f64")
        assert (a + b).spec.precision == "f64"
        assert (a + a).spec.precision == "f32"

    def test_scalar_multiplication(self, ctx, lat4):
        psi = latt_fermion(lat4)
        e = 0.5 * psi
        assert e.spec.spin == (4,)
        e = psi * (1 + 2j)
        assert e.spec.is_complex

    def test_division_by_scalar(self, ctx, lat4):
        psi = latt_fermion(lat4)
        e = psi / 2.0
        assert isinstance(e, BinaryNode) and e.op == "mul"

    def test_division_by_field_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            psi / psi

    def test_adj_transposes_spec(self, ctx, lat4):
        u = latt_color_matrix(lat4)
        assert adj(u).spec.color == (3, 3)
        p = latt_propagator(lat4)
        assert adj(p).spec.spin == (4, 4)

    def test_trace_specs(self, ctx, lat4):
        p = latt_propagator(lat4)
        assert traceSpin(p).spec.spin == ()
        assert traceSpin(p).spec.color == (3, 3)
        assert traceColor(p).spec.color == ()
        assert trace(p).spec.spin == () and trace(p).spec.color == ()

    def test_trace_of_vector_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            traceSpin(psi)

    def test_timesI_requires_complex(self, ctx, lat4):
        r = latt_real(lat4)
        with pytest.raises(ExprTypeError):
            timesI(r)

    def test_real_imag_specs(self, ctx, lat4):
        from repro.core.expr import imag, real

        psi = latt_fermion(lat4)
        assert not real(psi).spec.is_complex
        assert not imag(psi).spec.is_complex

    def test_shift_preserves_spec(self, ctx, lat4):
        psi = latt_fermion(lat4)
        e = shift(psi, +1, 2)
        assert e.spec == psi.spec

    def test_shift_bad_sign(self, ctx, lat4):
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            shift(psi, 0, 2)

    def test_const_spin_matrix_must_be_square(self):
        with pytest.raises(ExprTypeError):
            ConstSpinMatrix(np.zeros((4, 3)))

    def test_unusable_operand_rejected(self, ctx, lat4):
        psi = latt_fermion(lat4)
        with pytest.raises(ExprTypeError):
            psi + "nonsense"


class TestSignatures:
    """Structural signatures drive kernel caching: same structure =>
    same kernel; different aliasing or types => different kernel."""

    def _sig(self, e):
        return e.signature(SlotAssigner())

    def test_same_structure_same_signature(self, ctx, lat4):
        u1 = latt_color_matrix(lat4)
        u2 = latt_color_matrix(lat4)
        psi1 = latt_fermion(lat4)
        psi2 = latt_fermion(lat4)
        assert self._sig(u1 * psi1) == self._sig(u2 * psi2)

    def test_aliasing_changes_signature(self, ctx, lat4):
        u = latt_color_matrix(lat4)
        v = latt_color_matrix(lat4)
        assert self._sig(u * u) != self._sig(u * v)

    def test_precision_in_signature(self, ctx, lat4):
        a32 = latt_fermion(lat4, precision="f32")
        a64 = latt_fermion(lat4)
        assert self._sig(2.0 * a32) != self._sig(2.0 * a64)

    def test_shift_direction_not_in_signature(self, ctx, lat4):
        """One compiled kernel serves every (mu, sign): the gather
        table is a parameter."""
        psi = latt_fermion(lat4)
        assert self._sig(shift(psi, +1, 0)) == self._sig(shift(psi, +1, 3))

    def test_two_distinct_shifts_get_two_slots(self, ctx, lat4):
        psi = latt_fermion(lat4)
        phi = latt_fermion(lat4)
        e = shift(psi, +1, 0) + shift(phi, -1, 0)
        slots = SlotAssigner()
        e.signature(slots)
        assert len(slots.shifts) == 2

    def test_scalar_param_value_not_in_signature(self, ctx, lat4):
        """CG coefficients change per iteration without recompiling."""
        psi = latt_fermion(lat4)
        assert self._sig(0.5 * psi) == self._sig(0.125 * psi)

    def test_gamma_constants_in_signature(self, ctx, lat4):
        from repro.qcd.gamma import gamma_const

        psi = latt_fermion(lat4)
        e0 = gamma_const(0) * psi
        e1 = gamma_const(1) * psi
        assert self._sig(e0) != self._sig(e1)

    def test_gamma_constants_do_not_follow_the_hash_seed(self):
        """Kernel names derive from signatures: two processes must name
        a gamma-constant kernel alike."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        probe = ("from repro.core.expr import SlotAssigner\n"
                 "from repro.qcd.gamma import projector_const\n"
                 "print(projector_const(2, -1).signature(SlotAssigner()))")
        src = str(Path(__file__).resolve().parents[2] / "src")
        sigs = {subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src,
                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
        assert len(sigs) == 1 and sigs.pop().startswith("G")

    def test_one_custom_op_name_one_generator(self, ctx, lat4):
        """Kernels are shared by signature and a custom op's signature
        is its name: a second generator under a known name is refused.
        Closures of one generator (the ``sproj*`` ops) share its code."""
        from repro.core.expr import CustomOpNode

        def closure(scale):
            def gen(up, node, sidx, cidx, view, conjugate):
                return scale
            return gen

        def other(up, node, sidx, cidx, view, conjugate):
            return None

        psi = latt_fermion(lat4)
        for scale in (1, 2):
            CustomOpNode("t_one_name", (psi.ref(),), psi.spec, closure(scale))
        with pytest.raises(ExprTypeError, match="t_one_name.*own name"):
            CustomOpNode("t_one_name", (psi.ref(),), psi.spec, other)
        CustomOpNode("t_other_name", (psi.ref(),), psi.spec, other)

    def test_slot_order_is_first_visit(self, ctx, lat4):
        a = latt_fermion(lat4)
        b = latt_fermion(lat4)
        slots = SlotAssigner()
        (a + b).signature(slots)
        assert slots.fields == [a, b]
