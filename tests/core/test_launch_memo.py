"""A launch memo hit is sound: same structure, new binding, no stale plan.

A context memoizes, per (structural key, lattice, subset, shift
directions), the launch env it merged into the kernel's entry, and per
binding the table parameters it uploaded; a device memoizes the modeled
cost per launch shape.  Each case below runs statements of one
structure under different bindings in *one* context, and each
statement again in a *fresh* context on the same data: the
diagnostics (warnings, in order), the destination and the modeled
kernel cost must come out the same, bitwise.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.expr import adj, shift
from repro.qdp.fields import LatticeField
from repro.qdp.lattice import Lattice
from repro.typesys import color_matrix, fermion

_SPECS = {"psi": fermion(), "chi": fermion(), "u": color_matrix(),
          "v": color_matrix(), "w": color_matrix()}


def _world(lattices, data=None):
    """A context with every field of ``_SPECS`` on every lattice
    (names suffixed by the lattice index past the first), filled from
    ``data`` or from a fixed seed.  A fixed block size: an auto-tuner
    that has probed runs at another one, legitimately modeled apart."""
    ctx = Context(autotune=False)
    rng = np.random.default_rng(11)
    fields = {}
    for i, lat in enumerate(lattices):
        for name, spec in _SPECS.items():
            key = name + (str(i) if i else "")
            f = LatticeField(lat, spec, context=ctx, name=key)
            shape = (lat.nsites,) + spec.shape
            f.from_numpy(data[key] if data is not None else
                         rng.normal(size=shape) + 1j * rng.normal(size=shape))
            fields[key] = f
    return ctx, fields


def _run(ctx, fields, statement):
    """``(warnings, dest bytes, modeled kernel cost)`` of one
    statement, flushed."""
    dest, build, subset = statement(fields)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cost = dest.assign(build(), subset=subset)
        ctx.flush()
    return ([str(w.message) for w in caught], dest.to_numpy().tobytes(),
            cost.time_s)


def check_against_fresh(lattices, statements):
    ctx, fields = _world(lattices)
    for statement in statements:
        data = {k: f.to_numpy().copy() for k, f in fields.items()}
        got = _run(ctx, fields, statement)
        fctx, ffields = _world(lattices, data)
        assert got == _run(fctx, ffields, statement)


LAT = Lattice((2, 2, 2, 4))


def test_alias_after_a_clean_statement_of_the_same_structure():
    check_against_fresh([LAT], [
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 0), None),
        lambda f: (f["psi"], lambda: f["u"] * shift(f["psi"], +1, 0), None),
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], -1, 3), None),
    ])


def test_even_then_odd_subset():
    check_against_fresh([LAT], [
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 0),
                   LAT.even),
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 0),
                   LAT.odd),
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 0),
                   LAT.even),
    ])


def test_a_second_lattice():
    other = Lattice((2, 2, 4, 4))
    check_against_fresh([LAT, other], [
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 2), None),
        lambda f: (f["chi1"], lambda: f["u1"] * shift(f["psi1"], +1, 2),
                   None),
        lambda f: (f["chi1"], lambda: f["u1"] * shift(f["psi1"], +1, 2),
                   other.odd),
        lambda f: (f["chi"], lambda: f["u"] * shift(f["psi"], +1, 2), None),
    ])


def test_destination_read_under_adj():
    check_against_fresh([LAT], [
        lambda f: (f["w"], lambda: adj(f["u"]) * f["v"], None),
        lambda f: (f["u"], lambda: adj(f["u"]) * f["v"], None),
        lambda f: (f["u"], lambda: adj(f["u"]) * f["v"], None),
    ])


@pytest.mark.parametrize("modes", [("error", "off"), ("off", "warn"),
                                   ("warn", "error")])
def test_verify_mode_changed_between_evaluations(monkeypatch, modes):
    ctx, fields = _world([LAT])
    statements = (
        (False, lambda f: (f["chi"], lambda: shift(f["psi"], +1, 1), None)),
        (True, lambda f: (f["psi"], lambda: shift(f["psi"], +1, 1), None)))
    for mode in modes:
        monkeypatch.setenv("REPRO_VERIFY", mode)
        for aliased, statement in statements:
            data = {k: f.to_numpy().copy() for k, f in fields.items()}
            got = _run(ctx, fields, statement)
            fctx, ffields = _world([LAT], data)
            assert got == _run(fctx, ffields, statement)
            assert bool(got[0]) == (aliased and mode != "off")
