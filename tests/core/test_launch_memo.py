"""A launch memo hit is sound: same structure, new binding, no stale plan.

A context plans each statement type once
(``repro.core.evaluator.StatementPlan``: its temporaries and
statements, replayed over every root's fields and scalars) and each
group of statements once (``repro.core.fusion.LaunchPlan``: the
kernel's entry and the binding's table parameters); a device memoizes
the modeled cost per launch shape.
Each case below runs statements of one structure under different
bindings in *one* context, and each statement again in a *fresh*
context on the same data: the diagnostics (warnings, in order), the
destination and the modeled kernel cost must come out the same,
bitwise — and where a case says so, the statement must have been a
replay.
"""

from __future__ import annotations

import contextlib
import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.evaluator import StatementPlan
from repro.core.expr import ScalarParam, adj, shift
from repro.qcd.dslash import dslash_expr
from repro.qdp.fields import LatticeField
from repro.qdp.lattice import Lattice
from repro.typesys import color_matrix, fermion

_SPECS = {"psi": fermion(), "chi": fermion(), "u": color_matrix(),
          "v": color_matrix(), "w": color_matrix(), "a": fermion(),
          "b": fermion(), "c": fermion()}


def _world(lattices, data=None, pool_capacity=None):
    """A context with every field of ``_SPECS`` on every lattice
    (names suffixed by the lattice index past the first), filled from
    ``data`` or from a fixed seed.  A fixed block size: an auto-tuner
    that has probed runs at another one, legitimately modeled apart."""
    ctx = Context(autotune=False, pool_capacity=pool_capacity)
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


@contextlib.contextmanager
def _replays():
    """The plans replayed inside the block that were recorded before
    it, in order (every statement replays a plan: a first sighting
    the one it has just recorded)."""
    calls, recorded = [], []
    replay, record = StatementPlan.replay, StatementPlan.__init__

    def spy(plan, *args):
        if plan not in recorded:
            calls.append(plan)
        return replay(plan, *args)

    def spy_record(plan, *args):
        recorded.append(plan)
        record(plan, *args)

    StatementPlan.replay, StatementPlan.__init__ = spy, spy_record
    try:
        yield calls
    finally:
        StatementPlan.replay, StatementPlan.__init__ = replay, record


def check_one(ctx, fields, lattices, statement, replay=None,
              pool_capacity=None):
    """``statement`` in ``ctx`` against a fresh context on a copy of
    the data; ``replay``, when given, is whether it must replay."""
    data = {k: f.to_numpy().copy() for k, f in fields.items()}
    with _replays() as calls:
        got = _run(ctx, fields, statement)
    if replay is not None:
        assert bool(calls) == replay
    fctx, ffields = _world(lattices, data, pool_capacity)
    assert got == _run(fctx, ffields, statement)
    return got


def check_against_fresh(lattices, statements, replays=None):
    ctx, fields = _world(lattices)
    for i, statement in enumerate(statements):
        check_one(ctx, fields, lattices, statement,
                  None if replays is None else replays[i])


LAT = Lattice((2, 2, 2, 4))


def _wilson(f, psi, kappa=0.1):
    """``psi - kappa D psi``: the Dslash's four backward hops are
    shifts of expressions, so the statement has temporaries."""
    links = [f["u"], f["v"], f["w"], f["u"]]
    return f[psi] - ScalarParam(kappa) * dslash_expr(links, f[psi])


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
    ], replays=[False, False, True])


def test_replay_on_the_other_checkerboard():
    check_against_fresh([LAT], [
        lambda f: (f["chi"], lambda: _wilson(f, "psi"), LAT.even),
        lambda f: (f["chi"], lambda: _wilson(f, "psi"), LAT.odd),
        lambda f: (f["a"], lambda: _wilson(f, "b"), LAT.even),
        lambda f: (f["a"], lambda: _wilson(f, "b"), LAT.odd),
    ], replays=[False, False, True, True])


def test_replay_with_a_changed_scalar():
    check_against_fresh([LAT], [
        lambda f: (f["a"], lambda: f["a"] + 0.3 * f["b"], None),
        lambda f: (f["a"], lambda: f["a"] + 0.7 * f["b"], None),
        lambda f: (f["c"], lambda: f["c"] + (0.2 - 0.5j) * f["psi"], None),
        lambda f: (f["chi"], lambda: _wilson(f, "psi", 0.1), None),
        lambda f: (f["chi"], lambda: _wilson(f, "psi", 0.125), None),
    ], replays=[False, True, False, False, True])


def test_replay_into_a_destination_the_root_reads():
    check_against_fresh([LAT], [
        lambda f: (f["chi"], lambda: f["chi"] + _wilson(f, "psi"), None),
        lambda f: (f["a"], lambda: f["a"] + _wilson(f, "b"), None),
        lambda f: (f["b"], lambda: f["a"] + _wilson(f, "b"), None),
    ], replays=[False, True, False])


def test_replay_after_a_bound_field_was_spilled():
    """Room for the Dslash's working set, not for it and the sum's:
    the sum spills ``psi``, and the replay pages it back in."""
    cap = 46 << 10
    ctx, fields = _world([LAT], pool_capacity=cap)
    apply = (lambda f: (f["chi"], lambda: _wilson(f, "psi"), None))
    check_one(ctx, fields, [LAT], apply, False, cap)
    check_one(ctx, fields, [LAT],
              lambda f: (f["a"], lambda: f["b"] + f["c"], None), None, cap)
    assert ctx.field_cache.stats.spills > 0
    assert not ctx.field_cache.is_resident(fields["psi"])
    check_one(ctx, fields, [LAT], apply, True, cap)


def test_a_replay_fused_with_a_new_neighbour():
    """A replayed statement in a group no launch has had: the module
    cache misses and the code generator reads the replay's trees."""
    ctx, f = _world([LAT])
    f["chi"].assign(_wilson(f, "psi"))
    ctx.flush()
    data = {k: x.to_numpy().copy() for k, x in f.items()}
    misses = ctx.stats.module_cache_misses
    with _replays() as calls:
        f["chi"].assign(_wilson(f, "psi"))
        f["a"].assign(f["chi"] + f["b"])
        ctx.flush()
    assert calls and ctx.stats.module_cache_misses > misses
    fctx, ff = _world([LAT], data)
    ff["chi"].assign(_wilson(ff, "psi"))
    ff["a"].assign(ff["chi"] + ff["b"])
    fctx.flush()
    for name in ("chi", "a"):
        assert np.array_equal(f[name].to_numpy(), ff[name].to_numpy())


def test_a_queued_plan_replays_on_fresh_temporaries():
    """Its temporaries are still to be read: the second root of the
    type replays the plan on temporaries of its own (with the queue
    flushing at once, the first replay has launched before the second
    root arrives, and both use the plan's), and the launch of the
    replay on the plan's own temporaries frees them for the next."""
    ctx, f = _world([LAT])
    f["chi"].assign(_wilson(f, "psi"))
    ctx.flush()
    data = {k: x.to_numpy().copy() for k, x in f.items()}
    with _replays() as calls:
        f["chi"].assign(_wilson(f, "psi"))
        f["a"].assign(_wilson(f, "b"))
        ctx.flush()
    assert len(calls) == 2 and calls[0] is calls[1]
    assert not calls[0].pending
    fctx, ff = _world([LAT], data)
    ff["chi"].assign(_wilson(ff, "psi"))
    ff["a"].assign(_wilson(ff, "b"))
    fctx.flush()
    for name in ("chi", "a"):
        assert np.array_equal(f[name].to_numpy(), ff[name].to_numpy())


def test_a_reported_finding_warns_every_time():
    """Its plan is replayed once and not kept, nor is its launch plan,
    and it leaves no reference cycle: its temporaries go when their
    last reference does."""
    ctx, f = _world([LAT])
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            with pytest.warns(RuntimeWarning, match="shift-alias"):
                f["psi"].assign(_wilson(f, "psi"))
            ctx.flush()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert not ctx.plans


def test_fields_that_die_take_no_plan_with_them():
    """Plans are keyed by type and hold no field of a root: a Dslash
    into each of 1 000 short-lived fields leaves the table as the
    first apply left it and every field collectable."""
    ctx, f = _world([LAT])
    refs = []
    for i in range(1000):
        out = LatticeField(LAT, fermion(), context=ctx)
        out.assign(_wilson(f, "psi"))
        ctx.flush()
        if i == 0:
            plans = dict(ctx.plans)
        refs.append(weakref.ref(out))
        del out
    assert ctx.plans == plans
    assert not any(r() for r in refs)


def test_dead_lattices_are_freed_with_the_plans():
    """No module-cache entry holds a lattice: once the plan table is
    cleared, every lattice a statement ran on can be collected."""
    ctx = Context(autotune=False)
    refs = []
    for _ in range(20):
        lat = Lattice((2, 2, 2, 4))
        a = LatticeField(lat, fermion(), context=ctx)
        b = LatticeField(lat, fermion(), context=ctx)
        b.from_numpy(np.ones((lat.nsites,) + b.spec.shape))
        a.assign(b + 0.5 * b)
        ctx.flush()
        refs.append(weakref.ref(lat))
        del lat, a, b
    ctx.plans.clear()
    gc.collect()
    assert not any(r() for r in refs)


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
        for again in (False, True):
            for aliased, statement in statements:
                # a finding is reported every time: its plan is not kept
                planned = not aliased or mode == "off"
                got = check_one(ctx, fields, [LAT], statement,
                                again and planned)
                assert bool(got[0]) == (aliased and mode != "off")
