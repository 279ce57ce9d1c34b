"""Construction-time node facts against the walkers they replaced.

Every expression node computes its read sets, lint facts and a
slot-free signature fragment in ``__init__``; the lint, the
normalizer and the launcher read them off the root.  This module keeps
the tree walkers those consumers used before as the *reference* — the
lint's preorder stack walk, the normalizer's read-set accumulator and
the recursive structural signature — and checks, over the
``expr_zoo`` pool of the end-to-end benchmark, the lint suite's trees
and random typed trees, that

* every node's facts equal what a walk of its subtree finds,
* the diagnostics (order and text) and what the evaluator's hook
  reports (warnings, raised ``LintError``) are the reference's,
* normalization materializes what the reference did and its result's
  read sets are the ones the reference accumulated,
* statement signatures and group keys are byte-identical to the
  reference's, through the real launcher too.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import fusion
from repro.core.context import Context
from repro.core.evaluator import _materializer, _normalize, _rebuild
from repro.core.expr import (
    BinaryNode,
    ConstSpinMatrix,
    CustomOpNode,
    FieldRef,
    PowNode,
    ScalarLit,
    ScalarParam,
    ShiftNode,
    SlotAssigner,
    TraceNode,
    UnaryNode,
    adj,
    as_expr,
    conj,
    group_key,
    leaf_fields,
    shift,
    timesI,
    trace,
    transpose,
)
from repro.core.lint import LintError, check_assignment, lint_assignment
from repro.core.reduction import innerProduct, norm2, sum_sites
from repro.diagnostics import Diagnostic, Severity, emit_warnings, errors
from repro.qcd.clover import CloverTerm
from repro.qcd.dslash import dslash_expr
from repro.qcd.gamma import gamma5_const, projector_const
from repro.qdp.fields import LatticeField, gauge_field
from repro.qdp.lattice import Lattice, Subset
from repro.typesys import color_matrix, complex_field, fermion

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


# -- the reference walkers ----------------------------------------------------


class RefSlots:
    """The slot assigner the recursive signature numbered with."""

    def __init__(self):
        self.field_slots, self.fields = {}, []
        self.scalar_ids, self.scalars = {}, []
        self.shift_slots, self.shifts = {}, []

    @staticmethod
    def _number(table, order, key, item):
        if key not in table:
            table[key] = len(order)
            order.append(item)
        return table[key]

    def field(self, f):
        return self._number(self.field_slots, self.fields, f.uid, f)

    def scalar(self, node):
        return self._number(self.scalar_ids, self.scalars, id(node), node)

    def shift(self, mu, sign):
        return self._number(self.shift_slots, self.shifts, (mu, sign),
                            (mu, sign))


def ref_spec_sig(spec) -> str:
    return (f"{spec.precision}:s{spec.spin}:c{spec.color}:"
            f"{'c' if spec.is_complex else 'r'}")


def ref_signature(node, slots: RefSlots) -> str:
    """The recursive structural signature."""
    if isinstance(node, FieldRef):
        return f"F{slots.field(node.field)}[{ref_spec_sig(node.spec)}]"
    if isinstance(node, ScalarParam):
        kind = "c" if node.spec.is_complex else "r"
        return f"S{slots.scalar(node)}{kind}:{node.spec.precision}"
    if isinstance(node, ScalarLit):
        return f"L({node.value.real!r},{node.value.imag!r})"
    if isinstance(node, ConstSpinMatrix):
        return "G" + hashlib.sha256(node.matrix.tobytes()).hexdigest()[:16]
    if isinstance(node, BinaryNode):
        return (f"{node.op}({ref_signature(node.left, slots)},"
                f"{ref_signature(node.right, slots)})")
    if isinstance(node, UnaryNode):
        return f"{node.op}({ref_signature(node.child, slots)})"
    if isinstance(node, TraceNode):
        return f"trace_{node.which}({ref_signature(node.child, slots)})"
    if isinstance(node, ShiftNode):
        sl = slots.shift(node.mu, node.sign)
        return f"shift{sl}({ref_signature(node.child, slots)})"
    if isinstance(node, CustomOpNode):
        inner = ",".join(ref_signature(o, slots) for o in node.operands)
        return f"{node.name}({inner})"
    if isinstance(node, PowNode):
        return (f"pow[{node.exponent!r}]"
                f"({ref_signature(node.child, slots)})")
    raise TypeError(type(node).__name__)


def ref_group_key(stmts, reduction, subset_mode) -> tuple[str, RefSlots]:
    """The launcher's key, built by the recursive signature."""
    slots = RefSlots()
    parts = []
    for dest, expr in stmts:
        sig = ref_signature(expr, slots)
        parts.append(f"{sig}->D{slots.field(dest)}:{ref_spec_sig(dest.spec)}")
    if reduction is not None:
        kind, exprs = reduction
        rsig = ",".join(ref_signature(e, slots) for e in exprs)
        parts.append(f"red:{kind}({rsig})")
    key = (("fus:" if len(parts) > 1 else "") + ";".join(parts)
           + ("|sub" if subset_mode else "|full"))
    return key, slots


def ref_facts(node) -> dict:
    """What a preorder walk of ``node`` finds: plain / shifted / flipped
    read uids, ``(uid, mu, sign)`` of every enclosing shift and the
    shift-of-non-leaf flags."""
    reads, shifted, flipped, signs, deep = set(), set(), set(), set(), []
    stack = [(node, (), False)]
    while stack:
        n, shifts, flip = stack.pop()
        if isinstance(n, FieldRef):
            uid = n.field.uid
            if shifts:
                shifted.add(uid)
                signs.update((uid, mu, sign) for mu, sign in shifts)
            else:
                reads.add(uid)
                if flip:
                    flipped.add(uid)
            continue
        if isinstance(n, ShiftNode):
            if not isinstance(n.child, FieldRef):
                deep.append(isinstance(n.child, ShiftNode))
            shifts += ((n.mu, n.sign),)
        if isinstance(n, UnaryNode) and n.op in ("adj", "transpose"):
            flip = True
        for c in reversed(n.children()):
            stack.append((c, shifts, flip))
    return {"reads": reads, "shift_reads": shifted, "flip_reads": flipped,
            "signs": signs, "deep": tuple(deep)}


def node_facts(node) -> dict:
    return {k: (set(v) if isinstance(v, frozenset) else v)
            for k, v in ((k, getattr(node, k)) for k in (
                "reads", "shift_reads", "flip_reads", "signs", "deep"))}


def _field_name(field) -> str:
    return getattr(field, "name", None) or f"field#{field.uid}"


def ref_lint(dest, expr, subset=None, assume_materialization=False):
    """The lint as one preorder stack walk."""
    out = []
    dest_name = _field_name(dest) if dest is not None else ""
    shifted_uids, shift_signs, fields, deep_shifts = set(), {}, {}, []
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
    for (uid, mu), signs in sorted(shift_signs.items()):
        if {+1, -1} <= signs:
            out.append(Diagnostic(
                Severity.NOTE, "shift-antiparallel",
                f"field '{_field_name(fields[uid])}' is shifted both "
                f"FORWARD and BACKWARD along mu={mu} in one expression — "
                f"both faces are required before any site can start, "
                f"defeating face-buffered comm/compute overlap",
                obj=dest_name))
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
            hi = subset.table_facts[1][1]
            if hi >= dest.lattice.nsites:
                out.append(Diagnostic(
                    Severity.ERROR, "lattice-conformance",
                    f"subset '{subset.name}' references site {hi} beyond "
                    f"the destination lattice ({dest.lattice.nsites} sites)",
                    obj=dest_name))
    for node in deep_shifts:
        what = ("a nested shift" if isinstance(node.child, ShiftNode)
                else "a non-leaf expression")
        out.append(Diagnostic(
            Severity.NOTE, "shift-materialization",
            f"shift of {what} is materialized into a temporary before "
            f"the main kernel (extra kernel launch and field traffic)",
            obj=dest_name))
    return out


def ref_check(dest, expr, subset, mode):
    """The evaluator hook over the reference lint."""
    if mode == "off":
        return
    diagnostics = ref_lint(dest, expr, subset, assume_materialization=True)
    if not diagnostics:
        return
    errs = errors(diagnostics)
    if mode == "error" and errs:
        emit_warnings([d for d in diagnostics if d not in errs])
        raise LintError("\n".join(d.render() for d in errs), diagnostics)
    emit_warnings(diagnostics)


def _materialize(node, dest, ctx, temps):
    return _materializer(ctx, temps)(node, dest)


def ref_normalize(node, dest, ctx, temps, reads, stores=True,
                  flipped=False):
    """The normalizer that visited every node and accumulated the
    (plain, shifted) read uids of the tree it returned."""
    if isinstance(node, FieldRef):
        if flipped and stores and node.field.uid == dest.uid:
            node = _materialize(node, dest, ctx, temps)
        reads[0].add(node.field.uid)
        return node
    children = node.children()
    if not children:
        return node
    if isinstance(node, ShiftNode):
        child = node.child
        if not isinstance(child, FieldRef) or child.field.uid == dest.uid:
            child = _materialize(
                ref_normalize(child, dest, ctx, temps, (set(), set()),
                              stores),
                dest, ctx, temps)
        reads[1].add(child.field.uid)
        return (node if child is node.child
                else ShiftNode(child, node.mu, node.sign))
    flipped = flipped or (isinstance(node, UnaryNode)
                          and node.op in ("adj", "transpose"))
    new = [ref_normalize(c, dest, ctx, temps, reads, stores, flipped)
           for c in children]
    if all(a is b for a, b in zip(new, children)):
        return node
    return _rebuild(node, new)


# -- the checks ---------------------------------------------------------------


def _nodes(node):
    yield node
    for c in node.children():
        yield from _nodes(c)


def _outcome(fn):
    """(rendered warnings, LintError text or None) of ``fn()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn()
            raised = None
        except LintError as exc:
            raised = str(exc)
    return [str(w.message) for w in caught], raised


def check_tree(ctx, dest, expr, subset=None, stores=True):
    """Every per-tree comparison (normalization too, given a ``dest``;
    ``stores=False`` as for a reduction)."""
    for node in _nodes(expr):
        assert node_facts(node) == ref_facts(node)
        assert node.signature(SlotAssigner()) == ref_signature(
            node, RefSlots())
    for view in (True, False):
        got = [d.render() for d in lint_assignment(
            dest, expr, subset=subset, assume_materialization=view)]
        want = [d.render() for d in ref_lint(dest, expr, subset, view)]
        assert got == want
    if dest is not None and stores:
        for mode in ("error", "warn", "off"):
            assert _outcome(lambda: check_assignment(
                dest, expr, subset=subset, mode=mode)) == _outcome(
                lambda: ref_check(dest, expr, subset, mode))
    assert [d.render() for d in lint_assignment(None, expr)] == \
        [d.render() for d in ref_lint(None, expr)]
    if dest is None:
        return
    # normalization: the same materializations, and the normalized
    # root's facts are the read sets the reference accumulated
    ref_temps, reads = [], (set(), set())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_out = ref_normalize(expr, dest, ctx, ref_temps, reads, stores)
        temps = []
        out = _normalize(expr, dest, _materializer(ctx, temps), stores)
    assert (out is expr) == (ref_out is expr)
    assert len(temps) == len(ref_temps)
    rename = {r.uid: t.uid for r, t in zip(ref_temps, temps)}
    assert (out.reads, out.shift_reads) == tuple(
        {rename.get(u, u) for u in s} for s in reads)
    assert not out.deep
    assert out.signature(SlotAssigner()) == ref_signature(ref_out,
                                                          RefSlots())
    ctx.flush()


def check_group(stmts, reduction=None, subset=None):
    """``group_key`` against the reference key and slots."""
    subset_mode = subset is not None and not subset.is_full
    key, slots = group_key(stmts, reduction, subset_mode)
    want, ref = ref_group_key(stmts, reduction, subset_mode)
    assert key == want
    assert slots.fields == ref.fields
    assert slots.shifts == ref.shifts
    assert slots.scalar_slots == ref.scalars


# -- the world the trees are built in -----------------------------------------


@functools.cache
def _world():
    ctx = Context()
    lat = Lattice((2, 2, 2, 2))
    rng = np.random.default_rng(7)
    n = lat.nsites

    def field(spec, name):
        f = LatticeField(lat, spec, context=ctx, name=name)
        shape = (n,) + spec.shape
        f.from_numpy(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        return f

    u = gauge_field(lat, context=ctx)
    for mu, umu in enumerate(u):
        umu.name = f"u{mu}"
        umu.from_numpy(np.broadcast_to(np.eye(3), (n, 3, 3)).copy())
    w = SimpleNamespace(ctx=ctx, lat=lat, u=u)
    w.F = [field(fermion(), "psi"), field(fermion(), "phi"),
           field(fermion("f32"), "chi32")]
    w.M = [u[0], u[1], field(color_matrix("f32"), "u32")]
    w.C = [field(complex_field(), "c1")]
    w.dests = {"F": w.F[:1] + [field(fermion(), "out_f")],
               "M": w.M[:1] + [field(color_matrix(), "out_m")],
               "C": w.C + [field(complex_field(), "out_c")]}
    w.clov = CloverTerm(u, coeff=0.5)
    w.subsets = (None, lat.even, lat.odd)
    return w


_MU = st.integers(0, 3)
_SIGN = st.sampled_from((+1, -1))


def _trees(kind: str, depth: int):
    """A strategy of ``(kind, builder)``: ``builder(w)`` makes a fresh
    typed tree of QDP kind F (fermion), M (color matrix) or C (complex
    scalar field)."""
    leaf = st.integers(0, 2 if kind != "C" else 0).map(
        lambda i: lambda w: FieldRef(getattr(w, kind)[i]))
    if depth == 0:
        return leaf
    sub = functools.partial(_trees, depth=depth - 1)
    same = sub(kind)
    options = [
        leaf,
        st.tuples(same, same, st.sampled_from(("add", "sub"))).map(
            lambda t: lambda w: BinaryNode(t[2], t[0](w), t[1](w))),
        st.tuples(same, _SIGN, _MU).map(
            lambda t: lambda w: shift(t[0](w), t[1], t[2])),
        same.map(lambda b: lambda w: -b(w)),
    ]
    if kind == "F":
        options += [
            st.tuples(sub("M"), same).map(
                lambda t: lambda w: t[0](w) * t[1](w)),
            st.tuples(st.floats(-2, 2, allow_nan=False), same).map(
                lambda t: lambda w: t[0] * t[1](w)),
            same.map(lambda b: lambda w: timesI(b(w))),
            same.map(lambda b: lambda w: gamma5_const() * b(w)),
            st.tuples(_MU, same).map(
                lambda t: lambda w: projector_const(t[0], +1) * t[1](w)),
            same.map(lambda b: lambda w: w.clov.apply_expr(b(w))),
            st.tuples(sub("C"), same).map(
                lambda t: lambda w: t[0](w) * t[1](w)),
        ]
    elif kind == "M":
        options += [
            st.tuples(same, same).map(lambda t: lambda w: t[0](w) * t[1](w)),
            same.map(lambda b: lambda w: adj(b(w))),
            same.map(lambda b: lambda w: transpose(b(w))),
            same.map(lambda b: lambda w: conj(b(w))),
        ]
    else:
        options += [
            sub("M").map(lambda b: lambda w: trace(b(w))),
            st.tuples(same, same).map(lambda t: lambda w: t[0](w) * t[1](w)),
            same.map(lambda b: lambda w: conj(b(w))),
        ]
    return st.one_of(options)


_STATEMENT = st.sampled_from("FMC").flatmap(
    lambda k: st.tuples(st.just(k), _trees(k, 3), st.integers(0, 1)))


class TestRandomTrees:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stmt=_STATEMENT, which=st.integers(0, 2))
    def test_facts_lint_and_normalize(self, stmt, which):
        w = _world()
        kind, build, d = stmt
        check_tree(w.ctx, w.dests[kind][d], build(w), w.subsets[which])

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stmts=st.lists(_STATEMENT, min_size=1, max_size=3),
           which=st.integers(0, 2), tail=st.booleans())
    def test_group_keys(self, stmts, which, tail):
        w = _world()
        assigns = [(w.dests[k][d], b(w)) for k, b, d in stmts]
        reduction = (("inner", [FieldRef(w.F[0]), FieldRef(w.F[1])])
                     if tail else None)
        check_group(assigns, reduction, w.subsets[which])


class TestLintSuite:
    """The trees ``repro.lint`` and the lint tests analyse."""

    def test_dslash(self):
        w = _world()
        for dest in (w.dests["F"][1], w.F[0]):
            check_tree(w.ctx, dest, dslash_expr(w.u, w.F[0]))
            check_tree(w.ctx, dest, dslash_expr(w.u, w.F[1], sign=-1),
                       w.lat.even)

    def test_every_pass_at_once(self):
        w = _world()
        psi, chi, phi = w.F[0], w.F[1], w.dests["F"][1]
        eta = LatticeField(Lattice((2, 2, 2, 4)), fermion(), name="eta")
        expr = (shift(psi.ref() * 2.0, +1, 0)
                + shift(shift(chi.ref(), +1, 1), -1, 1)
                + shift(chi.ref(), -1, 0) + shift(phi.ref(), +1, 0)
                + shift(chi.ref(), +1, 0) + shift(psi.ref(), -1, 0)
                + eta.ref())
        bad = Subset("bad", np.array([0, w.lat.nsites + 3], dtype=np.int32))
        for node in _nodes(expr):
            assert node_facts(node) == ref_facts(node)
        for dest in (psi, None):
            for view in (True, False):
                assert [d.render() for d in lint_assignment(
                    dest, expr, subset=bad, assume_materialization=view)] \
                    == [d.render() for d in ref_lint(dest, expr, bad, view)]
        assert _outcome(lambda: check_assignment(
            psi, expr, subset=bad, mode="error")) == _outcome(
            lambda: ref_check(psi, expr, bad, "error"))

    def test_shifts_of_shifts(self):
        w = _world()
        psi, u0 = w.F[0], w.M[0]
        for expr in (shift(shift(u0 * psi, +1, 0), -1, 1),
                     shift(shift(shift(psi, +1, 2), -1, 2), +1, 3),
                     shift(u0 * shift(shift(psi, -1, 0), +1, 0), +1, 0)):
            check_tree(w.ctx, w.dests["F"][1], expr)
            check_tree(w.ctx, psi, expr, w.lat.odd)

    def test_destination_under_adj_and_transpose(self):
        w = _world()
        u0, u1 = w.M[0], w.M[1]
        for expr in (adj(u0) * u1, transpose(u0) * u1 + u0,
                     shift(adj(u0) * u1, -1, 2), adj(shift(u0, +1, 0))):
            check_tree(w.ctx, u0, expr)

    def test_mixed_precision_and_scalars(self):
        w = _world()
        psi, chi32, u32 = w.F[0], w.F[2], w.M[2]
        k = ScalarParam(0.25)
        expr = k * (u32 * chi32) + k * psi + ScalarLit(0.5) * psi
        check_tree(w.ctx, w.dests["F"][1], expr)
        check_group([(w.dests["F"][1], expr), (psi, 0.5 * psi + k * psi)])


# -- the end-to-end benchmark's expression pool, through the launcher --------


@pytest.fixture(scope="module")
def zoo():
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    wl = workloads.ExprZoo()
    inp = wl.generate(3, smoke=True)
    state = wl.bind(inp)
    return state, workloads._zoo_pool(state.fields)


def test_zoo_pool_facts_and_keys(zoo, monkeypatch):
    state, pool = zoo
    ctx = state.ctx
    for kind, dest, build, subset in pool.values():
        if dest is not None:
            check_tree(ctx, dest, build(), subset)
            continue
        exprs = [as_expr(e) for e in build()]
        for e in exprs:     # a reduction normalizes against its first field
            check_tree(ctx, None, e, subset)
            check_tree(ctx, leaf_fields(exprs[0].leaves)[0], e, subset,
                       stores=False)
    # every group the launcher forms keys exactly like the reference
    seen = []
    real = fusion._launch_group

    def spy(ctx_, group, reduction=None):
        want, _ = ref_group_key(
            [(s.dest, s.expr) for s in group.stmts],
            None if reduction is None else (reduction.kind, reduction.exprs),
            group.subset_mode)
        got, _ = group_key(
            [(s.dest, s.expr) for s in group.stmts],
            None if reduction is None else (reduction.kind, reduction.exprs),
            group.subset_mode)
        seen.append((got, want))
        return real(ctx_, group, reduction)

    monkeypatch.setattr(fusion, "_launch_group", spy)
    reduce = {"norm2": lambda a: norm2(a[0]),
              "inner": lambda a: innerProduct(a[0], a[1]),
              "sum": lambda a: sum_sites(a[0])}
    for alone in (False, True):     # fused where the queue allows, then not
        for kind, dest, build, subset in pool.values():
            if dest is None:
                reduce[kind](build())
            else:
                dest.assign(build(), subset=subset)
            if alone:
                ctx.flush()
        ctx.flush()
    assert len(seen) > len(pool)
    for got, want in seen:
        assert got == want
    assert {k for k in ctx.module_cache} >= {w for _, w in seen}
