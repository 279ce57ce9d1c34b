"""Tests for the code generator: semantics vs NumPy references and
the paper's Table II flop/byte accounting."""

import numpy as np
import pytest

from repro.core.expr import adj, conj, imag, real, shift, timesI, timesMinusI, trace, transpose
from repro.qdp.fields import (
    latt_color_matrix,
    latt_complex,
    latt_fermion,
    latt_propagator,
    latt_real,
    latt_spin_matrix,
)


def _dag(m):
    return m.conj().transpose(0, 2, 1)


@pytest.fixture()
def fields(ctx, lat4, rng):
    u = latt_color_matrix(lat4)
    v = latt_color_matrix(lat4)
    psi = latt_fermion(lat4)
    phi = latt_fermion(lat4)
    g = latt_spin_matrix(lat4)
    h = latt_spin_matrix(lat4)
    for f in (u, v, psi, phi, g, h):
        f.gaussian(rng)
    return u, v, psi, phi, g, h


class TestSemantics:
    """Every operator evaluated through expr -> PTX -> JIT -> launch
    must agree with direct NumPy evaluation."""

    def test_lcm(self, ctx, lat4, fields):
        u, v, *_ = fields
        out = latt_color_matrix(lat4)
        out.assign(u * v)
        ref = np.einsum("nab,nbc->nac", u.to_numpy(), v.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_upsi(self, ctx, lat4, fields):
        u, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(u * psi)
        ref = np.einsum("nab,nsb->nsa", u.to_numpy(), psi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_spmat(self, ctx, lat4, fields):
        *_, g, h = fields
        out = latt_spin_matrix(lat4)
        out.assign(g * h)
        ref = np.einsum("nab,nbc->nac", g.to_numpy(), h.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_matvec(self, ctx, lat4, fields):
        u, _, psi, phi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(u * psi + u * phi)
        un = u.to_numpy()
        ref = np.einsum("nab,nsb->nsa", un,
                        psi.to_numpy() + phi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)

    def test_spinmatrix_times_fermion(self, ctx, lat4, fields):
        _, _, psi, _, g, _ = fields
        out = latt_fermion(lat4)
        out.assign(g * psi)
        ref = np.einsum("nst,ntc->nsc", g.to_numpy(), psi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_propagator_product(self, ctx, lat4, rng):
        p = latt_propagator(lat4)
        q = latt_propagator(lat4)
        p.gaussian(rng)
        q.gaussian(rng)
        out = latt_propagator(lat4)
        out.assign(p * q)
        ref = np.einsum("nstab,ntubc->nsuac", p.to_numpy(), q.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)

    def test_adj(self, ctx, lat4, fields):
        u, *_ = fields
        out = latt_color_matrix(lat4)
        out.assign(adj(u))
        assert np.array_equal(out.to_numpy(), _dag(u.to_numpy()))

    def test_transpose_no_conj(self, ctx, lat4, fields):
        u, *_ = fields
        out = latt_color_matrix(lat4)
        out.assign(transpose(u))
        assert np.array_equal(out.to_numpy(),
                              u.to_numpy().transpose(0, 2, 1))

    def test_conj_no_transpose(self, ctx, lat4, fields):
        u, *_ = fields
        out = latt_color_matrix(lat4)
        out.assign(conj(u))
        assert np.array_equal(out.to_numpy(), u.to_numpy().conj())

    def test_adj_of_product(self, ctx, lat4, fields):
        """adj(A*B) = adj(B) adj(A) must hold structurally."""
        u, v, *_ = fields
        out = latt_color_matrix(lat4)
        out.assign(adj(u * v))
        ref = np.einsum("nab,nbc->nac", _dag(v.to_numpy()),
                        _dag(u.to_numpy()))
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_timesI(self, ctx, lat4, fields):
        _, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(timesI(psi))
        assert np.array_equal(out.to_numpy(), 1j * psi.to_numpy())
        out.assign(timesMinusI(psi))
        assert np.array_equal(out.to_numpy(), -1j * psi.to_numpy())

    def test_neg(self, ctx, lat4, fields):
        _, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(-psi)
        assert np.array_equal(out.to_numpy(), -psi.to_numpy())

    def test_real_imag(self, ctx, lat4, fields):
        _, _, psi, *_ = fields
        out = latt_real(lat4)
        # component-shaped: go through a complex scalar field
        c = latt_complex(lat4)
        c.gaussian(np.random.default_rng(3))
        out.assign(real(c))
        assert np.array_equal(out.to_numpy(), c.to_numpy().real)
        out.assign(imag(c))
        assert np.array_equal(out.to_numpy(), c.to_numpy().imag)

    def test_traces(self, ctx, lat4, rng):
        p = latt_propagator(lat4)
        p.gaussian(rng)
        pn = p.to_numpy()
        outc = latt_spin_matrix(lat4)
        outc.assign(traceColor_expr(p))
        ref = np.einsum("nstaa->nst", pn)
        assert np.allclose(outc.to_numpy(), ref, rtol=1e-13)
        outs = latt_color_matrix(lat4)
        from repro.core.expr import traceSpin

        outs.assign(traceSpin(p.ref()))
        assert np.allclose(outs.to_numpy(), np.einsum("nssab->nab", pn),
                           rtol=1e-13)
        outt = latt_complex(lat4)
        outt.assign(trace(p.ref()))
        assert np.allclose(outt.to_numpy(), np.einsum("nssaa->n", pn),
                           rtol=1e-13)

    def test_shift_expression_materialized(self, ctx, lat4, fields):
        u, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(shift(adj(u) * psi, -1, 1))
        inner = np.einsum("nba,nsb->nsa", u.to_numpy().conj(),
                          psi.to_numpy())
        t = lat4.shift_map(1, -1)
        assert np.allclose(out.to_numpy(), inner[t], rtol=1e-13)

    def test_shift_of_destination_aliased(self, ctx, lat4, fields):
        """psi = shift(psi) must read the *old* psi (temp copy)."""
        _, _, psi, *_ = fields
        snapshot = psi.to_numpy().copy()
        with pytest.warns(RuntimeWarning, match="shift-alias"):
            psi.assign(shift(psi, +1, 0))
        t = lat4.shift_map(0, +1)
        assert np.array_equal(psi.to_numpy(), snapshot[t])

    def test_gamma_projector_folding(self, ctx, lat4, fields):
        from repro.qcd.gamma import projector, projector_const

        _, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(projector_const(2, +1) * psi)
        ref = np.einsum("st,ntc->nsc", projector(2, +1), psi.to_numpy())
        assert np.allclose(out.to_numpy(), ref, rtol=1e-13)

    def test_scalar_param_value_bound_at_launch(self, ctx, lat4, fields):
        _, _, psi, *_ = fields
        out = latt_fermion(lat4)
        kernels_before = ctx.kernel_cache.stats.n_kernels
        out.assign(0.5 * psi)
        a = out.to_numpy().copy()
        out.assign(0.25 * psi)
        b = out.to_numpy()
        assert np.allclose(a, 2 * b)
        # the two launches share one compiled kernel
        assert ctx.kernel_cache.stats.n_kernels <= kernels_before + 1

    def test_complex_scalar(self, ctx, lat4, fields):
        _, _, psi, *_ = fields
        out = latt_fermion(lat4)
        out.assign((0.3 - 0.7j) * psi)
        assert np.allclose(out.to_numpy(), (0.3 - 0.7j) * psi.to_numpy(),
                           rtol=1e-13)

    def test_long_expression(self, ctx, lat4, fields):
        u, v, psi, phi, *_ = fields
        out = latt_fermion(lat4)
        out.assign(u * (v * psi) + 2.0 * phi - timesI(u * phi))
        un, vn = u.to_numpy(), v.to_numpy()
        pn, qn = psi.to_numpy(), phi.to_numpy()
        ref = (np.einsum("nab,nbc,nsc->nsa", un, vn, pn)
               + 2.0 * qn - 1j * np.einsum("nab,nsb->nsa", un, qn))
        assert np.allclose(out.to_numpy(), ref, rtol=1e-12)


def traceColor_expr(p):
    from repro.core.expr import traceColor

    return traceColor(p.ref())


class TestTableII:
    """Paper Table II: flop/byte of the five test functions (DP)."""

    @pytest.mark.parametrize("name,expected", [
        ("lcm", 0.458), ("upsi", 0.5), ("spmat", 0.62),
        ("matvec", 0.64), ("clover", 0.525),
    ])
    def test_arithmetic_intensity(self, name, expected):
        from repro.perfmodel.kernelperf import generate_test_kernels

        stats = generate_test_kernels("f64")
        assert stats[name].flop_per_byte == pytest.approx(expected,
                                                          abs=0.006)

    def test_exact_flop_counts(self):
        from repro.perfmodel.kernelperf import generate_test_kernels

        stats = generate_test_kernels("f64")
        assert stats["lcm"].flops_per_site == 198      # 9*(3*6 + 2*2)
        assert stats["upsi"].flops_per_site == 264     # 4 spins * 66
        assert stats["spmat"].flops_per_site == 480    # 16*(4*6+3*2)
        assert stats["matvec"].flops_per_site == 552
        assert stats["clover"].flops_per_site == 504   # 12*(2+5*8)

    def test_exact_byte_counts(self):
        from repro.perfmodel.kernelperf import generate_test_kernels

        stats = generate_test_kernels("f64")
        assert stats["lcm"].bytes_per_site == 432      # 3 * 18 * 8
        assert stats["upsi"].bytes_per_site == 528     # (18+24+24)*8
        assert stats["matvec"].bytes_per_site == 864   # U1 counted twice
        assert stats["clover"].bytes_per_site == 960   # (72+48)*8

    def test_sp_halves_bytes_keeps_flops(self):
        from repro.perfmodel.kernelperf import generate_test_kernels

        dp = generate_test_kernels("f64")
        sp = generate_test_kernels("f32")
        for name in dp:
            assert sp[name].flops_per_site == dp[name].flops_per_site
            assert sp[name].bytes_per_site * 2 == dp[name].bytes_per_site

    def test_eager_wilson_kernel_counts(self, wilson_eager):
        """The kernels of ``M = 1 - kappa*D`` as lone statements.

        The main kernel's 870 flops = ``T·psi`` on the four forward
        hops (4 x 12 = 48) + U on the two projected spin components
        (4 x 132 = 528) + the eight-term sum (168) + ``1 - kappa*``
        (48) + the 78 ``neg`` the -1 and +/-i entries of ``T`` and
        ``R`` fold to.  Each backward-hop kernel ``adj(U)·(T psi)``
        counts the same 144 plus its ``neg``.  So a lone D generates
        822 + 630 = 1 452 flops against the standard
        ``DSLASH_FLOPS_PER_SITE = 1320``, which counts no ``neg``.
        (1 560 in the main kernel and 273 per backward hop before the
        Dslash projected ahead of the link multiply; 4 728 before the
        value memo covered a lone statement.)  Bytes: 240 f64 loads
        (the four half-spinor hops are 12 words each), 8 shift-table
        words, 24 stores.
        """
        from repro.qcd.dslash import DSLASH_FLOPS_PER_SITE

        m, hops = wilson_eager["M"], wilson_eager["hops"]
        assert m.info.flops_per_site == 870
        assert m.info.bytes_per_site == 2144    # 240*8 + 8*4 + 24*8
        assert [h.info.flops_per_site for h in hops] == [153, 159, 159, 159]
        assert all(h.info.bytes_per_site == 432 for h in hops)  # 18+24+12
        assert DSLASH_FLOPS_PER_SITE == 1320


class TestReadAfterStore:
    """The builder refuses a kernel that would load a destination word
    its own statement has already stored (the evaluator copies such a
    destination first, ``tests/core/test_evaluator.py``)."""

    @pytest.mark.parametrize("make", [lambda u, v: adj(u),
                                      lambda u, v: transpose(u),
                                      lambda u, v: adj(u) * v])
    def test_a_late_destination_load_is_an_error(self, lat4, make):
        from repro.core.codegen import CodegenError, build_expression_kernel

        u, v = latt_color_matrix(lat4), latt_color_matrix(lat4)
        with pytest.raises(CodegenError, match="after the statement stored"):
            build_expression_kernel("late", make(u.ref(), v), u, False)

    def test_an_early_destination_load_is_not(self, lat4):
        from repro.core.codegen import build_expression_kernel

        u, v = latt_color_matrix(lat4), latt_color_matrix(lat4)
        for expr in (u * adj(u.ref()), v * u, conj(u.ref())):
            build_expression_kernel("early", expr, u, False)


def _float_repeats(instructions) -> int:
    """Exact-repeat float instructions of a kernel, by transitive value
    numbering over its instruction list — a witness that shares nothing
    with the unparser's memo.

    Two instructions compute the same value when opcode, type,
    modifiers and the value numbers of their sources agree.  A load or
    a guarded definition is never equal to another (memory, or the
    lanes that execute it, may differ)."""
    from repro.ptx.isa import Register

    number: dict = {}
    seen: dict = {}
    repeats = 0
    for pos, ins in enumerate(instructions):
        if ins.dst is None:
            continue
        if ins.opcode.startswith("ld") or ins.guard is not None:
            number[ins.dst.key] = pos
            continue
        srcs = tuple(number.get(s.key, s.key) if isinstance(s, Register)
                     else s for s in ins.srcs)
        key = (ins.opcode, ins.type, ins.cmp, ins.src_type, srcs)
        if key in seen:
            number[ins.dst.key] = seen[key]
            repeats += ins.type.is_float
        else:
            seen[key] = number[ins.dst.key] = pos
    return repeats


@pytest.fixture(scope="module")
def wilson_eager(lat4):
    """The five kernels of ``M = 1 - kappa*D`` with fusion off: the
    backward hops ``adj(U)·(T psi)`` — one per direction, since the
    projection constants ``T`` fold differently per ``mu`` — and ``M``
    itself, which reads the hops shifted."""
    from repro.core.context import Context
    from repro.qcd.gauge import weak_gauge
    from repro.qcd.wilson import WilsonOperator, WilsonParams

    ctx = Context(fusion=False, autotune=False)
    rng = np.random.default_rng(5)
    op = WilsonOperator(weak_gauge(lat4, rng, eps=0.3, context=ctx),
                        WilsonParams(kappa=0.12))
    psi, out = op.new_fermion(), op.new_fermion()
    psi.gaussian(rng)
    op.apply(out, psi)
    ctx.flush()
    *hops, m = sorted((e.module for e in ctx.module_cache.values()),
                      key=lambda m: len(m.instructions))
    return {"hops": hops, "M": m}


def _without_memo(monkeypatch, *args):
    """``build_fused_kernel(*args)`` with every ``Unparser.gen`` request
    computed afresh — a lone statement's code before the value memo
    covered it."""
    from repro.core.codegen import Unparser, build_fused_kernel

    with monkeypatch.context() as m:
        m.setattr(Unparser, "gen", Unparser._gen)
        return build_fused_kernel(*args)


def _memory_footprint(module):
    ops = [i.opcode for i in module.instructions]
    return (ops.count("ld.global"), ops.count("st.global"),
            module.info.bytes_per_site)


class TestValueMemo:
    """Every kernel computes each subtree component once.  A lone
    statement keys the unparser's memo by node identity — the
    granularity its loads are cached at — so no load or store moves,
    only repeated arithmetic goes."""

    def test_census_of_the_eager_wilson_kernels(self, wilson_eager):
        m, hops = wilson_eager["M"], wilson_eager["hops"]
        # 2 784 repeats before the memo; the 48 projector-row sums
        # (``psi_s + psi_t`` at two rows of ``P``) it left went with
        # the projection ahead of U: ``T`` has two rows
        assert _float_repeats(m.instructions) == 0
        assert len(m.instructions) == 1690      # 2 452 unprojected
        # each hop negates conj(U)'s 9 imaginary parts once (27 when
        # once per spin), plus the -1 / +/-i entries of its ``T``
        for hop in hops:
            assert _float_repeats(hop.instructions) == 0
        assert [[i.opcode for i in h.instructions].count("neg")
                for h in hops] == [9, 15, 15, 15]

    def test_table2_kernels_keep_their_memory_traffic(self, ctx, lat4,
                                                      monkeypatch):
        from repro.core.codegen import build_expression_kernel
        from repro.core.expr import as_expr
        from repro.perfmodel.kernelperf import _clover_expr

        u1, u2, u3 = (latt_color_matrix(lat4) for _ in range(3))
        psi1, psi2 = latt_fermion(lat4), latt_fermion(lat4)
        g2, g3 = latt_spin_matrix(lat4), latt_spin_matrix(lat4)
        cases = {
            "lcm": (latt_color_matrix(lat4), u2 * u3),
            "upsi": (latt_fermion(lat4), u1 * psi2),
            "spmat": (latt_spin_matrix(lat4), g2 * g3),
            "matvec": (latt_fermion(lat4), u1 * psi1 + u1 * psi2),
            "clover": (latt_fermion(lat4),
                       _clover_expr(lat4, "f64", ctx, None)),
        }
        for name, (dest, expr) in cases.items():
            expr = as_expr(expr)
            module = build_expression_kernel(name, expr, dest, False)
            bare = _without_memo(monkeypatch, name, [(dest, expr)], None,
                                 False)
            assert _float_repeats(module.instructions) == 0, name
            assert _memory_footprint(module) == _memory_footprint(bare), \
                name

    def test_expr_zoo_pool_keeps_its_memory_traffic(self, monkeypatch):
        """Each of the benchmark's 30 expressions (read-only import),
        built through the launcher, against the same group built with
        the memo off."""
        import warnings
        from pathlib import Path

        from repro.core import fusion
        from repro.driver import clear_kernel_store

        clear_kernel_store()    # the spy must see every group generated
        build, built = fusion.build_fused_kernel, []

        def both(name, assigns, reduction, subset_mode):
            module = build(name, assigns, reduction, subset_mode)
            bare = _without_memo(monkeypatch, name, assigns, reduction,
                                 subset_mode)
            built.append((name, module, bare))
            return module

        monkeypatch.setattr(fusion, "build_fused_kernel", both)
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
        import workloads

        zoo = workloads.ExprZoo()
        inputs = zoo.generate(seed=0, smoke=True)
        inputs["names"] = workloads.ZOO_REQUIRED + workloads.ZOO_OPTIONAL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            zoo.run(zoo.bind(inputs))
        assert len(built) >= 30
        fewer = 0
        for name, module, bare in built:
            assert _memory_footprint(module) == _memory_footprint(bare), \
                name
            assert len(module.instructions) <= len(bare.instructions), name
            assert _float_repeats(module.instructions) <= \
                _float_repeats(bare.instructions), name
            fewer += len(module.instructions) < len(bare.instructions)
        assert fewer > 0

    def test_one_node_under_two_conjugations_and_two_views(
            self, lat4, monkeypatch):
        """One node object read conjugated and plain, and through two
        shift views: neither pair may share a memo entry.  With fusion
        on the two statements are one group (the structural memo), off
        they are two lone statements (the identity memo); both backends
        store the same bits either way."""
        from repro.core.context import Context

        x = latt_complex(lat4)
        x.gaussian(np.random.default_rng(7))
        x = x.to_numpy()
        fwd, bwd = x[lat4.shift_map(0, +1)], x[lat4.shift_map(0, -1)]
        images = []
        for fusion in (True, False):
            for backend in ("sim", "cpu"):
                monkeypatch.setenv("REPRO_BACKEND", backend)
                ctx = Context(fusion=fusion, autotune=False)
                c1, c, d = (latt_complex(lat4, context=ctx)
                            for _ in range(3))
                c1.from_numpy(x)
                r = c1.ref()
                c.assign(conj(r) * r)
                d.assign(shift(r, +1, 0) * shift(r, -1, 0) + r)
                ctx.flush()
                kinds = {e.module.name[:4] for e in ctx.module_cache.values()}
                assert kinds == ({"fus_"} if fusion else {"eval"})
                np.testing.assert_allclose(c.to_numpy(), np.abs(x) ** 2,
                                           rtol=1e-13, atol=1e-15)
                np.testing.assert_allclose(d.to_numpy(), fwd * bwd + x,
                                           rtol=1e-13)
                images.append(np.concatenate([c.to_numpy(), d.to_numpy()]))
        for image in images[1:]:
            assert np.array_equal(image, images[0])


class TestByteIdentity:
    """Every statement path is one builder; these pin the exact PTX
    (sha256 of the rendered module) of one kernel per group shape and
    mode.  The fused and reduction digests were recorded when there
    were three builders; the ``eager_*`` ones were re-recorded when
    single statements began addressing their destination through its
    field slot instead of ``p_dst`` (PR 21).  All seven were
    re-recorded on purpose when every SoA address began to come from
    ``KernelBuilder.soa_address`` — uniform part first, one integer
    instruction fewer per access (PR 23): only address arithmetic
    moved, no float operation and no load or store
    (``test_an_eager_kernel_loads_once_per_node_word``)."""

    GOLDEN = {
        "eager_full": "d3cc84d47252d92a1a04774cfd6e86fb6e75586fccb85d8afb2995d721cd367a",
        "eager_subset": "6d52d641286a7aa3f17df1184862aa5ad19565f8d01e8eca2fe4fcd9f4e939e6",
        "eager_shift": "c06c3dee77a608779b4f710dfcc14481db35f459a229c306b67ef179eef18fd4",
        "fused_3": "b82bd8c921645b26a3e568e653ff0c5d04a3d5e2b62a0699f4a18f85206e7fea",
        "fused_norm2": "1c4f778e73cdee04227279252d76dba9e12c80025e396e1b3c5c7fdc8ee3d19d",
        "norm2": "0f985185c9e4994433337431c2cbf4b1e32b1696beddbcf4d241db427bb7aad2",
        "inner_subset": "eb962250126827288250a9ed84dbaa76805d066b9d3f558c764e7206ddc9952e",
    }
    #: kernel names the same statements get through the pipeline
    GOLDEN_NAMES = [
        "eval_3549524cf238", "eval_c69f66066454", "eval_980c1ca81bd1",
        "fus_135b4ee03943", "fus_6258f1c7e9c1",
        "red_8cc62da40cc0", "red_0ff803bcd4de",
    ]

    @staticmethod
    def golden_modules(lat4):
        """One kernel per group shape and mode, all from the one
        builder (``tests/driver/test_slot_allocation.py`` reuses it)."""
        from repro.core.codegen import (build_expression_kernel,
                                        build_fused_kernel)
        from repro.core.expr import as_expr

        x, y, a, b, c = (latt_fermion(lat4) for _ in range(5))
        three = [(a, as_expr(2.0 * x + y)), (b, a.ref() - y.ref()),
                 (c, as_expr(3.0 * a + b))]
        return {
            "eager_full": build_expression_kernel(
                "golden", as_expr(2.0 * x + y), a, False),
            "eager_subset": build_expression_kernel(
                "golden", as_expr(2.0 * x + y), a, True),
            "eager_shift": build_expression_kernel(
                "golden", x + shift(y.ref(), +1, 0), a, False),
            "fused_3": build_fused_kernel("golden", three, None, False),
            "fused_norm2": build_fused_kernel(
                "golden", three[:2], ("norm2", [b.ref()]), False),
            "norm2": build_fused_kernel(
                "golden", [], ("norm2", [x.ref()]), False),
            "inner_subset": build_fused_kernel(
                "golden", [], ("inner", [x.ref(), y.ref()]), True),
        }

    def test_golden_ptx_digests(self, lat4):
        import hashlib

        got = {k: hashlib.sha256(m.render().encode()).hexdigest()
               for k, m in self.golden_modules(lat4).items()}
        assert got == self.GOLDEN

    def test_an_eager_kernel_loads_once_per_node_word(self, lat4):
        """Table II's byte accounting is per *load*, not per address:
        ``matvec`` reads ``u`` twice, and a lone statement must keep
        both sets of loads however its addresses are formed."""
        from repro.core.codegen import build_expression_kernel
        from repro.core.expr import as_expr

        u = latt_color_matrix(lat4)
        psi, phi, chi = (latt_fermion(lat4) for _ in range(3))
        module = build_expression_kernel(
            "golden", as_expr(u * psi + u * phi), chi, False)
        loads = [i for i in module.instructions if i.opcode == "ld.global"]
        words = 2 * 18 + 24 + 24
        assert len(loads) == words
        assert module.info.bytes_loaded_per_site == 8 * words
        # one address per access, each formed by the builder's two
        # instructions
        planes = [i for i in module.instructions
                  if i.opcode == "mad.lo" and i.type.value == "u64"]
        assert len(planes) == words + 24
        assert len({i.srcs[0] for i in loads}) == words

    def test_golden_kernel_names(self, lat4, rng):
        from repro.core.context import Context
        from repro.core.reduction import innerProduct, norm2

        ctx = Context(fusion=True, autotune=False)
        x, y, a, b, c = (latt_fermion(lat4, context=ctx) for _ in range(5))
        x.gaussian(rng)
        y.gaussian(rng)
        a.assign(2.0 * x + y)
        ctx.flush()
        a.assign(2.0 * x + y, subset=lat4.even)
        ctx.flush()
        a.assign(x + shift(y.ref(), +1, 0))
        ctx.flush()
        a.assign(2.0 * x + y)
        b.assign(a.ref() - y.ref())
        c.assign(3.0 * a + b)
        ctx.flush()
        a.assign(2.0 * x + y)
        b.assign(a.ref() - y.ref())
        norm2(b)
        norm2(x)
        innerProduct(x, y, subset=lat4.even)
        assert [e.module.name for e in ctx.module_cache.values()] \
            == self.GOLDEN_NAMES
