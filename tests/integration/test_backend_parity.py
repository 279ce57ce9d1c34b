"""Suite-wide bitwise parity: ``REPRO_BACKEND=cpu`` vs ``sim``.

The two dispatch names run one callable per kernel, so every
observable memory effect is identical — not "close", *identical*.
These tests run the full kernel-family suite (Wilson dslash both
signs, the packed clover operator, the reduction kernels, the halo
face copies) under both names and compare raw results.
"""

import numpy as np


def _run_suite(monkeypatch, backend):
    """Run every kernel family on a fresh context; return outputs."""
    monkeypatch.setenv("REPRO_BACKEND", backend)

    from repro.core.context import Context, set_default_context
    from repro.core.reduction import innerProduct, norm2, sum_sites
    from repro.qcd.dslash import WilsonDslash
    from repro.qcd.gauge import weak_gauge
    from repro.qcd.wilson import WilsonOperator, WilsonParams
    from repro.qdp.fields import latt_complex, latt_fermion
    from repro.qdp.lattice import Lattice

    ctx = Context(autotune=False)
    old = None
    try:
        from repro.core import context as context_mod

        old = context_mod._default_context
        set_default_context(ctx)
        lat = Lattice((4, 4, 4, 4))
        rng = np.random.default_rng(7)
        u = weak_gauge(lat, rng, eps=0.3, context=ctx)
        psi = latt_fermion(lat, context=ctx)
        psi.gaussian(rng)
        chi = latt_fermion(lat, context=ctx)
        dest = latt_fermion(lat, context=ctx)

        out = []
        dslash = WilsonDslash(u)
        dslash(dest, psi)
        out.append(dest.to_numpy().copy())
        dslash(chi, psi, sign=-1)
        out.append(chi.to_numpy().copy())
        clov = WilsonOperator(u, WilsonParams(kappa=0.12, clover_coeff=1.0))
        clov.apply(dest, psi)
        out.append(dest.to_numpy().copy())
        clov.apply_dagger(chi, psi)
        out.append(chi.to_numpy().copy())
        out.append(norm2(psi, context=ctx))
        out.append(innerProduct(chi, psi, context=ctx))
        z = latt_complex(lat, context=ctx)
        z.gaussian(rng)
        out.append(sum_sites(z.ref() * z.ref(), context=ctx))
        ctx.flush()

        from repro.comm.faces import build_gather_kernel, build_scatter_kernel

        for kind, build in (("gather", build_gather_kernel),
                            ("scatter", build_scatter_kernel)):
            ctx.build_kernel(f"face:{kind}:24:f64",
                             lambda: build(24, "f64"), charge_jit=False)

        return out, ctx
    finally:
        set_default_context(old)


class TestBitwiseParity:
    def test_cpu_matches_sim_bitwise(self, monkeypatch):
        ref, _ = _run_suite(monkeypatch, "sim")
        got, ctx = _run_suite(monkeypatch, "cpu")
        assert ctx.stats.backend.mode == "cpu"
        assert len(ref) == len(got)
        for i, (a, b) in enumerate(zip(ref, got)):
            assert np.array_equal(np.asarray(a), np.asarray(b)), \
                f"output {i} differs"

    def test_cpu_backend_actually_launched(self, monkeypatch):
        _, ctx = _run_suite(monkeypatch, "cpu")
        assert ctx.stats.backend.mode == "cpu"
        assert ctx.device.stats.kernel_launches > 0
