"""The builder's stream and its text are one program.

The JIT compiles a generated kernel from the stream the builder made
and parses only text that crosses a boundary.  Over every kernel of
the ``repro.lint`` suite, one small HMC trajectory and a 2-rank dslash
(the eval, fus, red, gather and scatter families), the text parses
back to the builder's stream, both streams translate to the same
source, and the text's digest names the kernel built from the stream.
"""

import numpy as np
import pytest

from repro.driver import KernelCache, cache as cache_mod, clear_kernel_store
from repro.driver.jitcompiler import _Translator
from repro.driver.parser import parse_ptx
from repro.ptx.isa import KernelInfo
from repro.ptx.module import PTXModule

from .test_store import _dslash_2rank


def _hmc_trajectory():
    """One two-level Omelyan trajectory (two-flavour Wilson + gauge)."""
    from repro.core.context import Context
    from repro.hmc import (HMC, GaugeMonomial, Level,
                           MultiTimescaleIntegrator, TwoFlavorWilsonMonomial)
    from repro.qcd.gauge import weak_gauge
    from repro.qcd.wilson import WilsonParams
    from repro.qdp.lattice import Lattice

    ctx = Context()
    rng = np.random.default_rng(3)
    with ctx:
        u = weak_gauge(Lattice((2, 2, 2, 2)), rng, eps=0.2, context=ctx)
        levels = [Level([TwoFlavorWilsonMonomial(WilsonParams(kappa=0.1),
                                                 tol=1e-8)],
                        n_steps=1, scheme="omelyan"),
                  Level([GaugeMonomial(5.6)], n_steps=1, scheme="omelyan")]
        HMC(u, MultiTimescaleIntegrator(levels), rng).trajectory(
            0.05, always_accept=True)
        ctx.flush()


@pytest.fixture(scope="module")
def kernels():
    """``(module, text, compiled)`` for every kernel generated."""
    from repro.lint import _build_kernel_suite, _suite_modules

    clear_kernel_store()
    ctx, lat, _ = _build_kernel_suite((2, 2, 2, 2))
    _suite_modules(ctx, lat)
    _hmc_trajectory()
    _dslash_2rank()
    return [(m, text, cache_mod._STORE[KernelCache.key_for(text)])
            for m, text in cache_mod._MODULES.values()]


def test_every_family_is_covered(kernels):
    families = {m.name.split("_")[0] for m, _, _ in kernels}
    assert families >= {"eval", "fus", "red", "gather", "scatter"}


def test_the_text_parses_back_to_the_builders_stream(kernels):
    for m, text, _ in kernels:
        parsed = parse_ptx(text)
        assert parsed.instructions == m.instructions, m.name
        assert parsed.params == m.info.params, m.name
        assert parsed.reg_decls == m.info.regs_per_thread, m.name


def test_both_streams_translate_to_the_same_source(kernels):
    for m, text, compiled in kernels:
        # the store's kernel was compiled from the handed stream: the
        # builder's instruction objects themselves, not a parse of text
        handed = compiled.parsed.instructions
        assert len(handed) == len(m.instructions), m.name
        assert all(a is b for a, b in zip(handed, m.instructions)), m.name
        handed = _Translator(compiled.parsed)
        reparsed = _Translator(parse_ptx(text))
        assert handed.translate() == reparsed.translate(), m.name
        assert handed.consts == reparsed.consts, m.name


def test_the_digest_is_unchanged(kernels):
    for m, text, compiled in kernels:
        assert compiled.ptx_text == text == m.render()
        parsed = parse_ptx(text)
        again = PTXModule(KernelInfo(parsed.name, params=parsed.params,
                                     regs_per_thread=parsed.reg_decls),
                          parsed.instructions).render()
        assert KernelCache.key_for(again) == KernelCache.key_for(text)
