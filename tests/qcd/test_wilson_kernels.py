"""Kernel-name golden of the Wilson-type operators.

Wilson and Wilson-clover, full and even-odd, are one class pair over
``WilsonParams``; each must issue the statement sequence the separate
Wilson and clover classes issued before they were merged.  Kernel
names are derived from a kernel's structural key, so the names a
fresh context fills ``module_cache`` with, in order, pin every
generated kernel and the order in which the statements first need it
(with the fusion queue on: the names of fused groups follow it).
"""

import numpy as np
import pytest

from repro.core.context import Context
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import (EvenOddWilsonOperator, WilsonOperator,
                              WilsonParams)
from repro.qdp.fields import latt_fermion

#: recorded with the separate ``WilsonOperator`` / ``CloverOperator``
#: and ``EvenOddWilsonOperator`` / ``EvenOddCloverOperator`` classes
GOLDEN_NAMES = {
    "wilson": [
        "fus_e6fcb30f9338", "eval_31292ccf74fe", "fus_511c7b4dbcdc",
        "eval_727b5e58473d", "fus_284f6f7af45a",
    ],
    "wilson_eo": [
        "fus_e6fcb30f9338", "eval_36bfe53e9c87", "eval_a00d31df2da8",
        "fus_511c7b4dbcdc", "eval_b2c7ef86f15e", "eval_c7aa7260cc7f",
        "eval_8b35fa456e81", "eval_a72127e036fd", "eval_b8f7a3d75c89",
    ],
    "clover": [
        "fus_e6fcb30f9338", "eval_886d4e443ffb", "fus_511c7b4dbcdc",
        "eval_0f1eb82e697e", "fus_b7780ca50a99",
    ],
    "clover_eo": [
        "fus_e6fcb30f9338", "eval_36bfe53e9c87", "eval_78b8b4e98a3f",
        "eval_ab339f1ae6e9", "fus_511c7b4dbcdc", "fus_44ced4891399",
        "eval_b0b6e9cae0d3", "fus_c39f0269dcd6", "eval_b8f7a3d75c89",
        "eval_a72127e036fd", "fus_6d258ace5b75",
    ],
}

CASES = {
    "wilson": (WilsonOperator, None),
    "wilson_eo": (EvenOddWilsonOperator, None),
    "clover": (WilsonOperator, 0.3),
    "clover_eo": (EvenOddWilsonOperator, 0.3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_operator_kernel_names(lat4, case):
    cls, clover_coeff = CASES[case]
    ctx = Context(fusion=True, autotune=False)
    rng = np.random.default_rng(5)
    u = weak_gauge(lat4, rng, eps=0.25, context=ctx)
    psi = latt_fermion(lat4, context=ctx)
    psi.gaussian(rng)
    m = cls(u, WilsonParams(kappa=0.11, clover_coeff=clover_coeff))
    dest = m.new_fermion()
    for method in (m.apply, m.apply_dagger, m.apply_mdagm):
        method(dest, psi)
        ctx.flush()
    if cls is EvenOddWilsonOperator:
        b = m.prepare_source(psi)
        ctx.flush()
        m.reconstruct(b, psi)
        ctx.flush()
    assert [e.module.name for e in ctx.module_cache.values()] \
        == GOLDEN_NAMES[case]
