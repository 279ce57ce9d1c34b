"""Sec. VII: kernel auto-tuning traces.

Shows the paper's strategy in action: start at the device maximum
block size, halve on launch failure, probe smaller sizes on payload
launches until the time degrades by >33%, then lock the best.
"""

import numpy as np

from repro.core.context import Context
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

from _util import header, report, table


def test_autotune_trace(benchmark):
    ctx = Context(autotune=True)
    lat = Lattice((8, 8, 8, 8))
    rng = np.random.default_rng(0)
    a = latt_fermion(lat, context=ctx)
    a.gaussian(rng)
    b = latt_fermion(lat, context=ctx)

    def ten_launches():
        for _ in range(10):
            b.assign(2.0 * a)

    benchmark.pedantic(ten_launches, rounds=1, iterations=1)
    header("Sec. VII: auto-tuning trace (axpy-like kernel, 8^4)")
    (name, st), = list(ctx.autotuner.states.items())[:1]
    rows = [(i, bs, f"{t * 1e6:.1f} us")
            for i, (bs, t) in enumerate(st.history)]
    table(rows, ("launch", "block size", "modeled time"))
    report(f"tuned block size: {st.best_block} "
           f"(paper: >= 128 saturates on Kepler)",
           f"launch failures encountered: {st.failures}",
           f"phase: {st.phase.value}")
    assert st.best_block >= 128


def test_autotune_converges_quickly(benchmark):
    """Tuning must settle within a handful of payload launches."""
    ctx = Context(autotune=True)
    lat = Lattice((8, 8, 8, 8))
    rng = np.random.default_rng(0)
    a = latt_fermion(lat, context=ctx)
    a.gaussian(rng)
    b = latt_fermion(lat, context=ctx)

    def launch():
        b.assign(a + a)

    benchmark(launch)
    from repro.device.autotune import Phase

    st = list(ctx.autotuner.states.values())[0]
    assert st.phase is Phase.TUNED
    assert len(st.history) <= st.launches
