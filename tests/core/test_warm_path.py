"""A warm statement walks no tree and a warm launch rebuilds nothing.

Spies count, per iteration of a small fused CG solve and of one HMC
molecular-dynamics step, the calls a warm iteration must not make:

* a ``__temp`` field — a replayed statement reuses its plan's
  temporaries (``repro.core.evaluator.StatementPlan``);
* ``group_key`` and ``Context.lookup_kernel`` — a group launches from
  its launch plan (``repro.core.fusion.LaunchPlan``), and only a
  launch plan miss keys it;

* ``lint_assignment`` — the lint formats diagnostics only for a
  finding the evaluator reports;
* ``Expr.signature`` — the per-node signature, which only the code
  generator reads (the launcher numbers the root fragments);
* ``launch_env`` and a ``merge_envs`` of two different envs — the
  env is built and merged once per (key, binding);
* ``kernel_cost`` — modeled once per launch shape;
* ``np.linalg.lstsq`` and any spin-matrix construction (a projector,
  a ``ConstSpinMatrix``) — the Dslash's spin projection and
  reconstruction matrices are built once per ``(mu, sign)``, exact;
  rebuilt per call they cost a warm fused CG a fifth of its time.

The first iteration still builds kernels, envs and costs, so the
spies are live (the per-node signature keys the value memo of a
multi-statement kernel: the contexts fuse, whatever ``REPRO_FUSION``
says).  They run at a fixed block size: while the auto-tuner probes,
each new block size is a new launch shape and is modeled once, by
design.
"""

from __future__ import annotations

import gc
import importlib

import numpy as np
import pytest

import repro.core.context as context_mod
import repro.core.fusion as fusion_mod
import repro.core.lint as lint_mod
import repro.device.gpu as gpu_mod
import repro.qcd.halfspinor as halfspinor_mod
import repro.qdp.fields as fields_mod
from repro.core.context import Context
from repro.core.expr import ConstSpinMatrix, Expr, shift
from repro.driver import clear_kernel_store
from repro.hmc import (GaugeMonomial, Level, MultiTimescaleIntegrator,
                       TwoFlavorWilsonMonomial)
from repro.hmc.forces import gaussian_momenta
from repro.qcd.gauge import weak_gauge
from repro.qcd.solver import cg
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

# ``repro.qcd.gamma`` the attribute is the function gamma()
gamma_mod = importlib.import_module("repro.qcd.gamma")


@pytest.fixture()
def spies(monkeypatch):
    counts = dict.fromkeys(("lint_assignment", "signature", "launch_env",
                            "merge_envs", "kernel_cost", "lstsq",
                            "spin_matrix", "temp", "group_key",
                            "lookup_kernel"), 0)

    def counted(name, fn, when=lambda *a, **k: True):
        def spy(*args, **kwargs):
            if when(*args, **kwargs):
                counts[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(lint_mod, "lint_assignment", counted(
        "lint_assignment", lint_mod.lint_assignment))
    monkeypatch.setattr(Expr, "signature", counted(
        "signature", Expr.signature))
    monkeypatch.setattr(fusion_mod, "launch_env", counted(
        "launch_env", fusion_mod.launch_env))
    monkeypatch.setattr(context_mod, "merge_envs", counted(
        "merge_envs", context_mod.merge_envs, lambda a, b: a is not b))
    monkeypatch.setattr(gpu_mod, "kernel_cost", counted(
        "kernel_cost", gpu_mod.kernel_cost))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(fields_mod.LatticeField, "__init__", counted(
        "temp", fields_mod.LatticeField.__init__,
        lambda *a, name=None, **k: name == "__temp"))
    monkeypatch.setattr(fusion_mod, "group_key", counted(
        "group_key", fusion_mod.group_key))
    monkeypatch.setattr(context_mod.Context, "lookup_kernel", counted(
        "lookup_kernel", context_mod.Context.lookup_kernel))
    for mod in (gamma_mod, halfspinor_mod):
        monkeypatch.setattr(mod, "projector", counted(
            "spin_matrix", mod.projector))
    monkeypatch.setattr(ConstSpinMatrix, "__init__", counted(
        "spin_matrix", ConstSpinMatrix.__init__))
    # the first iteration builds the projection matrices again, so the
    # spin-matrix spy is live
    halfspinor_mod.projection_matrices.cache_clear()
    halfspinor_mod._spin_op.cache_clear()

    def per_iteration(step, n=2):
        out = []
        for _ in range(n):
            before = dict(counts)
            step()
            out.append({k: counts[k] - before[k] for k in counts})
        return out

    return per_iteration


def _fresh(**kwargs):
    clear_kernel_store()    # the first iteration must generate its kernels
    return Context(autotune=False, **kwargs)


def test_fused_cg(spies):
    ctx = _fresh(fusion=True)
    lat = Lattice((2, 2, 2, 4))
    rng = np.random.default_rng(5)
    with ctx:
        u = weak_gauge(lat, rng, eps=0.3)
        op = WilsonOperator(u, WilsonParams(kappa=0.1))
        b = latt_fermion(lat)
        b.gaussian(rng)

        def solve():
            x = latt_fermion(lat)
            cg(op.apply_mdagm, x, b, tol=0.0, max_iter=4)
            ctx.flush()

        first, second = spies(solve)
    assert ctx.stats.fusion_groups > 0
    for name in ("signature", "launch_env", "kernel_cost", "spin_matrix",
                 "temp", "group_key", "lookup_kernel"):
        assert first[name] > 0, name
    assert second == dict.fromkeys(second, 0)


def test_hmc_md_step(spies):
    ctx = _fresh(fusion=True)
    lat = Lattice((2, 2, 2, 4))
    rng = np.random.default_rng(9)
    with ctx:
        u = weak_gauge(lat, rng, eps=0.2)
        fermions = TwoFlavorWilsonMonomial(WilsonParams(kappa=0.1),
                                           tol=1e-8)
        fermions.refresh(u, rng)
        integrator = MultiTimescaleIntegrator(
            [Level([fermions], n_steps=1, scheme="omelyan"),
             Level([GaugeMonomial(5.6)], n_steps=1, scheme="omelyan")])
        p = gaussian_momenta(rng, lat.nd, lat.nsites)

        def md_step():
            integrator.run(u, p, 0.02)
            ctx.flush()

        first, second = spies(md_step)
        # a warm step leaves no reference cycle: a temporary's field,
        # device memory and cache entry go when its last reference does
        gc.collect()
        gc.disable()
        try:
            md_step()
            assert gc.collect() == 0
        finally:
            gc.enable()
    # a kernel launched under a second binding widens its env
    for name in ("signature", "launch_env", "merge_envs", "kernel_cost",
                 "temp", "group_key", "lookup_kernel"):
        assert first[name] > 0, name
    assert second == dict.fromkeys(second, 0)


def test_the_lint_spy_sees_a_reported_finding(spies, ctx, lat4):
    """``lint_assignment`` is the path a reportable finding takes."""
    psi = latt_fermion(lat4)
    with pytest.warns(RuntimeWarning, match="shift-alias"):
        (counts,) = spies(lambda: psi.assign(shift(psi, +1, 0)), n=1)
    assert counts["lint_assignment"] == 1
