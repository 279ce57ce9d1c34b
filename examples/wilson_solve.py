"""Propagator-style workflow: solve the Wilson-clover system.

The post-Monte-Carlo analysis phase of LQCD (paper Sec. I) is
dominated by solves of M psi = chi.  This example runs the solve
three ways and cross-checks them:

1. framework CG on the normal equations (full lattice),
2. framework CG on the even-odd preconditioned system (the production
   choice: half the data, much better conditioning),
3. the QUDA comparator's mixed-precision CG through the zero-copy
   device interface.

Run:  python examples/wilson_solve.py
"""

import time

import numpy as np

from repro.core import qdp_init
from repro.core.reduction import norm2
from repro.qcd.gauge import plaquette, weak_gauge
from repro.qcd.solver import cg
from repro.qcd.wilson import EvenOddWilsonOperator, WilsonOperator, WilsonParams
from repro.qdp import Lattice
from repro.qdp.fields import latt_fermion
from repro.quda import QudaInvertParam, QudaSolver

ctx = qdp_init()
lattice = Lattice((6, 6, 6, 8))
rng = np.random.default_rng(11)
u = weak_gauge(lattice, rng, eps=0.3)
print(f"configuration ready, plaquette = {plaquette(u):.5f}")

params = WilsonParams(kappa=0.124)
chi = latt_fermion(lattice)
chi.gaussian(rng)


def residual(m, psi):
    tmp = m.new_fermion()
    m.apply(tmp, psi)
    tmp.assign(chi - tmp)
    return (norm2(tmp) / norm2(chi)) ** 0.5


# --- 1. full-lattice CG on M+ M -------------------------------------------
m = WilsonOperator(u, params)
rhs = m.new_fermion()
m.apply_dagger(rhs, chi)             # normal equations: M+M x = M+ chi
x_full = m.new_fermion()
t0 = time.perf_counter()
res = cg(lambda d, s: m.apply_mdagm(d, s), x_full, rhs, tol=1e-10,
         max_iter=2000)
print(f"\nfull-lattice CG:    {res.iterations:4d} iterations, "
      f"true |r|/|b| = {residual(m, x_full):.2e}, "
      f"wall {time.perf_counter() - t0:.1f} s")

# --- 2. even-odd preconditioned CG ------------------------------------------
m_eo = EvenOddWilsonOperator(u, params)
b = m_eo.prepare_source(chi)
rhs_e = m_eo.new_fermion()
m_eo.apply_dagger(rhs_e, b)
x_e = m_eo.new_fermion()
t0 = time.perf_counter()
res_eo = cg(lambda d, s: m_eo.apply_mdagm(d, s), x_e, rhs_e, tol=1e-10,
            max_iter=2000, subset=lattice.even)
psi_eo = m_eo.reconstruct(x_e, chi)
print(f"even-odd CG:        {res_eo.iterations:4d} iterations, "
      f"true |r|/|b| = {residual(m, psi_eo):.2e}, "
      f"wall {time.perf_counter() - t0:.1f} s")

# --- 3. QUDA mixed-precision CG via the device interface -------------------
solver = QudaSolver(u, params,
                    QudaInvertParam(tol=1e-10, device_interface=True))
x_quda = latt_fermion(lattice)
t0 = time.perf_counter()
res_q = solver.solve(x_quda, rhs)
print(f"QUDA mixed CG:      {res_q.iterations:4d} iterations "
      f"({res_q.reliable_updates} reliable updates), "
      f"true |r|/|b| = {residual(m, x_quda):.2e}, "
      f"wall {time.perf_counter() - t0:.1f} s")

# all three must agree
d1 = norm2(x_full - psi_eo) ** 0.5 / norm2(x_full) ** 0.5
d2 = norm2(x_full - x_quda) ** 0.5 / norm2(x_full) ** 0.5
print(f"\nsolution agreement: |x_full - x_eo| = {d1:.2e}, "
      f"|x_full - x_quda| = {d2:.2e}")
assert d1 < 1e-7 and d2 < 1e-7
print("all three solvers agree.")
