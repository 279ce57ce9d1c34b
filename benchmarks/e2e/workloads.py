"""The seven workloads of the end-to-end benchmark.

Each workload is a small object with five steps the child process
drives in order:

``generate(seed, smoke)``
    Host inputs (plain NumPy arrays) from the seed — part of *setup*.
``bind(inputs)``
    A brand-new ``Context`` (or ``VirtualMachine``) with the inputs
    loaded into fields.  Timed as part of the cold and the recontext
    pass: it is what a user pays before the first result.
``reset(state, inputs)``
    Put back whatever a pass overwrote, so every pass starts from
    identical data.  Not timed.
``run(state)``
    One *pass*: the workload's fixed unit count, ending with a flush
    and a host read of the result.  Returns ``(result, info)`` — the
    arrays/scalars the checks look at, and exact workload-level counts.
``check(inputs, state, result, info)``
    Compare against :mod:`oracle`.  Returns ``(ok, detail)``.

The amount of work never depends on the seed (solvers run a fixed
iteration count with ``tol=0``; the expression set is a fixed draw), so
two seeds differ in data only and timings stay comparable across seeds.
Library defaults everywhere: ``Context()`` with default arguments and
no ``REPRO_*`` variable, except where a workload says otherwise.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np

import oracle

from repro.comm import DistributedWilsonDslash, VirtualMachine
from repro.core.context import Context
from repro.core.expr import (adj, conj, imag, pow_const, real, shift, timesI,
                             trace, traceSpin, transpose)
from repro.core.reduction import innerProduct, norm2, sum_sites
from repro.hmc import (HMC, GaugeMonomial, Level, MultiTimescaleIntegrator,
                       TwoFlavorWilsonMonomial)
from repro.qcd import su3
from repro.qcd.clover import CloverTerm
from repro.qcd.gamma import gamma5_const, projector_const
from repro.qcd.solver import cg
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import LatticeField, gauge_field, latt_fermion
from repro.qdp.lattice import BACKWARD, FORWARD, Lattice
from repro.qdp.typesys import (color_matrix, color_vector, complex_field,
                               fermion, real_field, spin_matrix)


def _gaussian(rng, shape):
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return z * np.sqrt(0.5)


def _weak_links(rng, nsites: int, nd: int, eps: float):
    return [su3.random_su3_near_unit(rng, nsites, eps) for _ in range(nd)]


def _load_gauge(lattice, links, ctx):
    u = gauge_field(lattice, context=ctx)
    for umu, arr in zip(u, links):
        umu.from_numpy(arr)
    return u


class Workload:
    name = ""
    why = ""
    #: warm passes per child (the per-child warm time is their minimum)
    warm_passes = 7
    #: extra environment of the child process
    env: dict = {}

    def contexts(self, state) -> list:
        return [state.ctx]

    def overlap_fraction(self, state) -> float:
        """Modeled fraction of serial time hidden by lane overlap."""
        return state.ctx.stats.overlap_fraction


# -- fused CG -----------------------------------------------------------------

class FusedCG(Workload):
    """CG on ``M^+ M + 0.1`` (Wilson ``M = 1 - kappa D``), ``tol=0``."""

    KAPPA = 0.12
    SIGMA = 0.1

    def __init__(self, name, why, dims, iterations, env=None):
        self.name = name
        self.why = why
        self.dims = dims
        self.iterations = iterations
        self.env = env or {}

    def generate(self, seed, smoke):
        dims = (2, 2, 2, 2) if smoke else self.dims
        iterations = 3 if smoke else self.iterations
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        return {"dims": dims, "iterations": iterations,
                "u": _weak_links(rng, n, len(dims), 0.3),
                "b": _gaussian(rng, (n, 4, 3))}

    def bind(self, inp):
        ctx = Context()
        lat = Lattice(inp["dims"])
        op = WilsonOperator(_load_gauge(lat, inp["u"], ctx),
                            WilsonParams(kappa=self.KAPPA))
        st = SimpleNamespace(ctx=ctx, op=op, iterations=inp["iterations"],
                             b=op.new_fermion(), x=op.new_fermion(),
                             tmp=op.new_fermion())
        st.b.from_numpy(inp["b"])
        return st

    def reset(self, st, inp):
        st.x.zero()

    def run(self, st):
        def apply_op(dest, src):
            st.op.apply_mdagm(dest, src, st.tmp)
            dest.assign(dest + self.SIGMA * src)

        res = cg(apply_op, st.x, st.b, tol=0.0, max_iter=st.iterations)
        st.ctx.flush()
        return ({"x": st.x.to_numpy().copy()},
                {"solver_iterations": res.iterations})

    def check(self, inp, st, result, info):
        return oracle.check_cg(inp["u"], inp["b"], result["x"], inp["dims"],
                               self.KAPPA, self.SIGMA, inp["iterations"])


# -- the expression zoo -------------------------------------------------------

#: the zoo is a fixed draw from the pool below: the *set of programs*
#: must not change with ``--seed`` (cold time is the time to build
#: exactly these kernels), only the field data does
ZOO_DRAW_SEED = 1408
ZOO_SIZE = 20
#: always present: the five Table II test functions, shifts, a subset
#: assignment, mixed precision, a reduction (the clover custom op is
#: one of the five)
ZOO_REQUIRED = ("lcm", "upsi", "spmat", "matvec", "clover", "shift_fwd",
                "hop_bwd", "subset_even", "mixed_f32_f64", "norm2_upsi")
ZOO_OPTIONAL = ("adj_chain", "axpy", "caxpy", "color_vec", "conj_mul", "cube",
                "gamma5", "hop_fwd", "inner", "laplace", "mixed_into_f32",
                "projector", "real_imag", "spin_mat_vec", "subset_odd",
                "sum_trace", "times_i", "trace_cm", "trace_spin", "transpose")
ZOO_SMOKE = ("upsi", "clover", "shift_fwd", "subset_even", "mixed_f32_f64",
             "norm2_upsi")


def _zoo_pool(f):
    """name -> (kind, dest, build, subset); ``f`` holds the fields.

    ``build()`` makes a fresh expression tree each evaluation, as user
    code does.  Reductions have ``dest`` None and ``build`` returning
    the operand list.
    """
    u, psi, phi = f.u, f.psi, f.phi
    lat = psi.lattice
    return {
        # Table II
        "lcm": ("assign", f.cm, lambda: u[1] * u[2], None),
        "upsi": ("assign", f.chi, lambda: u[0] * psi, None),
        "spmat": ("assign", f.sm, lambda: f.g2 * f.g3, None),
        "matvec": ("assign", f.chi, lambda: u[0] * psi + u[0] * phi, None),
        "clover": ("assign", f.chi, lambda: f.clov.apply_expr(psi), None),
        # shifts
        "shift_fwd": ("assign", f.chi, lambda: shift(psi, FORWARD, 0), None),
        "hop_fwd": ("assign", f.chi,
                    lambda: u[3] * shift(psi, FORWARD, 3), None),
        "hop_bwd": ("assign", f.chi,
                    lambda: shift(adj(u[1]) * psi, BACKWARD, 1), None),
        "laplace": ("assign", f.chi,
                    lambda: (shift(psi, FORWARD, 0) + shift(psi, BACKWARD, 2)
                             - 2.0 * psi), None),
        # subsets
        "subset_even": ("assign", f.chi_even, lambda: u[2] * phi, lat.even),
        "subset_odd": ("assign", f.chi_odd,
                       lambda: psi - 0.5 * phi, lat.odd),
        # mixed precision
        "mixed_f32_f64": ("assign", f.chi,
                          lambda: f.u32 * f.psi32 + phi, None),
        "mixed_into_f32": ("assign", f.chi32, lambda: f.u32 * psi, None),
        # reductions
        "norm2_upsi": ("norm2", None, lambda: [u[0] * psi], None),
        "inner": ("inner", None, lambda: [psi, phi], None),
        "sum_trace": ("sum", None, lambda: [trace(u[0] * adj(u[1]))], None),
        # the rest of the Table I types and operators
        "adj_chain": ("assign", f.cm,
                      lambda: adj(u[0]) * u[1] * adj(u[2]), None),
        "transpose": ("assign", f.cm, lambda: transpose(u[0]) * u[1], None),
        "trace_cm": ("assign", f.c, lambda: trace(u[0] * u[1]), None),
        "trace_spin": ("assign", f.c, lambda: traceSpin(f.g2 * f.g3), None),
        "times_i": ("assign", f.chi, lambda: timesI(psi) + phi, None),
        "axpy": ("assign", f.chi, lambda: 0.7 * psi + phi, None),
        "caxpy": ("assign", f.chi, lambda: (0.3 + 0.4j) * psi - phi, None),
        "gamma5": ("assign", f.chi, lambda: gamma5_const() * psi, None),
        "projector": ("assign", f.chi,
                      lambda: projector_const(0, +1) * (u[0] * psi), None),
        "spin_mat_vec": ("assign", f.chi, lambda: f.g2 * psi, None),
        "color_vec": ("assign", f.cv2, lambda: u[0] * f.cv, None),
        "real_imag": ("assign", f.r2,
                      lambda: real(f.c1) * f.r1 + imag(f.c1), None),
        "conj_mul": ("assign", f.c, lambda: conj(f.c1) * f.c1, None),
        "cube": ("assign", f.r2, lambda: pow_const(f.r1, 3), None),
    }


def zoo_names(smoke: bool) -> tuple[str, ...]:
    if smoke:
        return ZOO_SMOKE
    drawn = random.Random(ZOO_DRAW_SEED).sample(
        ZOO_OPTIONAL, ZOO_SIZE - len(ZOO_REQUIRED))
    return ZOO_REQUIRED + tuple(sorted(drawn))


class ExprZoo(Workload):
    name = "expr_zoo"
    why = ("20 distinct single-statement kernels, each launched once: cold "
           "is almost all build (module-cache hit ratio 0), warm is 20 "
           "cache-hit launches, so kernel-time changes must not move its "
           "cold numbers")
    DIMS = (4, 4, 4, 4)

    _INPUTS = {
        "psi": fermion(), "phi": fermion(),
        "g2": spin_matrix(), "g3": spin_matrix(),
        "cv": color_vector(), "c1": complex_field(), "r1": real_field(),
        "psi32": fermion("f32"), "u32": color_matrix("f32"),
    }
    _DESTS = {
        "chi": fermion(), "chi_even": fermion(), "chi_odd": fermion(),
        "chi32": fermion("f32"), "cm": color_matrix(), "sm": spin_matrix(),
        "c": complex_field(), "r2": real_field(), "cv2": color_vector(),
    }

    def generate(self, seed, smoke):
        dims = (2, 2, 2, 2) if smoke else self.DIMS
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        arrays = {}
        for name, spec in self._INPUTS.items():
            shape = (n,) + spec.shape
            if name == "u32":
                arr = su3.random_su3_near_unit(rng, n, 0.3)
            elif spec.is_complex:
                arr = _gaussian(rng, shape)
            else:
                arr = rng.uniform(0.5, 1.5, size=shape)
            if spec.precision == "f32":
                arr = arr.astype(np.complex64 if spec.is_complex
                                 else np.float32)
            arrays[name] = arr
        return {"dims": dims, "names": zoo_names(smoke),
                "u": _weak_links(rng, n, len(dims), 0.3), "arrays": arrays}

    def bind(self, inp):
        ctx = Context()
        lat = Lattice(inp["dims"])
        f = SimpleNamespace(u=_load_gauge(lat, inp["u"], ctx))
        leaves = {umu.uid: arr for umu, arr in zip(f.u, inp["u"])}
        for name, spec in self._INPUTS.items():
            fld = LatticeField(lat, spec, context=ctx)
            fld.from_numpy(inp["arrays"][name])
            setattr(f, name, fld)
            leaves[fld.uid] = inp["arrays"][name]
        for name, spec in self._DESTS.items():
            setattr(f, name, LatticeField(lat, spec, context=ctx))
        # host-side construction of the packed clover blocks
        f.clov = CloverTerm(f.u, coeff=0.5)
        leaves[f.clov.diag.uid] = f.clov.diag.to_numpy()
        leaves[f.clov.tri.uid] = f.clov.tri.to_numpy()
        pool = _zoo_pool(f)
        return SimpleNamespace(ctx=ctx, fields=f, leaves=leaves,
                               items=[(n, pool[n]) for n in inp["names"]])

    def reset(self, st, inp):
        # a subset assignment leaves the other sites alone: start them
        # from zero every pass
        for name in self._DESTS:
            getattr(st.fields, name).zero()

    _REDUCE = {"norm2": lambda a: norm2(a[0]),
               "inner": lambda a: innerProduct(a[0], a[1]),
               "sum": lambda a: sum_sites(a[0])}

    def run(self, st):
        result = {}
        for name, (kind, dest, build, subset) in st.items:
            if kind == "assign":
                dest.assign(build(), subset=subset)
                # one statement, one kernel: do not let neighbours fuse
                st.ctx.flush()
                # read now: several expressions share a destination
                result[name] = dest.to_numpy().copy()
            else:
                result[name] = np.asarray(self._REDUCE[kind](build()))
        st.ctx.flush()
        return result, {}

    def check(self, inp, st, result, info):
        bad = []
        for name, (kind, dest, build, subset) in st.items:
            if kind == "assign":
                value = oracle.evaluate(oracle.E.as_expr(build()), st.leaves,
                                        inp["dims"])
                want = oracle.assign(
                    np.zeros_like(result[name]), value,
                    None if subset is None else subset.sites,
                    dest.spec.precision)
                tol = oracle.TOLERANCE[dest.spec.precision]
            else:
                values = [oracle.evaluate(oracle.E.as_expr(e), st.leaves,
                                          inp["dims"]) for e in build()]
                want = np.asarray(oracle.reduce(kind, values))
                tol = oracle.TOLERANCE["f64"]
            if not oracle.close(result[name], want, tol):
                bad.append(name)
        return not bad, {"expressions": len(st.items), "mismatched": bad}


# -- one HMC trajectory -------------------------------------------------------

class _FixedWorkTwoFlavor(TwoFlavorWilsonMonomial):
    """The two-flavour Wilson monomial with every solve run for a fixed
    iteration count (``tol=0``) instead of to a tolerance: same physics
    and launch mix, but the work does not depend on the seed."""

    def __init__(self, params, iterations):
        super().__init__(params, tol=0.0, max_iter=iterations)
        self.solves = 0

    def _solve_x(self, u):
        m = self._op(u)
        x = m.new_fermion()
        res = cg(lambda d, s: m.apply_mdagm(d, s), x, self.phi,
                 tol=0.0, max_iter=self.max_iter)
        self.solve_iterations += res.iterations
        self.solves += 1
        return x, m


class HMCTrajectory(Workload):
    name = "hmc_traj"
    why = ("the paper's headline application: one two-level Omelyan "
           "trajectory (two-flavour Wilson + gauge) mixes every launch "
           "family except halo faces, with reductions and solves inside "
           "the forces")
    warm_passes = 3
    DIMS = (2, 4, 4, 4)
    KAPPA = 0.10
    BETA = 5.6
    TAU = 0.05
    CG_ITERATIONS = 6
    GAUGE_STEPS = 1

    def generate(self, seed, smoke):
        dims = (2, 2, 2, 2) if smoke else self.DIMS
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        return {"dims": dims, "u": _weak_links(rng, n, len(dims), 0.2),
                "rng_seed": int(rng.integers(1 << 31)),
                "iterations": 4 if smoke else self.CG_ITERATIONS,
                "gauge_steps": 1 if smoke else self.GAUGE_STEPS}

    def bind(self, inp):
        ctx = Context()
        lat = Lattice(inp["dims"])
        return SimpleNamespace(ctx=ctx, u=_load_gauge(lat, inp["u"], ctx),
                               inp=inp)

    def reset(self, st, inp):
        for umu, arr in zip(st.u, inp["u"]):
            umu.from_numpy(arr)

    def run(self, st):
        fermions = _FixedWorkTwoFlavor(WilsonParams(kappa=self.KAPPA),
                                       st.inp["iterations"])
        levels = [Level([fermions], n_steps=1, scheme="omelyan"),
                  Level([GaugeMonomial(self.BETA)],
                        n_steps=st.inp["gauge_steps"], scheme="omelyan")]
        hmc = HMC(st.u, MultiTimescaleIntegrator(levels),
                  np.random.default_rng(st.inp["rng_seed"]))
        r = hmc.trajectory(self.TAU, always_accept=True)
        st.ctx.flush()
        result = {f"u{mu}": umu.to_numpy().copy()
                  for mu, umu in enumerate(st.u)}
        result["delta_h"] = np.asarray(r.delta_h)
        result["plaquette"] = np.asarray(r.plaquette)
        return result, {"solver_iterations": r.solver_iterations,
                        "solves": fermions.solves}

    def check(self, inp, st, result, info):
        links = [result[f"u{mu}"] for mu in range(len(inp["dims"]))]
        plaq = oracle.plaquette(links, inp["dims"])
        defect = oracle.su3_defect(links)
        dh = float(result["delta_h"])
        # the fixed-iteration hook must really be what ran the solves
        fixed = (info["solves"] > 0 and info["solver_iterations"]
                 == info["solves"] * inp["iterations"])
        ok = (fixed and abs(plaq - float(result["plaquette"])) <= 1e-12
              and defect <= 1e-10 and abs(dh) < 1.0)
        return bool(ok), {"plaquette": plaq, "su3_defect": defect,
                          "delta_h": dh}


# -- memory: page-in / spill on every statement -------------------------------

class SpillSweep(Workload):
    name = "spill_sweep"
    why = ("an axpy ring over 12 fields with room for 6: every statement "
           "pages in and LRU-spills (memory hit ratio 0, the opposite of "
           "the CG workloads), so a hit-path gain that taxes the spill "
           "path shows")
    DIMS = (8, 8, 8, 8)
    FIELDS = 12
    RESIDENT = 6
    SWEEPS = 4

    def generate(self, seed, smoke):
        dims = (2, 2, 2, 4) if smoke else self.DIMS
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        return {"dims": dims, "sweeps": 1 if smoke else self.SWEEPS,
                "fields": [_gaussian(rng, (n, 4, 3))
                           for _ in range(self.FIELDS)],
                "coeffs": [0.05 * (i + 1) for i in range(self.FIELDS)]}

    def bind(self, inp):
        lat = Lattice(inp["dims"])
        nbytes = lat.nsites * fermion().bytes_per_site
        # half a field of slack for alignment; far too little for a 7th
        ctx = Context(pool_capacity=self.RESIDENT * nbytes + nbytes // 2)
        st = SimpleNamespace(ctx=ctx, sweeps=inp["sweeps"],
                             coeffs=inp["coeffs"],
                             f=[latt_fermion(lat, context=ctx)
                                for _ in range(self.FIELDS)])
        return st

    def reset(self, st, inp):
        for fld, arr in zip(st.f, inp["fields"]):
            fld.from_numpy(arr)

    @staticmethod
    def _statement(i, a, b, c):
        """Statement ``i`` of a sweep.  Four shapes in turn, so the ring
        builds four kernels, not one: with a single ~0.1 s build the
        difference cold - warm would be mostly noise."""
        return (a + c * b, a - c * b, c * a + b, c * (a - b))[i % 4]

    def run(self, st):
        n = self.FIELDS
        for _ in range(st.sweeps):
            for i in range(n):
                # operands a third and two thirds of the ring away: by
                # the time a field is touched again, six others have
                # pushed it out, so nothing is ever found resident
                st.f[i].assign(self._statement(
                    i, st.f[(i + n // 3) % n].ref(),
                    st.f[(i + 2 * n // 3) % n].ref(), st.coeffs[i]))
                st.ctx.flush()
        return {f"f{i}": fld.to_numpy().copy()
                for i, fld in enumerate(st.f)}, {}

    def check(self, inp, st, result, info):
        n = self.FIELDS
        ref = [arr.copy() for arr in inp["fields"]]
        for _ in range(inp["sweeps"]):
            for i in range(n):
                ref[i] = self._statement(i, ref[(i + n // 3) % n],
                                         ref[(i + 2 * n // 3) % n],
                                         inp["coeffs"][i])
        ok = all(oracle.close(result[f"f{i}"], ref[i], oracle.TOLERANCE["f64"])
                 for i in range(n))
        return ok, {}


# -- comm: the distributed dslash ---------------------------------------------

class Dslash2Rank(Workload):
    name = "dslash_2rank"
    why = ("the only workload through comm: halo exchange plus face "
           "gather/scatter kernels over a 2-rank virtual machine, and the "
           "one where per-apply cost was seen to grow with the timeline")
    DIMS = (4, 4, 4, 8)
    GRID = (1, 1, 1, 2)
    APPLIES = 6

    def generate(self, seed, smoke):
        dims = (2, 2, 2, 4) if smoke else self.DIMS
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        return {"dims": dims, "applies": 2 if smoke else self.APPLIES,
                "u": _weak_links(rng, n, len(dims), 0.3),
                "psi": _gaussian(rng, (n, 4, 3))}

    def bind(self, inp):
        vm = VirtualMachine(inp["dims"], self.GRID)
        u = [vm.field(color_matrix(), name=f"u{mu}")
             for mu in range(len(inp["dims"]))]
        for umu, arr in zip(u, inp["u"]):
            umu.from_global(arr)
        psi = vm.field(fermion(), name="psi")
        psi.from_global(inp["psi"])
        return SimpleNamespace(vm=vm, psi=psi, applies=inp["applies"],
                               out=vm.field(fermion(), name="chi"),
                               dslash=DistributedWilsonDslash(vm, u))

    def contexts(self, st):
        return list(st.vm.contexts)

    def overlap_fraction(self, st):
        # the machine's collective timeline, not one rank's
        return st.vm.timeline.overlap_fraction

    def reset(self, st, inp):
        for shard in st.out.shards:
            shard.zero()

    def run(self, st):
        for _ in range(st.applies):
            st.dslash.apply(st.out, st.psi, overlap=True)
        for ctx in st.vm.contexts:
            ctx.flush()
        return {"chi": st.out.to_global()}, {}

    def check(self, inp, st, result, info):
        want = oracle.dslash(inp["u"], inp["psi"], inp["dims"], +1)
        return oracle.close(result["chi"], want, oracle.TOLERANCE["f64"]), {}


# -- the registry -------------------------------------------------------------

_CG_SMALL_WHY = ("9 kernels, ~200 launches of 256 sites: per-launch host "
                 "work dominates warm and build dominates cold")

WORKLOADS = {w.name: w for w in (
    FusedCG("cg_small", _CG_SMALL_WHY, (4, 4, 4, 4), 25),
    FusedCG("cg_small_cpu",
            "cg_small under REPRO_BACKEND=cpu: the controlled pair for "
            "'cpu no slower than sim end to end'",
            (4, 4, 4, 4), 25, env={"REPRO_BACKEND": "cpu"}),
    FusedCG("cg_large",
            "the same operator at 8^4: >90% of a warm pass is inside "
            "generated kernel bodies, so a better code generator shows here "
            "and launch-overhead work must show no change",
            (8, 8, 8, 8), 3),
    ExprZoo(),
    HMCTrajectory(),
    SpillSweep(),
    Dslash2Rank(),
)}
