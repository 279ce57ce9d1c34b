"""Tests for the abstract-interpretation engine (ptx/absint.py) and
the verifier passes built on it: proven bounds, coalescing, divergence."""

import pytest

from repro.diagnostics import Severity
from repro.ptx import KernelBuilder, PTXModule, PTXType, PTXVerificationError
from repro.ptx.absint import (
    KernelEnv,
    MemRegion,
    analyze_module,
    ideal_transactions,
    merge_envs,
    table_region,
    transactions_per_warp,
)
from repro.ptx.verifier import run_passes, verify


def _by_pass(diagnostics, name):
    return [d for d in diagnostics if d.pass_name == name]


def _soa_kernel(name="soa", words=3, stride_sites=True):
    """The generators' shape: guard, then word-major SoA accesses
    ``x + (w*nsites + gid) * 8``.  With ``stride_sites=False`` the
    layout is deliberately AoS: ``x + (gid*words + w) * 8`` (site-
    major), whose per-thread stride is ``words*8`` bytes."""
    kb = KernelBuilder(name)
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=oob)
    g64 = kb.cvt(gid, PTXType.S64)
    n64 = kb.cvt(n, PTXType.S64)
    for w in range(words):
        w_imm = kb.imm(w, PTXType.S64)
        if stride_sites:     # SoA: off = (w*n + gid) * 8
            idx = kb.fma(n64, w_imm, g64, PTXType.S64)
        else:                # AoS: off = (gid*words + w) * 8
            idx = kb.fma(g64, kb.imm(words, PTXType.S64), w_imm,
                         PTXType.S64)
        off = kb.mul(idx, kb.imm(8, PTXType.S64))
        addr = kb.add(x, kb.cvt(off, PTXType.U64))
        v = kb.ld_global(addr, PTXType.F64)
        kb.st_global(addr, kb.mul(v, kb.imm(2.0, PTXType.F64)),
                     PTXType.F64)
    kb.label(exit_lbl)
    kb.ret()
    return PTXModule.from_builder(kb)


def _env(n=4096, words=3):
    return KernelEnv(scalars={"p_n": n},
                     regions={"p_x": MemRegion("p_x", n * words * 8)})


class TestIntervalAffine:
    def test_guarded_soa_kernel_is_proven_in_bounds(self):
        analysis = analyze_module(_soa_kernel(), env=_env())
        assert analysis.accesses, "kernel has global accesses"
        assert analysis.bounds_proven
        assert analysis.n_heuristic == 0
        assert all(a.verdict == "proven" for a in analysis.accesses)

    def test_offsets_are_exact(self):
        n, words = 4096, 3
        analysis = analyze_module(_soa_kernel(words=words),
                                  env=_env(n, words))
        los = sorted({a.offset[0] for a in analysis.accesses})
        his = sorted({a.offset[1] for a in analysis.accesses})
        assert los == [w * n * 8 for w in range(words)]
        assert his == [(w * n + n - 1) * 8 for w in range(words)]

    def test_without_env_falls_back_to_heuristic(self):
        analysis = analyze_module(_soa_kernel())
        assert not analysis.bounds_proven
        assert all(a.verdict == "guarded" for a in analysis.accesses)
        # ... which produces no diagnostics, like the old bounds pass
        assert not _by_pass(run_passes(_soa_kernel()), "proven-bounds")

    def test_unguarded_access_warns(self):
        kb = KernelBuilder("nog")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        kb.ld_global(x, PTXType.F64)
        kb.ret()
        module = PTXModule.from_builder(kb)
        found = _by_pass(run_passes(module), "proven-bounds")
        assert len(found) == 1 and found[0].severity == Severity.WARNING

    def test_proven_oob_is_an_error(self):
        """Offset interval entirely past the region end: every
        executing thread is out of bounds."""
        kb = KernelBuilder("oob")
        pn = kb.add_param("p_n", PTXType.S32)
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        x = kb.ld_param(px)
        gid = kb.global_thread_id()
        oob = kb.setp("ge", gid, n)
        lbl = kb.new_label("EXIT")
        kb.bra(lbl, guard=oob)
        # off = (gid + n) * 8 — one whole region past the valid slot
        idx = kb.add(kb.cvt(gid, PTXType.S64), kb.cvt(n, PTXType.S64))
        off = kb.mul(idx, kb.imm(8, PTXType.S64))
        addr = kb.add(x, kb.cvt(off, PTXType.U64))
        kb.st_global(addr, kb.imm(0.0, PTXType.F64), PTXType.F64)
        kb.label(lbl)
        kb.ret()
        module = PTXModule.from_builder(kb)
        env = KernelEnv(scalars={"p_n": 1024},
                        regions={"p_x": MemRegion("p_x", 1024 * 8)})
        found = _by_pass(run_passes(module, env=env), "proven-bounds")
        assert len(found) == 1 and found[0].severity == Severity.ERROR
        assert "proven out-of-bounds" in found[0].message
        with pytest.raises(PTXVerificationError, match="out-of-bounds"):
            verify(module, env=env)

    def test_gather_table_bounds_via_content_range(self):
        """An indirect access is proven by the table's content range:
        field[table[gid]] with table values in [0, n-1]."""
        kb = KernelBuilder("gather")
        pn = kb.add_param("p_n", PTXType.S32)
        pt = kb.add_param("p_t", PTXType.U64, is_pointer=True)
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        t = kb.ld_param(pt)
        x = kb.ld_param(px)
        gid = kb.global_thread_id()
        oob = kb.setp("ge", gid, n)
        lbl = kb.new_label("EXIT")
        kb.bra(lbl, guard=oob)
        toff = kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(4, PTXType.S64))
        site = kb.ld_global(kb.add(t, kb.cvt(toff, PTXType.U64)),
                            PTXType.S32)
        off = kb.mul(kb.cvt(site, PTXType.S64), kb.imm(8, PTXType.S64))
        kb.st_global(kb.add(x, kb.cvt(off, PTXType.U64)),
                     kb.imm(1.0, PTXType.F64), PTXType.F64)
        kb.label(lbl)
        kb.ret()
        module = PTXModule.from_builder(kb)
        n_sites = 256
        env = KernelEnv(
            scalars={"p_n": n_sites},
            regions={"p_t": table_region("p_t", list(range(n_sites))),
                     "p_x": MemRegion("p_x", n_sites * 8)})
        analysis = analyze_module(module, env=env)
        assert analysis.bounds_proven
        # unit-stride table -> the gathered access is coalesced
        assert analysis.fully_coalesced


class TestCoalescing:
    def test_soa_layout_is_fully_coalesced(self):
        analysis = analyze_module(_soa_kernel(), env=_env())
        assert analysis.fully_coalesced
        # f64 stride-1: 32 threads * 8 B = 2 segments of 128 B
        assert all(a.transactions == 2.0 for a in analysis.accesses)
        assert analysis.memory_efficiency == 1.0
        assert not _by_pass(run_passes(_soa_kernel(), env=_env()),
                            "coalescing")

    def test_aos_layout_is_flagged_uncoalesced(self):
        module = _soa_kernel("aos", stride_sites=False)
        analysis = analyze_module(module, env=_env())
        assert not analysis.fully_coalesced
        assert all(a.transactions > 1.0 for a in analysis.accesses)
        assert all(a.stride_bytes == 3 * 8 for a in analysis.accesses)
        # span model: 31*24 + 8 = 752 B -> 6 segments per warp
        assert all(a.transactions == 6.0 for a in analysis.accesses)
        assert analysis.memory_efficiency < 1.0
        found = _by_pass(run_passes(module, env=_env()), "coalescing")
        assert found and all(d.severity == Severity.WARNING for d in found)
        assert "uncoalesced" in found[0].message

    def test_uniform_access_is_one_transaction(self):
        kb = KernelBuilder("bcast")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        kb.ld_global(x, PTXType.F64)   # same address in every thread
        kb.ret()
        analysis = analyze_module(
            PTXModule.from_builder(kb),
            env=KernelEnv(regions={"p_x": MemRegion("p_x", 8)}))
        (a,) = analysis.accesses
        assert a.uniform and a.transactions == 1.0

    def test_transaction_model(self):
        assert transactions_per_warp(0.0, 8) == 1.0       # broadcast
        assert transactions_per_warp(8, 8) == 2.0         # f64 unit
        assert transactions_per_warp(4, 4) == 1.0         # f32 unit
        assert transactions_per_warp(256, 8) == 32.0      # worst case
        assert transactions_per_warp(None, 8) is None     # unknown
        assert ideal_transactions(8) == 2
        assert ideal_transactions(4) == 1


class TestDivergence:
    def _varying_branch(self):
        """Branch on a thread-varying predicate where *both* sides do
        real work — genuine warp divergence."""
        kb = KernelBuilder("div")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        gid = kb.global_thread_id()
        p = kb.setp("lt", gid, kb.imm(16, PTXType.S32))
        other = kb.new_label("OTHER")
        done = kb.new_label("DONE")
        kb.bra(other, guard=p)
        kb.st_global(x, kb.imm(1.0, PTXType.F64), PTXType.F64)
        kb.bra(done)
        kb.label(other)
        kb.st_global(x, kb.imm(2.0, PTXType.F64), PTXType.F64)
        kb.label(done)
        kb.ret()
        return PTXModule.from_builder(kb)

    def test_thread_varying_branch_is_flagged(self):
        module = self._varying_branch()
        analysis = analyze_module(module)
        assert analysis.divergent_branches
        found = _by_pass(run_passes(module), "divergence")
        assert found and found[0].severity == Severity.WARNING
        assert "thread-varying" in found[0].message

    def test_bounds_early_exit_is_benign(self):
        """The generators' ``@oob bra EXIT`` early-exit diverges only
        in the last warp and does no work — not flagged."""
        module = _soa_kernel()
        analysis = analyze_module(module)
        assert all(b.benign_exit for b in analysis.branches
                   if not b.uniform)
        assert not _by_pass(run_passes(module), "divergence")

    def test_uniform_branch_is_not_flagged(self):
        kb = KernelBuilder("uni")
        pn = kb.add_param("p_n", PTXType.S32)
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        x = kb.ld_param(px)
        p = kb.setp("lt", n, kb.imm(16, PTXType.S32))   # uniform: param
        other = kb.new_label("OTHER")
        done = kb.new_label("DONE")
        kb.bra(other, guard=p)
        kb.st_global(x, kb.imm(1.0, PTXType.F64), PTXType.F64)
        kb.bra(done)
        kb.label(other)
        kb.st_global(x, kb.imm(2.0, PTXType.F64), PTXType.F64)
        kb.label(done)
        kb.ret()
        module = PTXModule.from_builder(kb)
        analysis = analyze_module(module)
        assert not analysis.divergent_branches
        assert not _by_pass(run_passes(module), "divergence")


_POINTER_LOOP = """
.version 3.1
.target sm_35
.address_size 64

.visible .entry loopk(
    .param .u64 .ptr .global p
)
{
    .reg .f64 %fd<2>;
    .reg .u64 %ru<2>;
    .reg .s32 %r<2>;
    .reg .pred %p<2>;

    ld.param.u64 %ru1, [p];
    mov.s32 %r1, 0;
$LOOP:
    ld.global.f64 %fd1, [%ru1];
    add.u64 %ru1, %ru1, 8;
    add.s32 %r1, %r1, 1;
    setp.lt.s32 %p1, %r1, 1000;
    @%p1 bra $LOOP;
    ret;
}
"""


class TestLoopWidening:
    """A pointer bumped once per trip never settles under plain
    iteration (nothing relates it to the trip counter): the fixpoint
    loop must widen it, not read a verdict off the round it gave up
    in.  True offsets: 0 ... 7992."""

    def _access(self, region_bytes):
        from repro.driver.parser import parse_ptx
        from repro.ptx.isa import KernelInfo

        parsed = parse_ptx(_POINTER_LOOP)
        module = PTXModule(info=KernelInfo(name=parsed.name,
                                           params=list(parsed.params)),
                           instructions=list(parsed.instructions))
        env = KernelEnv(regions={"p": MemRegion("p", region_bytes)})
        (access,) = analyze_module(module, env=env).accesses
        # whatever range is still claimed has to hold every trip's offset
        assert access.offset is None or (access.offset[0] <= 0
                                         and access.offset[1] >= 7992)
        return access

    def test_overrun_is_not_proven_from_a_partial_range(self):
        assert self._access(600).verdict != "proven"   # overruns at trip 75

    def test_exact_fit_is_not_claimed_from_a_partial_range(self):
        # in bounds, but not by anything the analysis established
        assert self._access(8000).verdict != "proven"


class TestEnvs:
    def test_merge_envs_widens(self):
        a = KernelEnv(scalars={"p_n": 64},
                      regions={"p_x": MemRegion("p_x", 512,
                                                (0, 63), 1)})
        b = KernelEnv(scalars={"p_n": 128},
                      regions={"p_x": MemRegion("p_x", 1024,
                                                (0, 127), 2)})
        m = merge_envs(a, b)
        assert m.scalar_range("p_n") == (64.0, 128.0)
        r = m.regions["p_x"]
        assert r.size_bytes == 512          # guaranteed minimum
        assert r.elem_range == (0, 127)
        assert r.elem_stride is None        # strides disagree

    def test_merge_identical_is_identity(self):
        e = _env()
        assert merge_envs(e, e) == e

    def test_table_region_measures_bulk_stride(self):
        r = table_region("t", [5, 6, 7, 8, 9])
        assert r.elem_range == (5, 9) and r.elem_stride == 1
        r2 = table_region("t", [0, 2, 4, 6])
        assert r2.elem_stride == 2
        # wrap-around shift map: one deviating entry, bulk stride 1
        r3 = table_region("t", [1, 2, 3, 0])
        assert r3.elem_stride == 1 and r3.elem_range == (0, 3)

    def test_generic_env_has_unknown_pointer_regions(self):
        module = _soa_kernel()
        env = KernelEnv.generic(module.info.params)
        assert env.regions["p_x"].size_bytes is None
        assert "p_n" not in env.scalars
