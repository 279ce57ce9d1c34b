"""Tests for the per-kernel block-size auto-tuner (paper Sec. VII)."""

import numpy as np
import pytest

from repro.device import Autotuner, Device, Phase
from repro.driver import compile_ptx
from repro.ptx import KernelBuilder, PTXModule, PTXType


def _streaming_kernel(name="tune_me"):
    kb = KernelBuilder(name)
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    done = kb.new_label("DONE")
    kb.bra(done, guard=oob)
    off = kb.cvt(kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(8, PTXType.S64)),
                 PTXType.U64)
    addr = kb.add(x, off)
    v = kb.ld_global(addr, PTXType.F64)
    kb.st_global(addr, kb.mul(v, kb.imm(2.0, PTXType.F64)), PTXType.F64)
    kb.label(done)
    kb.ret()
    return PTXModule.from_builder(kb)


@pytest.fixture()
def launch_env():
    dev = Device()
    module = _streaming_kernel()
    compiled = compile_ptx(module.render())
    n = 32768
    addr = dev.mem_alloc(n * 8)
    dev.memcpy_htod(addr, np.ones(n))
    params = {"p_n": n, "p_x": addr}
    return dev, module, compiled, params, n


class TestAutotuner:
    def test_starts_at_max_block(self, launch_env):
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        st = tuner.state(compiled.name)
        assert st.next_block == dev.spec.max_threads_per_block

    def test_probes_down_and_settles(self, launch_env):
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        for _ in range(12):
            tuner.launch(compiled, module.info, params, n, "f64")
        st = tuner.state(compiled.name)
        assert st.phase is Phase.TUNED
        # paper: streaming kernels saturate at >= 128 on Kepler
        assert st.best_block >= 128

    def test_no_extra_launches_for_tuning(self, launch_env):
        """Paper: 'No kernels are launched solely for the purpose of
        tuning' — N requested launches = N device launches."""
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        for _ in range(8):
            tuner.launch(compiled, module.info, params, n, "f64")
        assert dev.stats.kernel_launches == 8

    def test_tuned_block_is_argmin(self, launch_env):
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        for _ in range(12):
            tuner.launch(compiled, module.info, params, n, "f64")
        st = tuner.state(compiled.name)
        best_seen = min(t for _, t in st.history)
        times_at_best = [t for b, t in st.history if b == st.best_block]
        assert min(times_at_best) == best_seen

    def test_history_records_the_probe_only(self, launch_env):
        """The launch path of a tuned kernel keeps no per-launch
        record: ``history`` stops growing when probing ends."""
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        st = tuner.state(compiled.name)
        while st.phase is not Phase.TUNED:
            tuner.launch(compiled, module.info, params, n, "f64")
        probes = len(st.history)
        assert probes == st.launches
        for _ in range(1000):
            tuner.launch(compiled, module.info, params, n, "f64")
        assert len(st.history) == probes
        assert st.launches == probes + 1000

    def _fat_kernel_env(self):
        dev = Device()
        module = _streaming_kernel("fat_kernel")
        compiled = compile_ptx(module.render())
        # pretend the kernel needs 160 regs/thread:
        # 1024*160 and 512*160 exceed 64k; 256*160 = 40960 fits
        compiled.regs_per_thread = 160
        n = 4096
        addr = dev.mem_alloc(n * 8)
        dev.memcpy_htod(addr, np.ones(n))
        params = {"p_n": n, "p_x": addr}
        return dev, module, compiled, params, n

    def test_halves_on_launch_failure(self):
        """With the static seed disabled (state created before the
        register pressure is known), a register-hungry kernel cannot
        launch at 1024; the tuner must halve until it fits, still on
        payload launches — the paper's original safety net."""
        dev, module, compiled, params, n = self._fat_kernel_env()
        tuner = Autotuner(dev)
        tuner.state(compiled.name)   # seeds at device max: regs unknown
        tuner.launch(compiled, module.info, params, n, "f64")
        st = tuner.state(compiled.name)
        assert st.failures >= 1
        assert max(b for b, _ in st.history) <= 256
        assert dev.stats.launch_failures >= 1

    def test_static_seed_skips_unlaunchable_blocks(self):
        """The static occupancy bound starts the probe at the first
        block size the register file admits: no failed launches."""
        from repro.device.autotune import static_block_seed

        dev, module, compiled, params, n = self._fat_kernel_env()
        seed = static_block_seed(dev.spec, compiled.regs_per_thread)
        assert seed == 256                      # provably below 1024
        tuner = Autotuner(dev)
        tuner.launch(compiled, module.info, params, n, "f64")
        st = tuner.state(compiled.name)
        assert st.failures == 0
        assert dev.stats.launch_failures == 0
        assert max(b for b, _ in st.history) == 256

    def test_static_seed_beats_halving_baseline(self):
        """Fewer tuning launch attempts than halving-from-1024."""
        def attempts_to_first_success(pre_seed_without_regs):
            dev, module, compiled, params, n = self._fat_kernel_env()
            tuner = Autotuner(dev)
            if pre_seed_without_regs:
                tuner.state(compiled.name)
            tuner.launch(compiled, module.info, params, n, "f64")
            return dev.stats.kernel_launches + dev.stats.launch_failures

        baseline = attempts_to_first_success(True)    # 1024, 512, 256
        seeded = attempts_to_first_success(False)     # 256 directly
        assert seeded < baseline
        assert seeded == 1 and baseline == 3

    def test_static_seed_unconstrained_kernel_starts_at_max(self):
        from repro.device.autotune import static_block_seed

        dev = Device()
        assert static_block_seed(dev.spec, 32) == \
            dev.spec.max_threads_per_block
        assert static_block_seed(dev.spec, None) == \
            dev.spec.max_threads_per_block

    def test_results_correct_during_tuning(self, launch_env):
        dev, module, compiled, params, n = launch_env
        tuner = Autotuner(dev)
        for _ in range(10):
            tuner.launch(compiled, module.info, params, n, "f64")
        out = dev.memcpy_dtoh(params["p_x"], n * 8, np.float64)
        assert np.allclose(out, 2.0 ** 10)

    def test_independent_kernels_tuned_independently(self, launch_env):
        dev, module, compiled, params, n = launch_env
        other_mod = _streaming_kernel("other")
        other = compile_ptx(other_mod.render())
        tuner = Autotuner(dev)
        tuner.launch(compiled, module.info, params, n, "f64")
        assert "other" not in tuner.states
        tuner.launch(other, other_mod.info, params, n, "f64")
        assert set(tuner.states) == {"tune_me", "other"}
