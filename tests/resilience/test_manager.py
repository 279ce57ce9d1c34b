"""Integration tests for rank-level fault tolerance on the comm VM.

The contract under test (ISSUE: resilience tentpole):

* ``REPRO_RESILIENCE=off`` (or no manager) is bitwise invisible;
* ``detect`` surfaces a kill as a typed :class:`RankFailureError` at
  the exchange barrier where the halo never arrives;
* ``recover`` + buddy restores the dead rank bitwise from its
  in-memory checkpoint; ``recover`` + shrink finishes on fewer ranks
  with the same numbers;
* the whole schedule is a pure function of (seed, workload):
  same-seed replays produce identical ``trace_signature``s.
"""

import numpy as np
import pytest

from repro.comm import HaloMismatchError, VirtualMachine
from repro.faults import FaultPlan
from repro.qdp.typesys import fermion
from repro.resilience import RankFailureError

DIMS = (4, 4, 4, 8)
GRID = (1, 1, 1, 2)


def _run(faults=False, resilience=False, policy="buddy", sweeps=3):
    """A 2-rank boundary-crossing shift sweep; returns (vm, result)."""
    vm = VirtualMachine(DIMS, GRID, faults=faults,
                        resilience=resilience, recover_policy=policy)
    g = vm.global_lattice
    rng = np.random.default_rng(5)
    f = vm.field(fermion(), "psi")
    f.from_global(rng.normal(size=(g.nsites, 4, 3))
                  + 1j * rng.normal(size=(g.nsites, 4, 3)))
    d = vm.field(fermion(), "chi")
    for s in range(sweeps):
        vm.shift_into(d, f, s % 4, +1)
        f, d = d, f
    return vm, f.to_global()


def _kill_plan(seed=7, match="rank1:*", count=1):
    return FaultPlan(seed=seed).add("rank.kill", count=count,
                                    match=match)


class TestOffPath:
    def test_no_manager_by_default(self):
        vm = VirtualMachine(DIMS, GRID)
        assert vm.resilience is None

    def test_off_runs_are_bitwise_identical(self):
        vm0, a = _run()
        vm1, b = _run()
        assert np.array_equal(a, b)
        assert (max(c.device.clock for c in vm0.contexts)
                == max(c.device.clock for c in vm1.contexts))

    def test_recover_mode_without_faults_is_invisible(self):
        """An armed manager with nothing to inject changes nothing:
        results and modeled clocks match the bare machine bitwise."""
        vm0, base = _run()
        vm1, got = _run(resilience="recover")
        assert np.array_equal(got, base)
        assert (max(c.device.clock for c in vm1.contexts)
                == max(c.device.clock for c in vm0.contexts))
        assert vm1.resilience.stats.checkpoints == 0

    def test_faults_false_ignores_an_installed_plan(self):
        """``faults=False`` opts a machine out of chaos explicitly: a
        process-wide installed plan must not reach its ranks."""
        from repro.faults import install_plan

        install_plan(_kill_plan())
        try:
            vm, got = _run(faults=False, resilience="recover")
        finally:
            install_plan(None)
        assert vm.resilience.stats.kills_injected == 0
        assert np.array_equal(got, _run()[1])

    def test_env_knob_arms_the_manager(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "recover")
        vm = VirtualMachine(DIMS, GRID)
        assert vm.resilience is not None
        assert vm.resilience.mode == "recover"

    def test_bad_env_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "bogus-mode-xyz")
        with pytest.warns(RuntimeWarning, match="REPRO_RESILIENCE"):
            vm = VirtualMachine(DIMS, GRID)
        assert vm.resilience is None

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            VirtualMachine(DIMS, GRID, resilience="recover",
                           recover_policy="hope")


class TestDetect:
    def test_kill_raises_typed_error(self):
        plan = _kill_plan()
        with pytest.raises(RankFailureError) as exc:
            _run(faults=plan, resilience="detect")
        e = exc.value
        assert e.rank == 1
        assert e.nranks == 2
        assert "halo never arrived" in str(e)
        d = e.diagnostic
        assert d.pass_name == "rank-failure"
        assert "rank 1" in d.message
        assert "error" in d.render().lower()

    def test_detection_is_counted(self):
        plan = _kill_plan()
        vm = VirtualMachine(DIMS, GRID, faults=plan,
                            resilience="detect")
        g = vm.global_lattice
        f = vm.field(fermion(), "psi")
        f.from_global(np.zeros((g.nsites, 4, 3), dtype=complex))
        d = vm.field(fermion(), "chi")
        with pytest.raises(RankFailureError):
            vm.shift_into(d, f, 0, +1)
        assert vm.resilience.stats.kills_injected == 1
        assert vm.resilience.stats.detections == 1


class TestBuddyRecovery:
    def test_kill_recovered_bitwise(self):
        _, clean = _run()
        plan = _kill_plan()
        vm, got = _run(faults=plan, resilience="recover")
        assert np.array_equal(got, clean)
        assert plan.all_recovered()
        rz = vm.resilience.as_json()
        assert rz["kills_injected"] == 1
        assert rz["recoveries_by_policy"] == {"buddy": 1}
        assert rz["restored_payloads"] > 0
        assert rz["recovery_modeled_s"] > 0

    def test_recovery_cost_lands_on_the_fault_lane(self):
        plan = _kill_plan()
        vm, _ = _run(faults=plan, resilience="recover")
        assert vm.timeline.lane_busy().get("fault", 0.0) > 0

    def test_two_kills_recovered_bitwise(self):
        """A second kill restores from the post-recovery checkpoint
        refresh — the spare rank is itself protected."""
        _, clean = _run()
        plan = _kill_plan(count=2)
        vm, got = _run(faults=plan, resilience="recover")
        assert np.array_equal(got, clean)
        assert vm.resilience.stats.kills_injected == 2
        assert vm.resilience.stats.recoveries_by_policy == {"buddy": 2}
        assert plan.all_recovered()

    def test_same_seed_replays_identical_trace(self):
        plan = _kill_plan()
        _run(faults=plan, resilience="recover")
        replay = _kill_plan()
        _run(faults=replay, resilience="recover")
        assert plan.trace_signature() == replay.trace_signature()

    def test_different_seed_changes_nothing_for_count_specs(self):
        """Count-mode rank kills are a pure function of the workload:
        the seed seasons rate draws, not exhaustion order."""
        a = _kill_plan(seed=7)
        _run(faults=a, resilience="recover")
        b = _kill_plan(seed=8)
        _run(faults=b, resilience="recover")
        assert a.counters.injected == b.counters.injected == 1


class TestShrinkRecovery:
    def test_kill_shrinks_and_matches(self):
        _, clean = _run()
        plan = _kill_plan(match="rank0:*")
        vm, got = _run(faults=plan, resilience="recover",
                       policy="shrink")
        assert vm.nranks == 1
        assert np.allclose(got, clean, rtol=1e-12, atol=1e-14)
        assert plan.all_recovered()
        assert vm.resilience.stats.recoveries_by_policy \
            == {"shrink": 1}

    def test_stale_exchange_rejected_after_shrink(self):
        """An ExchangeResult captured before the machine shrank must
        be refused with a typed, diagnosable error — its buffers
        describe ranks that no longer exist."""
        plan = _kill_plan(match="rank0:0*")
        vm = VirtualMachine(DIMS, GRID, faults=plan,
                            resilience="recover",
                            recover_policy="shrink")
        g = vm.global_lattice
        rng = np.random.default_rng(5)
        f = vm.field(fermion(), "psi")
        f.from_global(rng.normal(size=(g.nsites, 4, 3))
                      + 1j * rng.normal(size=(g.nsites, 4, 3)))
        d = vm.field(fermion(), "chi")
        ex = vm.exchange(f, 3, +1)       # no kill here (mu=3)
        vm.shift_into(d, f, 0, +1)       # kill fires -> shrink to 1
        assert vm.nranks == 1
        with pytest.raises(HaloMismatchError) as exc:
            vm.scatter_halo(d, ex)
        assert "shrink" in str(exc.value)
        assert exc.value.diagnostic.pass_name == "halo-exchange"


class TestStragglers:
    def test_straggler_flagged_and_absorbed(self):
        _, clean = _run()
        plan = FaultPlan(seed=11).add("rank.straggler", count=1,
                                      match="rank1:*")
        vm, got = _run(faults=plan, resilience="recover")
        rz = vm.resilience.as_json()
        assert rz["stragglers_injected"] == 1
        assert rz["stragglers_flagged"] == 1
        assert np.array_equal(got, clean)
        assert plan.all_recovered()
        assert vm.timeline.lane_busy().get("fault", 0.0) > 0

    def test_detect_mode_flags_without_charging(self):
        plan = FaultPlan(seed=11).add("rank.straggler", count=1,
                                      match="rank1:*")
        vm, _ = _run(faults=plan, resilience="detect")
        assert vm.resilience.stats.stragglers_flagged == 1
        assert vm.resilience.stats.recovery_modeled_s == 0.0


class TestHaloMismatch:
    def test_foreign_field_exchange_rejected(self):
        vm_a = VirtualMachine(DIMS, GRID)
        vm_b = VirtualMachine(DIMS, GRID)
        f = vm_b.field(fermion(), "psi")
        with pytest.raises(HaloMismatchError) as exc:
            vm_a.exchange(f, 3, +1)
        assert exc.value.mu == 3
        assert exc.value.diagnostic.pass_name == "halo-exchange"

    def test_foreign_field_scatter_rejected(self):
        vm_a = VirtualMachine(DIMS, GRID)
        vm_b = VirtualMachine(DIMS, GRID)
        g = vm_a.global_lattice
        f = vm_a.field(fermion(), "psi")
        f.from_global(np.zeros((g.nsites, 4, 3), dtype=complex))
        ex = vm_a.exchange(f, 3, +1)
        other = vm_b.field(fermion(), "chi")
        with pytest.raises(HaloMismatchError):
            vm_a.scatter_halo(other, ex)
