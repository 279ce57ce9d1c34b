"""Tests for fault-plan construction, parsing and determinism."""

import pytest

from repro.faults import (
    FaultPlan,
    FaultPlanError,
    active_plan,
    install_plan,
    parse_plan,
)


class TestSpecGrammar:
    def test_parse_counts_rates_and_seed(self):
        plan = parse_plan("plan:seed=7,launch=2x,h2d=0.25,solver=1x@cg*")
        assert plan.seed == 7
        assert len(plan.specs) == 3
        launch, h2d, solver = plan.specs
        assert (launch.site, launch.kind, launch.count) == \
            ("launch", "transient", 2)
        assert (h2d.site, h2d.rate, h2d.count) == ("h2d", 0.25, None)
        assert (solver.site, solver.kind, solver.match) == \
            ("solver", "corrupt", "cg*")

    def test_bare_site_means_one_shot(self):
        plan = parse_plan("alloc")
        (spec,) = plan.specs
        assert spec.site == "alloc" and spec.count == 1 and spec.rate == 1.0

    def test_plan_prefix_optional(self):
        assert len(parse_plan("launch=1x").specs) == 1
        assert len(parse_plan("plan:launch=1x").specs) == 1

    def test_dotted_sites(self):
        plan = parse_plan("launch.sticky=2x,halo.corrupt=1x,d2h.bitflip=1x")
        assert [(s.site, s.kind) for s in plan.specs] == [
            ("launch", "sticky"), ("halo", "corrupt"), ("d2h", "bitflip")]

    @pytest.mark.parametrize("bad", [
        "nosuchsite=1x", "launch=2y", "h2d=notafloat", "seed=xyz",
        "launch=1.5",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            parse_plan(bad)

    def test_add_validates_site(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultPlan().add("gremlins")

    def test_add_is_chainable(self):
        plan = FaultPlan(seed=3).add("launch", count=1).add("alloc", count=2)
        assert len(plan.specs) == 2


class TestDrawSemantics:
    def test_count_budget_exhausts(self):
        plan = FaultPlan().add("alloc", count=2)
        assert plan.draw("alloc", "oom", "x") is not None
        assert plan.draw("alloc", "oom", "x") is not None
        assert plan.draw("alloc", "oom", "x") is None
        assert plan.counters.injected == 2

    def test_match_glob_filters_targets(self):
        plan = FaultPlan().add("launch", count=5, match="fus_*")
        assert plan.draw("launch", "transient", "eval_k0") is None
        assert plan.draw("launch", "transient", "fus_k1") is not None

    def test_count_mode_consumes_no_rng_state(self):
        """Count-mode specs must not perturb the RNG stream: the bits a
        later corruption flips are independent of how many count-mode
        draws preceded it."""
        a = FaultPlan(seed=11).add("alloc", count=3)
        b = FaultPlan(seed=11).add("alloc", count=3)
        for _ in range(3):
            a.draw("alloc", "oom", "t")
        b.draw("alloc", "oom", "t")
        assert a.rng.integers(1 << 30) == b.rng.integers(1 << 30)

    def test_rate_mode_is_seed_deterministic(self):
        def fire_pattern(seed):
            plan = FaultPlan(seed=seed).add("h2d", rate=0.3)
            return [plan.draw("h2d", "bitflip", "t") is not None
                    for _ in range(64)]

        assert fire_pattern(5) == fire_pattern(5)
        assert fire_pattern(5) != fire_pattern(6)

    def test_recovery_bookkeeping(self):
        plan = FaultPlan().add("launch", count=1)
        event = plan.draw("launch", "transient", "k")
        assert not plan.all_recovered()
        plan.record_recovery(event, "relaunched", retries=2,
                             backoff_s=6e-6)
        assert plan.all_recovered()
        c = plan.counters
        assert (c.injected, c.recovered, c.retries) == (1, 1, 2)
        assert c.backoff_s == pytest.approx(6e-6)
        # recovering twice must not double-count
        plan.record_recovery(event, "again")
        assert plan.counters.recovered == 1


class TestTrace:
    def test_trace_json_shape(self):
        plan = parse_plan("seed=9,alloc=1x")
        event = plan.draw("alloc", "oom", "4096")
        plan.record_recovery(event, "spilled and retried", retries=1)
        doc = plan.trace_json()
        assert doc["seed"] == 9
        assert doc["counters"]["injected"] == 1
        (ev,) = doc["events"]
        assert ev["site"] == "alloc" and ev["recovered"]
        assert ev["recovery"] == "spilled and retried"

    def test_trace_signature_normalizes_field_uids(self):
        a = FaultPlan(seed=1).add("h2d", count=1)
        b = FaultPlan(seed=1).add("h2d", count=1)
        ea = a.draw("h2d", "bitflip", "pagein:f4")
        eb = b.draw("h2d", "bitflip", "pagein:f123")
        a.record_recovery(ea, "retransmitted", retries=1)
        b.record_recovery(eb, "retransmitted", retries=1)
        assert a.trace_signature() == b.trace_signature()


class TestEnvironmentKnob:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plan() is None

    def test_env_plan_parsed_fresh_each_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "plan:seed=3,alloc=1x")
        p1, p2 = active_plan(), active_plan()
        assert p1 is not p2
        assert p1.seed == p2.seed == 3
        assert [s.site for s in p1.specs] == ["alloc"]

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "plan:alloc=1x")
        mine = FaultPlan(seed=99).add("launch", count=1)
        install_plan(mine)
        try:
            assert active_plan() is mine
        finally:
            install_plan(None)

    def test_bad_env_plan_warns_once_and_is_off(self, monkeypatch):
        import warnings

        from repro.faults import plan as plan_mod

        monkeypatch.setenv("REPRO_FAULTS", "plan:bogus-site=1x")
        monkeypatch.setattr(plan_mod, "_warned_bad_specs", set())
        with pytest.warns(RuntimeWarning, match="REPRO_FAULTS"):
            assert active_plan() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert active_plan() is None   # second call: silent

    def test_unparsable_plan_is_named_by_its_resolved_value(
            self, monkeypatch):
        import warnings

        from repro.faults import plan as plan_mod

        monkeypatch.setenv("REPRO_FAULTS", " Plan:Bogus=1 ")
        monkeypatch.setattr(plan_mod, "_warned_bad_specs", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert active_plan() is None and active_plan() is None
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "'plan:bogus=1'" in str(caught[0].message)
