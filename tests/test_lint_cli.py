"""In-process tests of the ``python -m repro.lint`` CLI."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.diagnostics import fusion_mode
from repro.lint import main


@pytest.fixture(scope="module")
def run(ctx):
    """One CLI run over the suite on a tiny lattice (kernels are
    lattice-size independent, so 2^4 keeps field setup cheap)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(["--lattice", "2,2,2,2"])
    return status, buf.getvalue()


@pytest.fixture(scope="module")
def run_json(ctx):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(["--lattice", "2,2,2,2", "--json"])
    return status, json.loads(buf.getvalue())


class TestCLI:
    def test_exit_status_clean(self, run):
        status, _ = run
        assert status == 0

    def test_reports_every_pass_name(self, run):
        _, out = run
        for name in ("operands", "definite-assignment", "unreachable-code",
                     "return-paths", "proven-bounds"):
            assert name in out
        for name in ("shift-alias", "shift-antiparallel",
                     "lattice-conformance", "shift-materialization"):
            assert name in out

    def test_covers_the_kernel_families(self, run):
        _, out = run
        # fused statement groups (dslash, clover), or the same
        # statements built one by one under REPRO_FUSION=off
        assert ("fus_" if fusion_mode() == "on" else "eval_") in out
        assert "red_" in out           # reduction kernels
        assert "gather_w" in out       # face copies
        assert "scatter_w" in out

    def test_reports_cache_and_fusion_stats(self, run):
        _, out = run
        assert "module cache:" in out
        assert "fused group(s)" in out
        assert "field cache:" in out

    def test_reports_runtime_timeline(self, run):
        _, out = run
        assert "-- runtime" in out
        assert "makespan" in out
        assert "critical path" in out

    def test_reports_backend_dispatch(self, run):
        _, out = run
        assert "-- backends (REPRO_BACKEND=" in out
        assert "kernel(s) built" in out
        assert "measured kernel wall-clock" in out

    def test_dslash_stencil_findings_surface(self, run):
        _, out = run
        assert "shift-antiparallel" in out
        assert "ok:" in out

    def test_reports_per_kernel_facts(self, run):
        _, out = run
        assert "bounds proven" in out
        assert "tx/warp" in out
        assert "block seed" in out

    def test_bad_lattice_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--lattice", "nope"])
        assert exc.value.code == 2   # argparse usage-error convention


class TestJSON:
    def test_exit_status_and_schema_version(self, run_json):
        status, report = run_json
        assert status == 0
        assert report["schema_version"] == 11
        # v10 dropped the canned serving/resilience mini-runs
        assert set(report) == {
            "schema_version", "lattice", "passes", "ast_passes", "kernels",
            "ast_findings", "module_cache", "fusion", "runtime", "cache",
            "faults", "backend", "ir", "summary"}
        assert report["summary"]["status"] == "ok"
        assert report["summary"]["errors"] == 0
        assert report["summary"]["kernels"] == len(report["kernels"])

    def test_runtime_block(self, run_json):
        _, report = run_json
        rt = report["runtime"]
        # v11 dropped "streams": there is one runtime mode
        assert set(rt) == {"elapsed_s", "serial_s", "overlap_fraction",
                           "critical_path_s", "lane_busy_s"}
        assert rt["elapsed_s"] > 0
        assert rt["elapsed_s"] <= rt["serial_s"]
        assert 0.0 <= rt["overlap_fraction"] < 1.0
        assert rt["critical_path_s"] <= rt["elapsed_s"]
        assert sum(rt["lane_busy_s"].values()) == pytest.approx(
            rt["serial_s"])

    def test_ir_block(self, run_json):
        """Every suite kernel gets an SSA structural check."""
        _, report = run_json
        ir = report["ir"]
        assert set(ir) == {"modules_verified"}
        assert ir["modules_verified"] == report["summary"]["kernels"]

    def test_faults_block(self, run_json):
        """Without REPRO_FAULTS, the faults block reports mode=off and
        all-zero counters (the lint suite injects nothing)."""
        _, report = run_json
        faults = report["faults"]
        assert set(faults) == {"mode", "injected", "recovered", "retries",
                               "backoff_s", "solver_restarts"}
        assert faults["mode"] == "off"
        assert faults["injected"] == 0
        assert faults["recovered"] == 0
        assert faults["retries"] == 0
        assert faults["backoff_s"] == 0.0
        assert faults["solver_restarts"] == 0

    def test_backend_block(self, run_json):
        """The backend block reports the dispatch mode, per-backend
        build/launch counters and measured wall-clock per family."""
        _, report = run_json
        be = report["backend"]
        assert set(be) == {"mode", "kernels", "compile_seconds",
                           "launches", "fallbacks", "fallback_kernels",
                           "wall_s_by_family"}
        # only the selected backend is built (no fallbacks, below)
        assert set(be["kernels"]) == {be["mode"]}
        assert be["fallbacks"] == 0              # whole suite transpiles
        assert be["fallback_kernels"] == {}
        assert sum(be["launches"].values()) > 0
        assert all(v >= 0 for v in be["wall_s_by_family"].values())

    def test_cache_block(self, run_json):
        _, report = run_json
        cache = report["cache"]
        assert cache["misses"] > 0          # the suite uploaded fields
        assert cache["page_ins"] > 0
        assert cache["resident_bytes_hwm"] > 0
        assert cache["hits"] >= 0 and cache["spills"] >= 0

    def test_module_cache_and_fusion_stats(self, run_json):
        _, report = run_json
        mc = report["module_cache"]
        assert mc["misses"] > 0          # the suite compiled something
        assert mc["hits"] >= 0
        fus = report["fusion"]
        if fusion_mode() == "on":
            assert fus["groups"] > 0     # the suite fused something
            assert fus["fused_statements"] > fus["groups"]
        else:
            assert fus["groups"] == 0

    def test_kernel_records_have_the_documented_shape(self, run_json):
        _, report = run_json
        for k in report["kernels"]:
            assert set(k) == {"name", "instructions", "regs_per_thread",
                              "static_block_seed", "bounds", "coalescing",
                              "divergence", "diagnostics"}
            assert set(k["bounds"]) == {"verdicts", "proven",
                                        "heuristic_fallbacks"}
            assert set(k["coalescing"]) == {
                "transactions_per_warp", "ideal_transactions_per_warp",
                "memory_efficiency", "fully_coalesced"}
            assert set(k["divergence"]) == {"branches", "divergent"}

    def test_whole_suite_proven_and_coalesced(self, run_json):
        """The tentpole's acceptance bar: with the recorded launch
        envs, every generated kernel is *proven* in-bounds (no
        heuristic fallbacks) and fully coalesced."""
        _, report = run_json
        for k in report["kernels"]:
            assert k["bounds"]["proven"], k["name"]
            assert k["bounds"]["heuristic_fallbacks"] == 0, k["name"]
            assert set(k["bounds"]["verdicts"]) == {"proven"}, k["name"]
            assert k["coalescing"]["fully_coalesced"], k["name"]
            assert k["coalescing"]["memory_efficiency"] == 1.0
            assert k["divergence"]["divergent"] == 0

    def test_high_pressure_kernel_seeds_below_max(self, run_json):
        """At least one real generated kernel is register-bound: its
        auto-tuner starting block is provably below the device max."""
        _, report = run_json
        seeds = {k["name"]: k["static_block_seed"]
                 for k in report["kernels"]}
        assert any(s < 1024 for s in seeds.values()), seeds
        assert all(s >= 32 for s in seeds.values())

    def test_json_output_is_pure(self, ctx):
        """--json prints a single parseable document, nothing else."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(["--lattice", "2,2,2,2", "--json"])
        json.loads(buf.getvalue())

    def test_stale_knob_is_announced_and_output_stays_pure(
            self, ctx, monkeypatch):
        """The quiet build must not swallow the unknown-knob warning."""
        from repro import diagnostics

        monkeypatch.setattr(diagnostics, "_warned", set())
        monkeypatch.setenv("REPRO_IR", "opt")
        buf = io.StringIO()
        with pytest.warns(RuntimeWarning, match="REPRO_IR='opt'"), \
                redirect_stdout(buf):
            main(["--lattice", "2,2,2,2", "--json"])
        json.loads(buf.getvalue())
