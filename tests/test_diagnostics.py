"""Tests for the diagnostics layer: the REPRO_* mode knobs."""

import os
import warnings

import pytest

from repro import diagnostics
from repro.diagnostics import (
    faults_mode,
    fusion_mode,
    verify_mode,
)


@pytest.fixture(autouse=True)
def _fresh_warn_cache(monkeypatch):
    monkeypatch.setattr(diagnostics, "_warned", set())


class TestVerifyMode:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert verify_mode() == "error"
        assert verify_mode(default="warn") == "warn"

    @pytest.mark.parametrize("value", ["off", "warn", "error",
                                       " Error ", "OFF"])
    def test_accepted_values_are_normalized(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_mode() == value.strip().lower()

    def test_bad_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        with pytest.warns(RuntimeWarning) as record:
            assert verify_mode() == "error"
        (w,) = record
        assert "'strict'" in str(w.message)
        assert "off, warn, error" in str(w.message)

    def test_bad_value_warns_only_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "oops")
        with pytest.warns(RuntimeWarning):
            verify_mode()
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a repeat would raise
            assert verify_mode() == "error"

    def test_distinct_bad_values_each_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "a")
        with pytest.warns(RuntimeWarning, match="'a'"):
            verify_mode()
        monkeypatch.setenv("REPRO_VERIFY", "b")
        with pytest.warns(RuntimeWarning, match="'b'"):
            verify_mode()


class TestOnOffKnobs:
    """An on/off knob goes through the shared resolver: warn once
    naming the accepted set, fall back to the default."""

    CASES = [(fusion_mode, "REPRO_FUSION")]

    @pytest.mark.parametrize("mode_fn,env", CASES)
    def test_unset_uses_default(self, mode_fn, env, monkeypatch):
        monkeypatch.delenv(env, raising=False)
        assert mode_fn() == "on"
        assert mode_fn(default="off") == "off"

    @pytest.mark.parametrize("mode_fn,env", CASES)
    @pytest.mark.parametrize("value", ["on", "off", " ON ", "Off"])
    def test_accepted_values_are_normalized(self, mode_fn, env, value,
                                            monkeypatch):
        monkeypatch.setenv(env, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mode_fn() == value.strip().lower()

    @pytest.mark.parametrize("mode_fn,env", CASES)
    def test_bad_value_warns_once_and_falls_back(self, mode_fn, env,
                                                 monkeypatch):
        monkeypatch.setenv(env, "enabled")
        with pytest.warns(RuntimeWarning) as record:
            assert mode_fn() == "on"
        (w,) = record
        assert env in str(w.message)
        assert "'enabled'" in str(w.message)
        assert "on, off" in str(w.message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a repeat would raise
            assert mode_fn() == "on"


class TestFaultsMode:
    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults_mode() == "off"

    def test_plan_strings_pass_through_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", " Plan:seed=3,alloc=1x ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert faults_mode() == "plan:seed=3,alloc=1x"

    def test_bad_value_warns_once_and_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "chaos")
        with pytest.warns(RuntimeWarning, match="REPRO_FAULTS"):
            assert faults_mode() == "off"
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a repeat would raise
            assert faults_mode() == "off"


class TestUnknownKnobs:
    """A ``REPRO_*`` variable that names no knob is announced, once,
    when a ``Context`` is built — a stale ``REPRO_IR=opt`` or
    ``REPRO_STREAMS=off`` must not be silently ignored any more than a
    misspelled value is."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)

    @pytest.mark.parametrize("name,value", [("REPRO_IR", "opt"),
                                            ("REPRO_STREAMS", "off"),
                                            ("REPRO_FUSON", "off")])
    def test_stale_or_misspelled_name_warns_once(self, monkeypatch,
                                                 name, value):
        from repro.core.context import Context

        monkeypatch.setenv(name, value)
        with pytest.warns(RuntimeWarning) as record:
            Context(autotune=False)
        (w,) = record
        assert f"{name}={value!r}" in str(w.message)
        for knob in diagnostics.KNOBS:
            assert knob in str(w.message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a repeat would raise
            Context(autotune=False)
        monkeypatch.setenv(name, value + "x")  # a new value is news
        with pytest.warns(RuntimeWarning, match=name):
            Context(autotune=False)

    def test_readme_knob_table_lists_exactly_the_knobs(self):
        """One row per name in ``KNOBS``, in order — a deleted knob
        cannot leave its row (or its mention anywhere else) behind."""
        import re
        from pathlib import Path

        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("## Environment knobs")[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(REPRO_\w+)` \|", table, re.M)
        assert tuple(rows) == diagnostics.KNOBS
        assert set(re.findall(r"REPRO_[A-Z_]+", readme)) == set(rows)

    def test_real_knobs_and_clean_environment_are_silent(self, monkeypatch):
        from repro.core.context import Context

        assert len(diagnostics.KNOBS) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Context(autotune=False)
            for knob, value in zip(diagnostics.KNOBS,
                                   ("warn", "off", "off", "cpu",
                                    "detect")):
                monkeypatch.setenv(knob, value)
            Context(autotune=False)
