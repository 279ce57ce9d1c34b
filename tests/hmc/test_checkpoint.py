"""Tests for gauge-configuration checkpointing."""

import numpy as np
import pytest

from repro.hmc.checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_config,
    save_config,
)
from repro.qcd.gauge import plaquette, weak_gauge


class TestRoundTrip:
    def test_save_load_identical(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        header = save_config(tmp_path / "cfg", u, trajectory=42)
        u2, header2 = load_config(tmp_path / "cfg.npz")
        assert header2 == header
        assert header2.trajectory == 42
        for a, b in zip(u, u2):
            assert np.array_equal(a.to_numpy(), b.to_numpy())

    def test_header_quantities(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        header = save_config(tmp_path / "cfg", u)
        assert header.dims == lat4.dims
        assert header.plaquette == pytest.approx(plaquette(u), abs=1e-14)
        assert 0 < header.link_trace <= 1.0

    def test_checksum_detects_corruption(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        save_config(tmp_path / "cfg", u)
        # corrupt the payload, keep the header
        with np.load(tmp_path / "cfg.npz") as data:
            links = data["links"].copy()
            header = data["header"].copy()
        links[0, 0, 0, 0] += 1e-3
        np.savez_compressed(tmp_path / "bad", links=links, header=header)
        with pytest.raises(CheckpointError, match="checksum"):
            load_config(tmp_path / "bad.npz")

    def test_plaquette_validation(self, ctx, lat4, rng, tmp_path):
        """A file whose checksum matches but whose header plaquette is
        wrong (mislabeled ensemble) must be rejected."""
        import json

        u = weak_gauge(lat4, rng, eps=0.3)
        save_config(tmp_path / "cfg", u)
        with np.load(tmp_path / "cfg.npz") as data:
            links = data["links"].copy()
            meta = json.loads(bytes(data["header"].tobytes()).decode())
        meta["plaquette"] += 0.01
        np.savez_compressed(
            tmp_path / "mislabeled", links=links,
            header=np.frombuffer(json.dumps(meta).encode(),
                                 dtype=np.uint8))
        with pytest.raises(CheckpointError, match="plaquette"):
            load_config(tmp_path / "mislabeled.npz")

    def test_validation_can_be_skipped(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        save_config(tmp_path / "cfg", u)
        u2, _ = load_config(tmp_path / "cfg.npz", validate=False)
        assert len(u2) == 4

    def test_truncated_file_raises_checkpoint_error(self, ctx, lat4, rng,
                                                    tmp_path):
        """A half-written file (job killed mid-save before the atomic
        rename era) must raise CheckpointError, not a raw zip error."""
        u = weak_gauge(lat4, rng, eps=0.3)
        save_config(tmp_path / "cfg", u)
        blob = (tmp_path / "cfg.npz").read_bytes()
        (tmp_path / "torn.npz").write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_config(tmp_path / "torn.npz")

    def test_save_is_atomic(self, ctx, lat4, rng, tmp_path):
        """save_config never exposes a partial file under the final
        name: an existing good checkpoint survives a failed save, and
        no *.tmp litter is left behind."""
        import os
        from unittest import mock

        u = weak_gauge(lat4, rng, eps=0.3)
        save_config(tmp_path / "cfg", u, trajectory=1)
        good = (tmp_path / "cfg.npz").read_bytes()
        with mock.patch("numpy.savez_compressed",
                        side_effect=OSError("disk full")):
            with pytest.raises(OSError, match="disk full"):
                save_config(tmp_path / "cfg", u, trajectory=2)
        assert (tmp_path / "cfg.npz").read_bytes() == good
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        u2, header = load_config(tmp_path / "cfg.npz")
        assert header.trajectory == 1

    def test_resume_hmc_from_checkpoint(self, ctx, lat_small, tmp_path):
        """Save mid-stream, reload, continue — trajectories after the
        reload must behave identically to an uninterrupted run."""
        from repro.hmc import GaugeMonomial, HMC, Level, MultiTimescaleIntegrator

        rng = np.random.default_rng(3)
        u = weak_gauge(lat_small, rng, eps=0.3)
        hmc = HMC(u, MultiTimescaleIntegrator(
            [Level([GaugeMonomial(beta=5.6)], n_steps=4)]), rng)
        hmc.trajectory(tau=0.3)
        save_config(tmp_path / "stream", u, trajectory=1)
        u2, header = load_config(tmp_path / "stream.npz")
        assert header.trajectory == 1
        assert plaquette(u2) == pytest.approx(plaquette(u), abs=1e-14)


class TestCheckpointManager:
    def test_keeps_last_n(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        mgr = CheckpointManager(tmp_path, keep=2)
        for n in (1, 2, 3, 4):
            mgr.save(u, trajectory=n)
        assert [p.name for p in mgr.paths()] \
            == ["cfg_000003.npz", "cfg_000004.npz"]

    def test_load_latest_returns_newest(self, ctx, lat4, rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        mgr = CheckpointManager(tmp_path, keep=3)
        for n in (5, 6, 7):
            mgr.save(u, trajectory=n)
        _, header, skipped = mgr.load_latest()
        assert header.trajectory == 7
        assert skipped == []

    def test_load_latest_skips_corrupt_newest(self, ctx, lat4, rng,
                                              tmp_path):
        """A torn final write falls back to the previous checkpoint
        with a warning, instead of aborting the restart."""
        u = weak_gauge(lat4, rng, eps=0.3)
        mgr = CheckpointManager(tmp_path, keep=3)
        mgr.save(u, trajectory=1)
        mgr.save(u, trajectory=2)
        newest = mgr.paths()[-1]
        blob = newest.read_bytes()
        newest.write_bytes(blob[:len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            _, header, skipped = mgr.load_latest()
        assert header.trajectory == 1
        assert skipped == [newest]

    def test_load_latest_raises_when_nothing_loads(self, ctx, lat4,
                                                   rng, tmp_path):
        u = weak_gauge(lat4, rng, eps=0.3)
        mgr = CheckpointManager(tmp_path, keep=2)
        mgr.save(u, trajectory=1)
        for p in mgr.paths():
            p.write_bytes(b"not a checkpoint")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CheckpointError, match="no loadable"):
                mgr.load_latest()

    def test_bad_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)
