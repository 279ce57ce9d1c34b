"""Unit tests for streams, events and the per-device runtime."""

import pytest

from repro.runtime import Stream, StreamRuntime, Timeline


class TestStream:
    def test_in_order_queue(self):
        tl = Timeline()
        s = Stream(tl, "compute", "compute")
        a = s.enqueue("A", 2.0, "kernel")
        b = s.enqueue("B", 3.0, "kernel")
        assert (a.t0, a.t1) == (0.0, 2.0)
        assert (b.t0, b.t1) == (2.0, 5.0)
        assert b.deps == (a.sid,)       # program order edge
        assert s.clock == 5.0

    def test_event_orders_across_streams(self):
        tl = Timeline()
        c = Stream(tl, "compute", "compute")
        d = Stream(tl, "d2h", "d2h")
        k = c.enqueue("kernel", 3.0, "kernel")
        ev = c.record_event()
        d.wait_event(ev)
        copy = d.enqueue("copy", 1.0, "d2h")
        assert copy.t0 == 3.0           # not before the kernel ends
        assert k.sid in copy.deps

    def test_unordered_streams_overlap(self):
        tl = Timeline()
        c = Stream(tl, "compute", "compute")
        h = Stream(tl, "h2d", "h2d")
        c.enqueue("kernel", 3.0, "kernel")
        up = h.enqueue("upload", 2.0, "h2d")
        assert up.t0 == 0.0             # concurrent with the kernel
        assert tl.end_s == 3.0
        assert tl.serial_s == 5.0

    def test_wait_in_the_past_is_free(self):
        tl = Timeline()
        c = Stream(tl, "compute", "compute")
        h = Stream(tl, "h2d", "h2d")
        up = h.enqueue("upload", 1.0, "h2d")
        ev = h.record_event()
        c.enqueue("busy", 5.0, "kernel")
        c.wait_event(ev)                # already fired
        k = c.enqueue("kernel", 1.0, "kernel")
        assert k.t0 == 5.0
        assert up.sid in k.deps         # edge still recorded

    def test_wait_none_is_noop(self):
        tl = Timeline()
        s = Stream(tl, "compute", "compute")
        s.wait_event(None)
        assert s.enqueue("A", 1.0, "kernel").t0 == 0.0

    def test_enqueue_wait_kwarg(self):
        tl = Timeline()
        c = Stream(tl, "compute", "compute")
        m = Stream(tl, "comm", "comm")
        msg = m.enqueue("halo", 4.0, "comm")
        k = c.enqueue("face", 1.0, "kernel", wait=[m.record_event()])
        assert k.t0 == 4.0
        assert msg.sid in k.deps

    def test_record_event_before_any_work(self):
        tl = Timeline()
        s = Stream(tl, "compute", "compute")
        ev = s.record_event()
        assert ev.time_s == 0.0 and ev.span is None


class TestStreamRuntime:
    def test_has_four_lanes(self):
        rt = StreamRuntime()
        assert len({id(s) for s in rt.streams}) == 4
        assert [s.lane for s in rt.streams] == list(StreamRuntime.LANES)

    def test_synchronize_aligns_clocks(self):
        rt = StreamRuntime()
        rt.compute.enqueue("K", 5.0, "kernel")
        rt.h2d.enqueue("U", 1.0, "h2d")
        t = rt.synchronize()
        assert t == 5.0
        assert all(s.clock == 5.0 for s in rt.streams)
        assert rt.h2d.enqueue("U2", 1.0, "h2d").t0 == 5.0

    def test_elapsed_is_timeline_end(self):
        rt = StreamRuntime()
        rt.compute.enqueue("K", 5.0, "kernel")
        assert rt.elapsed_s == rt.timeline.end_s == 5.0

    def test_shared_timeline_injection(self):
        tl = Timeline()
        rt = StreamRuntime(timeline=tl)
        rt.compute.enqueue("K", 1.0, "kernel")
        assert len(tl) == 1

    def test_fence_orders_the_fault_lane_both_ways(self):
        rt = StreamRuntime()
        k = rt.h2d.enqueue("upload", 2.0, "h2d")
        rt.compute.enqueue("K", 5.0, "kernel")      # not delayed
        b = rt.fence(rt.h2d, "backoff:upload", 1.0, "backoff")
        again = rt.h2d.enqueue("retransmit:upload", 2.0, "h2d")
        assert (b.lane, b.cat, b.t0, b.t1) == ("fault", "backoff", 2.0, 3.0)
        assert k.sid in b.deps and b.sid in again.deps
        assert again.t0 == 3.0
        assert rt.fault not in rt.streams


class TestBitwiseEquivalence:
    """Streams model only time: the lanes overlap, the device clock
    stays the serial sum, and no environment variable changes either."""

    def _run(self):
        import numpy as np

        from repro.core.context import Context
        from repro.qcd.solver import cg
        from repro.qdp.fields import latt_fermion, latt_real
        from repro.qdp.lattice import Lattice

        ctx = Context(autotune=False)
        lat = Lattice((4, 4, 4, 4))
        rng = np.random.default_rng(99)
        w = latt_real(lat, context=ctx)
        w.from_numpy(rng.uniform(0.5, 1.5, lat.nsites))
        b = latt_fermion(lat, context=ctx)
        b.gaussian(rng)
        x = latt_fermion(lat, context=ctx)
        cg(lambda d, s: d.assign(w.ref() * s.ref()), x, b,
           tol=0.0, max_iter=4)
        ctx.flush()
        return ctx, x.to_numpy()

    def test_stream_mode_never_exceeds_serial_clock(self):
        ctx, _ = self._run()
        tl = ctx.device.runtime.timeline
        assert tl.end_s <= ctx.device.clock
        assert tl.serial_s == pytest.approx(ctx.device.clock)
        # the context surfaces the same figures
        assert ctx.stats.overlap_fraction == tl.overlap_fraction
        assert ctx.stats.critical_path_s == tl.critical_path_s
        assert ctx.stats.lane_busy_s == tl.lane_busy()
        assert ctx.stats.cache.page_ins > 0

    def test_removed_streams_knob_changes_nothing(self, monkeypatch):
        """``REPRO_STREAMS=off`` used to alias every lane onto one
        ``serial`` stream; now it is only a stale name (announced by
        ``warn_unknown_knobs``, see ``tests/test_diagnostics.py``)."""
        import numpy as np

        from repro import diagnostics

        ref, x_ref = self._run()
        monkeypatch.setattr(diagnostics, "_warned", set())
        monkeypatch.setenv("REPRO_STREAMS", "off")
        with pytest.warns(RuntimeWarning, match="REPRO_STREAMS"):
            ctx, x = self._run()
        assert np.array_equal(x, x_ref)
        rt = ctx.device.runtime
        assert [s.lane for s in rt.streams] == list(StreamRuntime.LANES)
        assert ctx.device.clock == ref.device.clock
        assert rt.timeline.end_s == ref.device.runtime.timeline.end_s
        assert rt.timeline.end_s < ctx.device.clock
