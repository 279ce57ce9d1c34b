"""Tests for the machine models (paper Sec. VIII-A platforms)."""

from repro.perfmodel.machines import (
    BLUEWATERS_XE,
    BLUEWATERS_XK,
    INTERLAGOS,
    TITAN_XK,
)


class TestNodeModels:
    def test_xe_is_dual_socket_no_gpu(self):
        assert BLUEWATERS_XE.sockets == 2
        assert BLUEWATERS_XE.gpu is None

    def test_xk_single_socket_with_k20x(self):
        """Paper Sec. VIII-A: XK nodes comprise 1 Interlagos and 1
        GK110 Kepler accelerator."""
        assert BLUEWATERS_XK.sockets == 1
        assert BLUEWATERS_XK.gpu is not None
        assert "K20x" in BLUEWATERS_XK.gpu.name

    def test_titan_nearly_bluewaters(self):
        """Fig. 8's premise: same node hardware, slightly different
        Gemini configuration."""
        assert TITAN_XK.gpu == BLUEWATERS_XK.gpu
        assert TITAN_XK.socket == BLUEWATERS_XK.socket
        rel = abs(TITAN_XK.network.bandwidth
                  - BLUEWATERS_XK.network.bandwidth) \
            / BLUEWATERS_XK.network.bandwidth
        assert 0 < rel < 0.1

    def test_gpu_dwarfs_cpu_socket(self):
        """The premise of the whole paper: the accelerator's memory
        bandwidth is an order of magnitude beyond the socket's."""
        assert (BLUEWATERS_XK.gpu.peak_bandwidth
                > 8 * INTERLAGOS.sustained_bandwidth)
