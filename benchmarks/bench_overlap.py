"""Stream/event runtime: copy-compute-comm overlap on the timeline.

Runs the distributed Wilson dslash on a two-rank virtual machine and
reads its cost off the VM's unified lane-based timeline: halo messages
queue on the comm lane ordered by gather/scatter events, so the
makespan is strictly below the serial sum of the compute and comm
lanes whenever communication actually hides behind the interior
kernels.  The same schedule is evaluated at the paper's Fig. 6 scale
(L = 32, f64) through the analytic performance model, which now lays
its components out on the same runtime.

Emits ``BENCH_overlap.json`` plus ``BENCH_overlap_trace.json`` — the
overlapped apply's window as a Chrome trace (load it at
ui.perfetto.dev) — next to the CI lint report.
"""

import numpy as np

from repro.comm import DistributedWilsonDslash, VirtualMachine
from repro.perfmodel.dslashperf import model_dslash_timing
from repro.qdp.typesys import color_matrix, fermion
from repro.runtime import chrome_trace

from _util import header, report, table, write_bench

GLOBAL_DIMS = (4, 4, 4, 8)
GRID = (1, 1, 1, 2)


def _setup():
    """A 2-rank VM with a weak gauge field and a gaussian source."""
    from repro.core.context import Context
    from repro.qcd.gauge import weak_gauge
    from repro.qdp.lattice import Lattice

    rng = np.random.default_rng(23)
    ref_ctx = Context(autotune=False)
    u_ref = weak_gauge(Lattice(GLOBAL_DIMS), rng, context=ref_ctx)

    vm = VirtualMachine(GLOBAL_DIMS, GRID, autotune=False)
    u = [vm.field(color_matrix(), name=f"u{mu}") for mu in range(4)]
    for mu in range(4):
        u[mu].from_global(u_ref[mu].to_numpy())
    psi = vm.field(fermion(), name="psi")
    data = (rng.normal(size=(vm.global_lattice.nsites, 4, 3))
            + 1j * rng.normal(size=(vm.global_lattice.nsites, 4, 3)))
    psi.from_global(data)
    return vm, u, psi


def _apply(vm, u, psi, overlap):
    d = DistributedWilsonDslash(vm, u)
    out = vm.field(fermion(), name="chi")
    timing = d.apply(out, psi, overlap=overlap)
    return timing, out.to_global()


def test_overlap_timeline(tmp_path):
    vm, u, psi = _setup()
    t_ov, x_ov = _apply(vm, u, psi, overlap=True)
    t_no, x_no = _apply(vm, u, psi, overlap=False)

    # the schedule changes only *time*: the sequential apply computes
    # the same bits
    bitwise = bool(np.array_equal(x_ov, x_no))

    # what one serial stream would take is the same window's span sum
    window = t_ov.timeline
    lanes = window.lane_busy()
    lane_sum = lanes["compute"] + lanes["comm"]
    overlap_fraction = window.overlap_fraction
    cp_s, chain = window.critical_path()

    # Fig. 6 scale through the analytic model, same runtime schedule
    m_ov = model_dslash_timing(32, "f64", overlap=True)
    m_no = model_dslash_timing(32, "f64", overlap=False)

    header("Stream runtime: distributed Wilson dslash, "
           f"{'x'.join(map(str, GLOBAL_DIMS))} over "
           f"{'x'.join(map(str, GRID))} ranks (f64)")
    rows = [
        ("overlap on", f"{t_ov.total_s * 1e6:.1f} us",
         f"{lanes['compute'] * 1e6:.1f} us",
         f"{lanes['comm'] * 1e6:.1f} us",
         f"{overlap_fraction:.1%}"),
        ("overlap off", f"{t_no.total_s * 1e6:.1f} us", "-", "-", "-"),
        ("serial streams", f"{window.serial_s * 1e6:.1f} us", "-", "-",
         "0.0%"),
    ]
    table(rows, ("schedule", "makespan", "compute busy", "comm busy",
                 "overlap"))
    report(f"critical path: {cp_s * 1e6:.1f} us over {len(chain)} span(s)",
           f"L=32 model: overlap {m_ov.total_s * 1e3:.2f} ms vs "
           f"sequential {m_no.total_s * 1e3:.2f} ms "
           f"({(1 - m_ov.total_s / m_no.total_s):.1%} hidden)",
           f"results bitwise identical overlap on/off: {bitwise}")

    out = {
        "benchmark": "overlap_distributed_dslash",
        "lattice": list(GLOBAL_DIMS),
        "grid": list(GRID),
        "precision": "f64",
        "overlap": {
            "total_s": t_ov.total_s,
            "lane_busy_s": lanes,
            "overlap_fraction": overlap_fraction,
            "critical_path_s": cp_s,
            "spans": len(window),
        },
        "no_overlap": {"total_s": t_no.total_s},
        "serial_sum_s": window.serial_s,
        "model_l32": {"overlap_s": m_ov.total_s,
                      "no_overlap_s": m_no.total_s},
        "bitwise_identical": bitwise,
    }
    write_bench("overlap", out)
    write_bench("overlap_trace", chrome_trace(window))

    # the tentpole's acceptance bar
    assert bitwise
    assert overlap_fraction > 0
    # the overlapped makespan beats the serial sum of the two lanes
    assert window.end_s < lane_sum
    assert t_ov.total_s < t_no.total_s
    # ... and the Fig. 6-scale model shows the same structure
    assert m_ov.total_s < m_no.total_s
    assert m_ov.total_s < (m_ov.prepare_s + m_ov.gather_s + m_ov.comm_s
                           + m_ov.interior_fill_s + m_ov.scatter_s
                           + m_ov.main_inner_s + m_ov.main_face_s)
