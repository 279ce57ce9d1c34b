"""Figure 8: Blue Waters vs Titan strong scaling for the
QDP-JIT+QUDA configuration — "hardly distinguishable" per the paper.
"""

from repro.perfmodel.hmcperf import figure_8

from _util import header, report, table


def test_fig8_titan_vs_bluewaters(benchmark):
    fig = benchmark(figure_8)
    header("Figure 8: QDP-JIT+QUDA trajectory time, Blue Waters vs "
           "Titan")
    rows = []
    for (p, bw), (_, ti) in zip(fig["bluewaters"], fig["titan"]):
        rows.append((p, f"{bw:.0f}", f"{ti:.0f}",
                     f"{(ti - bw) / bw * 100:+.1f}%"))
    table(rows, ("GPUs", "Blue Waters [s]", "Titan [s]", "diff"))
    report("paper: 'hardly distinguishable when bearing in mind ... "
           "fluctuation'")
    for (p, bw), (_, ti) in zip(fig["bluewaters"], fig["titan"]):
        assert abs(ti - bw) / bw < 0.08
