"""Figure 5: sustained bandwidth vs volume, double precision, K20x
(ECC off).  The DP shoulder sits near L = 12 — earlier than SP's 16
because the wider words reach memory-level-parallelism saturation at
half the volume."""

from repro.device.specs import K20X_ECC_OFF
from repro.perfmodel.kernelperf import figure_4_5

from _util import header, report, table

LS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28]


def test_figure5_dp(benchmark):
    curves = benchmark(figure_4_5, "f64", LS)
    header("Figure 5: sustained GB/s vs V = L^4, DP, K20x ECC-off")
    rows = []
    for i, l in enumerate(LS):
        rows.append((l, *(f"{curves[k][i][1]:.1f}" for k in
                          ("lcm", "upsi", "spmat", "matvec", "clover"))))
    table(rows, ("L", "lcm", "upsi", "spmat", "matvec", "clover"))
    peak = K20X_ECC_OFF.peak_bandwidth / 1e9
    plateau = curves["upsi"][-1][1]
    report(f"plateau = {plateau:.1f} GB/s = {plateau / peak * 100:.1f}% "
           f"of peak (paper: 79%); shoulder near L = 12")
    assert 0.74 * peak <= plateau <= 0.80 * peak
    d = dict(curves["upsi"])
    assert d[12] >= 0.85 * d[28]
