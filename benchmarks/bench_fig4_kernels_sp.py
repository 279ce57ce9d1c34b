"""Figure 4: sustained bandwidth vs volume, single precision, K20x
(ECC off).

Regenerates the five curves from the generated kernels' metadata and
the calibrated device model; checks the paper's shape claims
(rising flank, shoulder near L = 16, plateau at ~79% of the 250 GB/s
peak, curves coinciding).
"""

from repro.device.specs import K20X_ECC_OFF
from repro.perfmodel.kernelperf import figure_4_5

from _util import header, report, table

LS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28]


def test_figure4_sp(benchmark):
    curves = benchmark(figure_4_5, "f32", LS)
    header("Figure 4: sustained GB/s vs V = L^4, SP, K20x ECC-off")
    rows = []
    for i, l in enumerate(LS):
        rows.append((l, *(f"{curves[k][i][1]:.1f}" for k in
                          ("lcm", "upsi", "spmat", "matvec", "clover"))))
    table(rows, ("L", "lcm", "upsi", "spmat", "matvec", "clover"))
    peak = K20X_ECC_OFF.peak_bandwidth / 1e9
    plateau = curves["upsi"][-1][1]
    report(f"plateau = {plateau:.1f} GB/s = {plateau / peak * 100:.1f}% "
           f"of {peak:.0f} GB/s peak (paper: 79%)",
           "paper shape: shoulder near L = 16, curves coincide")
    assert 0.74 * peak <= plateau <= 0.80 * peak
    d = dict(curves["upsi"])
    assert d[16] >= 0.9 * d[28]
    assert d[8] <= 0.55 * d[28]
