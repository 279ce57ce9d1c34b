"""No workload kernel leaves a bounds verdict unproven.

Bounds are the abstract interpreter's alone: every production build
hands its launch env to the JIT, and under it every access of every
kernel a workload builds is *proven* in bounds.  ``repro.lint`` checks
its own suite (``test_lint_cli.py::test_whole_suite_proven_and_coalesced``);
this runs the end-to-end benchmark's workloads — a CG solve,
``expr_zoo``'s whole expression pool and the 2-rank dslash with its
halo face copies — and reads what the JIT's one verification point
recorded for each artifact.
"""

import warnings
from pathlib import Path

from repro.driver import cache, clear_kernel_store

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def test_no_workload_kernel_is_unproven(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "error")
    monkeypatch.syspath_prepend(str(E2E))
    import workloads

    clear_kernel_store()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in ("cg_small", "expr_zoo", "dslash_2rank"):
            wl = workloads.WORKLOADS[name]
            inputs = wl.generate(seed=0, smoke=True)
            if name == "expr_zoo":
                inputs["names"] = (workloads.ZOO_REQUIRED
                                   + workloads.ZOO_OPTIONAL)
            wl.run(wl.bind(inputs))

    artifacts = list(cache._STORE.values())
    names = {a.name.split("_")[0] for a in artifacts}
    assert {"eval", "fus", "red", "gather", "scatter"} <= names
    assert len(artifacts) >= 30
    for artifact in artifacts:
        # verified, and only ever under a launch env
        assert artifact.checked and None not in artifact.checked
        for diagnostics in artifact.checked.values():
            assert not [d for d in diagnostics
                        if d.pass_name == "proven-bounds"], artifact.name
