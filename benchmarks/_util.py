"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and
prints the series it reports.  Under pytest the default fd-level
capture would swallow ordinary prints, so :func:`report` routes lines
through pytest's terminal reporter (exempt from capture — it is what
draws the progress dots); standalone use falls back to stdout.
:func:`write_bench` is the one writer of the ``BENCH_<name>.json``
artifacts.
"""

from __future__ import annotations

import json
import os
import sys

_CONFIG = None


def set_terminal_writer(config) -> None:
    """Remember the pytest config; the terminal reporter is resolved
    lazily (it registers after early conftest hooks run)."""
    global _CONFIG
    _CONFIG = config


def report(*lines: str) -> None:
    """Print report rows past pytest's output capture.

    Uses the capture manager's documented suspension context
    (``global_and_fixture_disabled``) so the rows reach the real
    stdout even under the default fd-level capture.
    """
    capman = (_CONFIG.pluginmanager.get_plugin("capturemanager")
              if _CONFIG is not None else None)
    if capman is not None:
        with capman.global_and_fixture_disabled():
            for line in lines:
                sys.stdout.write(line + "\n")
            sys.stdout.flush()
        return
    for line in lines:
        sys.stdout.write(line + "\n")
    sys.stdout.flush()


def header(title: str) -> None:
    report("", "=" * 72, title, "=" * 72)


def table(rows, headers) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    report(fmt.format(*headers))
    report(fmt.format(*("-" * w for w in widths)))
    for r in rows:
        report(fmt.format(*r))


def write_bench(name: str, payload) -> None:
    """Write ``payload`` to ``BENCH_<name>.json`` in the working
    directory and report the path."""
    path = os.path.join(os.getcwd(), f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
    report(f"wrote {path}")
