"""Structured diagnostics for the static-analysis layers.

Both analysis layers — the PTX verifier pass pipeline
(:mod:`repro.ptx.verifier`) and the expression-AST lint
(:mod:`repro.core.lint`) — report their findings as
:class:`Diagnostic` records rather than raising on the first
violation.  A diagnostic names the pass that produced it, carries a
severity, and points at the offending kernel/instruction or
expression, so a single run can report *every* problem in a program.

Strictness of the build-time hooks is controlled by the
``REPRO_VERIFY`` environment knob (see :func:`verify_mode`):

``off``
    Skip static analysis entirely (shaves compile time; unsafe).
``warn``
    Run every pass but only *report* findings as Python warnings —
    even error-severity ones.  Malformed kernels then surface as
    downstream failures, as in the unverified code path.
``error`` (default)
    Error-severity diagnostics raise; warnings and notes are emitted
    as Python warnings.
"""

from __future__ import annotations

import enum
import os
import warnings
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Severity of a diagnostic, ordered so comparisons make sense."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    severity: Severity
    pass_name: str        # e.g. "ssa-structure", "shift-alias"
    message: str
    obj: str = ""         # kernel name / destination field name
    location: str = ""    # rendered instruction or AST fragment

    def render(self) -> str:
        where = f" [{self.obj}]" if self.obj else ""
        at = f" at '{self.location}'" if self.location else ""
        return (f"{self.severity.label}: {self.pass_name}{where}: "
                f"{self.message}{at}")


def errors(diagnostics) -> list[Diagnostic]:
    """The error-severity subset of a diagnostics list."""
    return [d for d in diagnostics if d.severity >= Severity.ERROR]


def max_severity(diagnostics) -> Severity | None:
    """Highest severity present, or ``None`` for a clean report."""
    return max((d.severity for d in diagnostics), default=None)


#: every environment variable the package reads; any other ``REPRO_*``
#: name in the environment is announced by :func:`warn_unknown_knobs`
KNOBS = ("REPRO_VERIFY", "REPRO_FUSION", "REPRO_BACKEND")
_VERIFY, _FUSION, _BACKEND = KNOBS

VERIFY_MODES = ("off", "warn", "error")
FUSION_MODES = ("on", "off")
BACKEND_MODES = ("sim", "cpu")

#: ``(env_var, raw value)`` pairs already warned about (warn once per
#: distinct bad value, not once per kernel build).  The knob-mode
#: functions below share one resolver, so every knob gets identical
#: unknown-value handling: fall back to the default and announce it.
_warned: set[tuple[str, str]] = set()


def _env_mode(env_var: str, accepted: tuple[str, ...], default: str) -> str:
    """Resolve one ``REPRO_*`` mode knob from the environment.

    ``accepted`` is the tuple of valid modes.  Unrecognized values
    fall back to ``default`` rather than raising — a typo in an
    environment variable must not make every kernel build
    unreproducibly strict or lax — but the fallback is *announced*: a
    one-time warning names the bad value and the accepted set, so a
    misspelled ``REPRO_VERIFY=of`` is not silently ignored.
    """
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    mode = raw.strip().lower()
    if mode in accepted:
        return mode
    if (env_var, raw) not in _warned:
        _warned.add((env_var, raw))
        warnings.warn(
            f"ignoring unrecognized {env_var}={raw!r}: accepted "
            f"values are {', '.join(accepted)}; using "
            f"{default!r}", RuntimeWarning, stacklevel=4)
    return default


def warn_unknown_knobs() -> None:
    """Announce every ``REPRO_*`` variable that names no knob.

    The same rule as an unrecognized *value*: a misspelled name
    (``REPRO_FUSON=off``), or one left in a CI file after its knob was
    removed, changes nothing, so it must not be silently ignored.  One
    warning per distinct ``(name, value)`` per process;
    :class:`~repro.core.context.Context` calls this once at
    construction, never on the launch path.
    """
    for name, raw in os.environ.items():
        if (name.startswith("REPRO_") and name not in KNOBS
                and (name, raw) not in _warned):
            _warned.add((name, raw))
            warnings.warn(
                f"ignoring {name}={raw!r}: no such knob; the knobs are "
                f"{', '.join(KNOBS)}", RuntimeWarning, stacklevel=3)


def verify_mode(default: str = "error") -> str:
    """The current strictness mode from the ``REPRO_VERIFY`` knob.

    ``off``
        Skip static analysis entirely.
    ``warn``
        Run every pass, report findings as Python warnings only.
    ``error`` (default)
        Error-severity diagnostics raise.
    """
    return _env_mode(_VERIFY, VERIFY_MODES, default)


def fusion_mode(default: str = "on") -> str:
    """The deferred-evaluation mode from the ``REPRO_FUSION`` knob.

    ``on`` (default)
        Assignments enqueue into the context's fusion queue; compatible
        statements launch as one fused multi-output kernel at the next
        barrier (reduction, host access, shift hazard, explicit flush).
    ``off``
        Every assignment launches its own kernel immediately — the
        pre-fusion eager behavior, bitwise identical in results.
    """
    return _env_mode(_FUSION, FUSION_MODES, default)


def backend_mode(default: str = "sim") -> str:
    """The execution-backend mode from the ``REPRO_BACKEND`` knob:
    ``sim`` (default) or ``cpu``, two dispatch names of the one
    generator of :mod:`repro.driver.jitcompiler` (each with its own
    build counters; :mod:`repro.llvm.cputarget`).

    Read once per :class:`~repro.driver.cache.KernelCache`, when it is
    created — like the fusion knob, a change takes effect for the
    next context, not mid-run.
    """
    return _env_mode(_BACKEND, BACKEND_MODES, default)


def emit_warnings(diagnostics, stacklevel: int = 3,
                  min_severity: Severity = Severity.WARNING) -> None:
    """Report diagnostics through the :mod:`warnings` machinery.

    Notes are suppressed by default — they describe expected costs
    (e.g. a shift that must be materialized), and surfacing them on
    every evaluation would bury real warnings.  The structured lists
    returned by the analysis entry points still carry them; the
    ``repro.lint`` report prints them.
    """
    for d in diagnostics:
        if d.severity >= min_severity:
            warnings.warn(d.render(), RuntimeWarning, stacklevel=stacklevel)
