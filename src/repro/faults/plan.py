"""Deterministic fault plans: what breaks, when, and how it recovers.

The paper's runtime already treats recovery as a first-class
mechanism — the auto-tuner halves the block size on launch failure
(Sec. VII) and the software cache spills LRU fields when device memory
fills (Sec. IV) — but on a modeled device those paths trigger almost
never.  A :class:`FaultPlan` makes every recovery path *reachable on
demand and deterministically*: a seeded RNG plus per-site specs decide,
at each chokepoint opportunity, whether a fault is injected.  The same
seed over the same workload reproduces the identical fault sequence
and the identical recovery trace (:meth:`FaultPlan.trace_json`).

Injection sites (the chokepoints the specs name):

``launch``
    Transient kernel-launch failure at :meth:`Device.launch`; the
    device retries with exponential backoff charged as modeled time.
``launch.sticky``
    Per-block-size *persistent* launch failure: the ``N`` largest
    halving-series block sizes always fail for matching kernels,
    driving the auto-tuner's probe down exactly as the paper's
    discover-by-failure start does.
``alloc``
    :class:`~repro.memory.pool.DeviceOutOfMemory` at device
    allocation, forcing the cache's spill-and-retry path.
``h2d`` / ``d2h``
    Bit-flip corruption of a host<->device transfer, detected by the
    per-transfer checksum guard and repaired by retransmission.
``halo.drop`` / ``halo.corrupt`` / ``halo.timeout``
    Message loss, payload corruption or delivery timeout on the halo
    exchange; detected by the message checksum (or the timeout timer)
    and repaired by a checksum-verified retransmit.
``solver``
    Corruption of the CG iterate, detected by the periodic
    true-residual recomputation (the reliable-update defect guard)
    and repaired by restarting from the last good point.
``rank.kill`` / ``rank.straggler``
    Whole-rank loss (or a hung, slow rank) in the comm VM, drawn per
    rank at each exchange barrier with targets ``rank<r>:<tag>`` so a
    glob can pin the victim and the exchange.  Detection is
    heartbeat-by-construction — a dead rank's halo never arrives —
    and recovery (``REPRO_RESILIENCE=recover``) restores the rank
    from its buddy checkpoint or shrinks the processor grid
    (:mod:`repro.resilience`).

Spec grammar (``REPRO_FAULTS=plan:<spec>`` or :func:`parse_plan`)::

    plan:seed=42,launch=0.05,launch.sticky=2x,alloc=1x,
         h2d=0.01,halo.corrupt=1x,solver=1x@cg

comma-separated entries; ``seed=<int>`` seeds the RNG; every other
entry is ``<site>[=<value>][@<glob>]`` where ``<value>`` is either a
probability per opportunity (``0.05``) or an exact count (``2x``),
and ``<glob>`` restricts the spec to matching kernel names / tags.
"""

from __future__ import annotations

import fnmatch
import warnings
from dataclasses import dataclass, field

import numpy as np

#: canonical (site, kind) pairs a spec may name; the spec grammar
#: spells them ``site`` or ``site.kind``
SITES = {
    "launch": ("launch", "transient"),
    "launch.transient": ("launch", "transient"),
    "launch.sticky": ("launch", "sticky"),
    "alloc": ("alloc", "oom"),
    "alloc.oom": ("alloc", "oom"),
    "h2d": ("h2d", "bitflip"),
    "h2d.bitflip": ("h2d", "bitflip"),
    "d2h": ("d2h", "bitflip"),
    "d2h.bitflip": ("d2h", "bitflip"),
    "halo.drop": ("halo", "drop"),
    "halo.corrupt": ("halo", "corrupt"),
    "halo.timeout": ("halo", "timeout"),
    "solver": ("solver", "corrupt"),
    "solver.corrupt": ("solver", "corrupt"),
    "rank": ("rank", "kill"),
    "rank.kill": ("rank", "kill"),
    "rank.straggler": ("rank", "straggler"),
}


class FaultPlanError(ValueError):
    """A fault-plan spec string could not be parsed."""


@dataclass
class RecoveryPolicy:
    """How each injection site recovers, and what it costs.

    Backoff is *modeled* time: every retry charges
    ``backoff_base_s * backoff_factor**attempt`` to the device clock
    and stamps a ``lane="fault"`` span on the runtime timeline, so a
    chaos run's makespan honestly includes its recovery cost.
    """

    #: bounded retries per fault before the failure is surfaced
    max_retries: int = 8
    #: first-retry backoff (doubles each attempt)
    backoff_base_s: float = 2e-6
    backoff_factor: float = 2.0
    #: modeled wait before a halo message is declared lost
    halo_timeout_s: float = 50e-6
    #: CG true-residual recomputation interval (iterations)
    solver_check_interval: int = 8
    #: true residual worse than ``defect_factor`` x recursive => defect
    solver_defect_factor: float = 4.0
    #: bounded CG restarts before the defect is surfaced
    solver_max_restarts: int = 5
    #: modeled stall a straggling rank adds to its device clock
    straggler_hang_s: float = 500e-6
    #: flag ranks whose modeled clock exceeds this multiple of the
    #: median across ranks (the straggler detector's threshold)
    straggler_threshold: float = 4.0

    def backoff_s(self, attempt: int) -> float:
        return self.backoff_base_s * self.backoff_factor ** attempt


@dataclass
class FaultSpec:
    """One injection rule: a site, a trigger, and a name filter."""

    site: str                 # "launch"/"alloc"/"h2d"/"d2h"/"halo"/"solver"
    kind: str                 # site-specific failure mode
    rate: float = 1.0         # probability per opportunity
    count: int | None = None  # remaining injections (None = unlimited)
    match: str = "*"          # fnmatch over kernel name / transfer tag

    def matches(self, site: str, kind: str | None, target: str) -> bool:
        if self.site != site:
            return False
        if kind is not None and self.kind != kind:
            return False
        return fnmatch.fnmatchcase(target, self.match)

    @property
    def exhausted(self) -> bool:
        return self.count is not None and self.count <= 0


@dataclass
class FaultCounters:
    """Aggregate outcome counters, surfaced through ``ctx.stats``."""

    injected: int = 0
    recovered: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    solver_restarts: int = 0

    def as_json(self) -> dict:
        return {"injected": self.injected, "recovered": self.recovered,
                "retries": self.retries, "backoff_s": self.backoff_s,
                "solver_restarts": self.solver_restarts}


#: the shared all-zero counters an inactive injector reports
ZERO_COUNTERS = FaultCounters()


@dataclass
class FaultEvent:
    """One injected fault and (once handled) its recovery record."""

    seq: int
    site: str
    kind: str
    target: str
    detail: dict = field(default_factory=dict)
    recovered: bool = False
    recovery: str = ""
    retries: int = 0
    backoff_s: float = 0.0

    def as_json(self) -> dict:
        return {"seq": self.seq, "site": self.site, "kind": self.kind,
                "target": self.target, "detail": dict(self.detail),
                "recovered": self.recovered, "recovery": self.recovery,
                "retries": self.retries, "backoff_s": self.backoff_s}


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    The plan owns the RNG, the spec list, the recovery policy, the
    outcome counters and the fault/recovery trace.  One plan may be
    shared by several contexts (the virtual machine shares one across
    its ranks), so the trace is the single source of truth for "what
    broke and how it was repaired" in a chaos run.
    """

    def __init__(self, seed: int = 0,
                 policy: RecoveryPolicy | None = None):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.specs: list[FaultSpec] = []
        self.counters = FaultCounters()
        self.trace: list[FaultEvent] = []

    # -- construction ---------------------------------------------------

    def add(self, site: str, rate: float = 1.0, count: int | None = None,
            match: str = "*") -> "FaultPlan":
        """Add one injection rule; ``site`` uses the spec grammar
        (``"launch"``, ``"halo.corrupt"``, ...).  Returns ``self``."""
        canonical = SITES.get(site)
        if canonical is None:
            raise FaultPlanError(
                f"unknown fault site {site!r}: accepted sites are "
                f"{', '.join(sorted(SITES))}")
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"rate must be in [0, 1], got {rate}")
        self.specs.append(FaultSpec(site=canonical[0], kind=canonical[1],
                                    rate=rate, count=count, match=match))
        return self

    # -- the injection decision ----------------------------------------

    def find_spec(self, site: str, kind: str | None,
                  target: str) -> FaultSpec | None:
        """The first non-exhausted spec matching (site, kind, target)."""
        for spec in self.specs:
            if not spec.exhausted and spec.matches(site, kind, target):
                return spec
        return None

    def draw(self, site: str, kind: str | None = None,
             target: str = "") -> FaultEvent | None:
        """Decide whether a fault fires at this opportunity.

        Deterministic: count-mode specs (``rate == 1``) fire on their
        first ``count`` opportunities without consuming RNG state;
        rate-mode specs draw one uniform variate per opportunity.
        Returns the recorded :class:`FaultEvent`, or ``None``.
        """
        spec = self.find_spec(site, kind, target)
        if spec is None:
            return None
        if spec.rate < 1.0 and self.rng.random() >= spec.rate:
            return None
        return self.fire(spec, target)

    def fire(self, spec: FaultSpec, target: str,
             detail: dict | None = None,
             consume: bool = True) -> FaultEvent:
        """Unconditionally inject through ``spec`` and record it.

        ``consume=False`` leaves the spec's count budget untouched —
        used for sticky launch specs, whose count is a poison *depth*
        (how many halving-series sizes always fail), not a budget.
        """
        if consume and spec.count is not None:
            spec.count -= 1
        event = FaultEvent(seq=len(self.trace), site=spec.site,
                           kind=spec.kind, target=target,
                           detail=dict(detail or {}))
        self.trace.append(event)
        self.counters.injected += 1
        return event

    def record_recovery(self, event: FaultEvent | None, action: str,
                        retries: int = 0, backoff_s: float = 0.0) -> None:
        """Mark ``event`` recovered; accumulate retry/backoff cost.

        ``event=None`` records only the cost (a retry attributed to an
        already-recovered fault, e.g. repeated halo retransmits).
        """
        self.counters.retries += retries
        self.counters.backoff_s += backoff_s
        if event is None:
            return
        if not event.recovered:
            event.recovered = True
            self.counters.recovered += 1
        event.recovery = action
        event.retries += retries
        event.backoff_s += backoff_s

    def record_solver_restart(self, event: FaultEvent | None,
                              action: str) -> None:
        self.counters.solver_restarts += 1
        self.record_recovery(event, action)

    # -- reporting ------------------------------------------------------

    def trace_json(self) -> dict:
        """The full fault/recovery trace (the CI chaos artifact)."""
        return {
            "seed": self.seed,
            "specs": [{"site": s.site, "kind": s.kind, "rate": s.rate,
                       "count": s.count, "match": s.match}
                      for s in self.specs],
            "counters": self.counters.as_json(),
            "events": [e.as_json() for e in self.trace],
        }

    def trace_signature(self) -> str:
        """A replay-comparable rendering of :meth:`trace_json`.

        Identical runs of the same seeded plan over the same workload
        produce identical signatures even within one process: field
        uids embedded in transfer tags (``pagein:f12``) are normalized
        away, since the uid counter is process-global and a replay
        allocates fresh fields.  Everything that defines the fault
        sequence — sites, kinds, corrupted bits, retry counts, backoff
        — is preserved verbatim.
        """
        import json
        import re

        return re.sub(r"\bf\d+\b", "f#",
                      json.dumps(self.trace_json(), sort_keys=True))

    def all_recovered(self) -> bool:
        return all(e.recovered for e in self.trace)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.counters
        return (f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
                f"injected={c.injected} recovered={c.recovered}>")


# -- spec parsing / the REPRO_FAULTS knob ------------------------------

def parse_plan(text: str) -> FaultPlan:
    """Parse a ``plan:<spec>`` (or bare ``<spec>``) string.

    Raises :class:`FaultPlanError` on malformed input.
    """
    body = text.strip()
    if body.lower().startswith("plan:"):
        body = body[5:]
    plan_seed = 0
    entries: list[tuple[str, float, int | None, str]] = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "@" in item:
            item, match = item.split("@", 1)
            match = match.strip() or "*"
        else:
            match = "*"
        if "=" in item:
            key, value = (p.strip() for p in item.split("=", 1))
        else:
            key, value = item, "1x"
        if key == "seed":
            try:
                plan_seed = int(value)
            except ValueError:
                raise FaultPlanError(f"bad seed {value!r}") from None
            continue
        rate, count = 1.0, None
        if value.endswith(("x", "X")):
            try:
                count = int(value[:-1])
            except ValueError:
                raise FaultPlanError(
                    f"bad count {value!r} for {key!r}") from None
        else:
            try:
                rate = float(value)
            except ValueError:
                raise FaultPlanError(
                    f"bad rate {value!r} for {key!r}") from None
        entries.append((key, rate, count, match))
    plan = FaultPlan(seed=plan_seed)
    for key, rate, count, match in entries:
        plan.add(key, rate=rate, count=count, match=match)
    return plan


#: a plan installed programmatically; overrides the environment
_installed_plan: FaultPlan | None = None

#: bad REPRO_FAULTS plan specs already warned about
_warned_bad_specs: set[str] = set()


def install_plan(plan: FaultPlan | None) -> None:
    """Install (or with ``None`` remove) the process-wide fault plan.

    Every :class:`~repro.core.context.Context` or
    :class:`~repro.comm.vm.VirtualMachine` created afterwards shares
    ``plan``; passing a plan explicitly to their constructors takes
    precedence.
    """
    global _installed_plan
    _installed_plan = plan


def active_plan() -> FaultPlan | None:
    """The plan new contexts should use: the installed one, or a fresh
    plan parsed from ``REPRO_FAULTS=plan:<spec>``, or ``None``.

    Each call with an environment spec parses a *new* plan (fresh RNG,
    fresh budgets) so independently created contexts inject
    independently and deterministically.  An unparsable spec warns
    once and behaves as ``off`` — a typo must not change physics.
    """
    if _installed_plan is not None:
        return _installed_plan
    from ..diagnostics import faults_mode

    mode = faults_mode()
    if mode == "off":
        return None
    try:
        return parse_plan(mode)
    except FaultPlanError as e:
        if mode not in _warned_bad_specs:
            _warned_bad_specs.add(mode)
            warnings.warn(
                f"ignoring unparsable REPRO_FAULTS plan {mode!r}: {e}; "
                f"faults are off", RuntimeWarning, stacklevel=3)
        return None
