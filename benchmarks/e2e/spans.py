"""Host-time spans recorded from outside the program.

A traced benchmark child wraps the public entry points of each layer
(one layer per package under ``src/repro``) with timing shims that
append ``[name, t0, t1, parent, pass, note]`` to an in-memory list.
Nothing under ``src/`` is edited: functions are rebound in their
defining module and in every ``repro.*`` module global that holds the
same object (``from .codegen import build_fused_kernel`` makes such a
copy); methods are patched on their class.

A table entry that no longer resolves — a later refactor renamed or
moved it — is *not* an error: it is listed in :attr:`Tracer.unresolved`
and its metrics come out as ``None``.  Spans inside the program itself
are a later change (ROADMAP item 1's remainder).

A span's *self time* is its duration minus the durations of its direct
children, so self times of all spans add up to the time covered by the
outermost spans and nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _note_ir(args, out):
    return {"instrs_in": len(args[0].instructions),
            "instrs_out": len(out.instructions)}


def _note_render(args, out):
    return {"bytes": len(out)}


def _note_launch(args, out):
    # the launch's own modeled cost record: computed, not measured
    return {"modeled_bytes": out.bytes_moved, "modeled_flops": out.flops}


def _note_exchange(args, out):
    vm = args[0]
    return {"halo_bytes": out.nbytes * vm.nranks, "messages": vm.nranks}


#: (span name, module, attribute path, note function or None).  The
#: layer of a span is the first component of its name.
TABLE = (
    ("core.evaluate", "repro.core.evaluator", "evaluate", None),
    ("core.fusion.flush", "repro.core.fusion", "FusionQueue.flush", None),
    ("core.fusion.flush", "repro.core.fusion",
     "FusionQueue.flush_for_reduction", None),
    ("core.reduction", "repro.core.reduction", "norm2", None),
    ("core.reduction", "repro.core.reduction", "innerProduct", None),
    ("core.reduction", "repro.core.reduction", "innerProductReal", None),
    ("core.reduction", "repro.core.reduction", "sum_sites", None),
    ("core.codegen", "repro.core.codegen", "build_expression_kernel", None),
    ("core.codegen", "repro.core.codegen", "build_fused_kernel", None),
    ("ir.prepare", "repro.ir.pipeline", "prepare_module", _note_ir),
    ("ptx.verify", "repro.ptx.verifier", "run_passes", None),
    ("ptx.absint", "repro.ptx.absint", "analyze_module", None),
    ("ptx.liveness", "repro.ptx.liveness", "max_live_registers", None),
    ("ptx.render", "repro.ptx.module", "PTXModule.render", _note_render),
    ("driver.parse", "repro.driver.parser", "parse_ptx", None),
    ("driver.jit", "repro.driver.jitcompiler", "compile_ptx", None),
    ("driver.backend_select", "repro.driver.backends", "select_backend",
     None),
    ("llvm.compile", "repro.llvm.cputarget", "compile_cpu_kernel", None),
    ("device.launch", "repro.device.gpu", "Device.launch", _note_launch),
    ("device.launch", "repro.device.autotune", "Autotuner.launch", None),
    ("device.kernel", "repro.driver.jitcompiler", "CompiledKernel.__call__",
     None),
    ("device.reduce", "repro.device.gpu", "Device.reduce_f64", None),
    ("memory.make_available", "repro.memory.cache",
     "FieldCache.make_available", None),
    ("comm.exchange", "repro.comm.vm", "VirtualMachine.exchange",
     _note_exchange),
    ("comm.scatter", "repro.comm.vm", "VirtualMachine.scatter_halo", None),
    ("qdp.host_io", "repro.qdp.fields", "LatticeField.to_numpy", None),
    ("qdp.host_io", "repro.qdp.fields", "LatticeField.from_numpy", None),
    ("hmc.trajectory", "repro.hmc.hmc", "HMC.trajectory", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TABLE))

# indices into a span record
NAME, T0, T1, PARENT, PASS, NOTE = range(6)


class Tracer:
    """Installs the span table and owns the recorded spans."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.unresolved: list[str] = []
        self.enabled = False
        self.pass_label = None
        self._current = -1
        #: (holder, attribute, original, shim) for every binding site
        self._sites: list[tuple] = []
        #: span names with at least one table entry that resolved
        self._resolved_names: set[str] = set()

    # -- installation ---------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Resolve the table and find every binding site; nothing is
        rebound until :meth:`enable`."""
        resolved = []
        for name, modname, path, note in TABLE:
            try:
                holder = importlib.import_module(modname)
                *owners, attr = path.split(".")
                for part in owners:
                    holder = getattr(holder, part)
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(f"{name}={modname}:{path}")
                continue
            resolved.append((name, holder, attr, original, note,
                             not owners))
            self._resolved_names.add(name)
        # after the imports above every module that could hold a copy
        # of a wrapped function is loaded
        scanned = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro"
                                         or n.startswith("repro."))]
        scanned += list(extra_modules)
        for name, holder, attr, original, note, is_function in resolved:
            shim = self._shim(name, original, note)
            self._sites.append((holder, attr, original, shim))
            if not is_function:
                continue
            for mod in scanned:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod is not holder
                                              or key != attr):
                        self._sites.append((mod, key, original, shim))

    def _bind(self, shims: bool) -> None:
        for holder, attr, original, shim in self._sites:
            setattr(holder, attr, shim if shims else original)

    def enable(self, pass_label: str) -> None:
        self._bind(shims=True)
        self.pass_label = pass_label
        self.enabled = True

    def disable(self) -> None:
        """Restore the originals.  A shim someone captured while it was
        bound (``FieldCache.flush_hook`` holds a bound method) stays
        reachable, so shims also pass straight through when disabled."""
        self.enabled = False
        self._bind(shims=False)

    def _shim(self, name, fn, note):
        tracer = self
        spans = self.spans
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._current
            span = [name, clock(), 0.0, parent, tracer.pass_label, None]
            tracer._current = len(spans)
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[T1] = clock()
                tracer._current = parent
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        return functools.wraps(fn)(shim)

    # -- reading --------------------------------------------------------

    def aggregate(self, pass_label: str) -> dict:
        """Per span name over one pass: ``calls`` (outermost spans of
        that name — a nested ``Device.launch`` inside
        ``Autotuner.launch`` is one launch), ``self_s``, summed notes;
        plus ``"_covered_s"``, the time under outermost spans."""
        spans = self.spans
        child_s = defaultdict(float)
        for s in spans:
            if s[PASS] == pass_label and s[PARENT] >= 0:
                child_s[s[PARENT]] += s[T1] - s[T0]
        out = {n: {"calls": 0, "self_s": 0.0} for n in SPAN_NAMES}
        covered = 0.0
        for i, s in enumerate(spans):
            if s[PASS] != pass_label:
                continue
            agg = out[s[NAME]]
            dur = s[T1] - s[T0]
            agg["self_s"] += dur - child_s.get(i, 0.0)
            if s[PARENT] < 0:
                covered += dur
            if s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]:
                agg["calls"] += 1
            if s[NOTE]:
                for key, value in s[NOTE].items():
                    agg[key] = agg.get(key, 0) + value
        for name in SPAN_NAMES:
            if name not in self._resolved_names:
                out[name] = None
        out["_covered_s"] = covered
        return out

    def write_chrome_trace(self, path) -> None:
        """Chrome-trace JSON (load at ui.perfetto.dev): one complete
        event per span, categories are layers, ``args`` carry the
        pass, the workload, the parent span's index and any counts
        recorded at the boundary."""
        origin = self.spans[0][T0] if self.spans else 0.0
        events = [{
            "name": s[NAME], "cat": s[NAME].split(".")[0], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": (s[T0] - origin) * 1e6, "dur": (s[T1] - s[T0]) * 1e6,
            "args": {"pass": s[PASS], "workload": self.workload,
                     "parent": s[PARENT], **(s[NOTE] or {})},
        } for s in self.spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms",
                       "otherData": {"workload": self.workload,
                                     "unresolved": self.unresolved}}, f)
