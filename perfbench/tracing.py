"""Per-module attribution for the traced run, from the benchmark's side only.

Two instruments, both installed and removed here without editing the
package:

* Spans.  Module-level names that callers look up (``glue._hub_metric``,
  ``coded.compare`` as bound in every importing module, a few methods) are
  replaced by wrappers that record ``(id, job, name, start, end, parent)``
  in memory, or count calls and outcomes.  A name that no longer exists is
  reported as absent instead of failing the run.
* ``cProfile``, enabled only inside the timed commands, for call counts and
  self time.  Self time of standard-library and builtin functions
  (``fractions``, ``json``, ...) is charged to the package module that
  called them, following caller edges through intermediate library frames
  in proportion to their cumulative time.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import pstats
import sys
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

PACKAGE = "rigidmetrics"
MODULES = ("cli", "glue", "independence", "registry", "product", "coded",
           "intervals", "enumeration", "verify", "rigidify", "metric")
HARNESS = "perfbench"
UNOWNED = "unowned"

# span name -> (module, dotted name); glue stage spans
SPANS = {
    "glue.partition": ("glue", "partition_by_diameter"),
    "glue.hub_metric": ("glue", "_hub_metric"),
    "glue.amalgamate": ("glue", "amalgamate"),
    "glue.sup_bound": ("glue", "_certify_sup_bound"),
    "glue.rigidity": ("glue", "is_strongly_rigid"),
    "glue.independence": ("glue", "_pairwise_independence"),
    "glue.replay": ("glue", "_ComponentReplay.check"),
}

# counter name -> list of (module, dotted name) whose profiled calls add up
PROFILED_CALLS = {
    "independence.sum_checks": [
        ("independence", "sum_independence_check"),
        ("independence", "SumIndependenceCertificate.verify"),
    ],
    "independence.witness_searches": [("independence", "find_interval_trace_witness")],
    "registry.hub_allocs": [("registry", "ValueRegistry.hub_value")],
    "registry.draws": [
        ("registry", "ValueRegistry.draw_value"),
        ("registry", "ValueRegistry._draw_p"),
    ],
    "product.tau_calls": [("product", "tau")],
    "coded.canon_calls": [("coded", "CodedReal.build"), ("coded", "CodedReal.__add__")],
    "coded.compare_calls": [("coded", "compare")],
}
PROFILED_MODULES = {"intervals.calls": "intervals", "enumeration.calls": "enumeration"}


def _resolve(module: ModuleType, dotted: str):
    """``(owner, attribute, value)`` for a dotted name, or None if absent."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self) -> None:
        self.modules = {m: sys.modules.get(f"{PACKAGE}.{m}") for m in MODULES}
        self.spans: list[tuple[int, int, str, float, float, int | None]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.profiler = cProfile.Profile()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, self.job, name, time.perf_counter(), 0.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, job, _, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, job, name, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def probe(self, name: str):
        """A timed command: a root span with the profiler running inside.

        Spans share the job's number; each job starts with its build.
        """
        if name == "job.build":
            self.job += 1
        with self.span(name):
            self.profiler.enable()
            try:
                yield
            finally:
                self.profiler.disable()

    def span_seconds(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end, _ in self.spans if n == name)

    def write_spans(self, path: Path) -> None:
        rows = [
            {"id": sid, "job": job, "name": name, "start": start, "end": end, "parent": parent}
            for sid, job, name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(rows))

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, label: str, module: str, dotted: str, make, everywhere: bool) -> None:
        """Replace ``module.dotted`` by ``make(original)``.

        With ``everywhere``, every package module that binds the same
        function by name gets the wrapper too; otherwise only ``module``
        does, so a span names the calling module.
        """
        found = self.modules.get(module) and _resolve(self.modules[module], dotted)
        if not found:
            self.absent.append(label)
            return
        owner, attr, original = found
        wrapper = functools.wraps(original)(make(original))
        if not everywhere or isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod in self.modules.values():
            if mod is not None and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def install(self) -> None:
        for name, (module, dotted) in SPANS.items():
            def span(fn, name=name):
                def wrapper(*args, **kwargs):
                    with self.span(name):
                        return fn(*args, **kwargs)
                return wrapper
            # glue.rigidity is the strong-rigidity oracle as glue calls it
            self._wrap(name, module, dotted, span, everywhere=False)

        def witness(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts["glue.witness_calls"] += 1
                self.counts["glue.witness_hits"] += result is not None
                return result
            return wrapper

        def records(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts["glue.records"] += len(result)
                return result
            return wrapper

        def compare(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts["coded.compare_unresolved"] += result == "unresolved"
                return result
            return wrapper

        def triangles(fn):
            def wrapper(d, *args, **kwargs):
                report = fn(d, *args, **kwargs)
                self.counts["verify.triples"] += _triples_decided(d, report)
                return report
            return wrapper

        self._wrap("glue.witness_calls", "glue", "_trace_witness_for", witness, False)
        # wraps the glue.independence span installed above
        self._wrap("glue.records", "glue", "_pairwise_independence", records, False)
        self._wrap("coded.compare_unresolved", "coded", "compare", compare, True)
        self._wrap("verify.triples", "verify", "_triangle_report", triangles, False)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- profile ----------------------------------------------------------

    def _owner(self, filename: str) -> str | None:
        path = Path(filename)
        if path.parent.name == PACKAGE and path.stem in MODULES:
            return path.stem
        if path.parent.name == HARNESS:
            return HARNESS
        return None

    def module_self_seconds(self) -> dict[str, float]:
        """Self time per owning module, library time charged to the caller."""
        stats = pstats.Stats(self.profiler).stats
        shares: dict = {}
        in_progress: set = set()

        def owners(func) -> dict[str, float]:
            """Fractions of ``func``'s time that trace back to each owner."""
            own = self._owner(func[0])
            if own is not None:
                return {own: 1.0}
            if func in shares:
                return shares[func]
            in_progress.add(func)
            weights: Counter[str] = Counter()
            for caller, edge in stats.get(func, (0, 0, 0, 0, {}))[4].items():
                if caller in in_progress:
                    continue  # recursion through library frames
                for who, frac in owners(caller).items():
                    # cumulative time along the edge; call count if too fast
                    weights[who] += frac * (edge[3] or edge[1] * 1e-9)
            in_progress.discard(func)
            total = sum(weights.values())
            shares[func] = {k: v / total for k, v in weights.items()} if total else {UNOWNED: 1.0}
            return shares[func]

        seconds: Counter[str] = Counter()
        for func, (_, _, tt, _, callers) in stats.items():
            own = self._owner(func[0])
            if own is not None:
                seconds[own] += tt
                continue
            rest = tt
            for caller, edge in callers.items():
                if caller == func:
                    continue
                for who, frac in owners(caller).items():
                    seconds[who] += frac * edge[2]
                rest -= edge[2]
            if rest > 1e-12:  # recursive calls, or no recorded caller
                for who, frac in owners(func).items():
                    seconds[who] += frac * rest
        return dict(seconds)

    def profiled_calls(self) -> dict[str, int]:
        stats = pstats.Stats(self.profiler).stats
        calls: dict[str, int] = {}
        for label, targets in PROFILED_CALLS.items():
            total = 0
            for module, dotted in targets:
                found = self.modules.get(module) and _resolve(self.modules[module], dotted)
                code = getattr(found[2], "__code__", None) if found else None
                if code is None:
                    self.absent.append(f"{label} ({module}.{dotted})")
                    continue
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                total += stats.get(key, (0, 0))[1]
            calls[label] = total
        for label, module in PROFILED_MODULES.items():
            mod = self.modules.get(module)
            if mod is None:
                self.absent.append(label)
                calls[label] = 0
                continue
            calls[label] = sum(
                nc for (filename, _, _), (_, nc, _, _, _) in stats.items()
                if filename == mod.__file__
            )
        return calls


def _triples_decided(d, report) -> int:
    """Triangle triples ``(i < j, k)`` the oracle decided before it stopped.

    A pass decided all of them; a fail or unresolved verdict names the
    triple it stopped at, whose position in the loop order gives the count.
    """
    n = d.size
    total = n * (n - 1) * (n - 2) // 2
    if report.verdict == "pass":
        return total
    witness = report.witnesses[0] if report.witnesses else ()
    if len(witness) != 3:
        return 0  # stopped at the positivity scan
    i, j, k = (d.points.index(x) for x in witness)
    before = sum(n - 1 - a for a in range(i)) * (n - 2)
    before += (j - i - 1) * (n - 2)
    return before + sum(1 for c in range(k) if c not in (i, j)) + 1
