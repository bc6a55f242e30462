"""Span recorder for the traced run.

Wrappers go on public functions where another module of the program
calls them: a name one destrade module imports from another is replaced
in the importing module, because `from x import f` binds f there.  The
methods other layers call through an object (the ledger, the chain, the
message fabric) are wrapped on their class.  Three hot helpers get a
counter only.

Each span knows its parent (the span below it on the stack).  Its self
time is its duration minus the time its child spans cover; garbage
collector pauses count as child spans of layer `gc`.  Spans are folded
into a per-function table as they close, in memory, and the table is
written once at the end: the consensus workload opens over a million
spans, too many to keep one by one.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("market", "follower", "leader", "equilibrium", "ledger", "consensus",
          "netsim", "scenario", "cli")

# Functions a layer calls inside itself that the per-layer metrics name.
INTERNAL = (("equilibrium", "find_ne"),)

# Methods that other layers call through an object: (module, class, names).
METHODS = (
    ("ledger", "Ledger", ("register", "deposit", "set_capacity", "create_contract",
                          "mark_verified", "execute_contract", "conservation_drift")),
    ("ledger", "Chain", ("append",)),
    ("netsim", "PhaseNet", ("send", "broadcast", "deliver_phase")),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        # Open spans: [key, time covered by children].
        self.stack: List[list] = []
        # key -> [calls, total_s, self_s]
        self.table: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.round_ms: List[float] = []
        self._gc_t0 = 0.0

    # ---------------- recording ----------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, key: str, frame: list, dt: float) -> None:
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - frame[1]
        if self.stack:
            self.stack[-1][1] += dt

    def calls(self, key: str) -> int:
        row = self.table.get(key)
        return 0 if row is None else row[0]

    def span(self, key: str, fn: Callable, probe: Optional["Probe"] = None) -> Callable:
        stack, clock, close = self.stack, time.perf_counter, self._close
        pre = probe.before if probe is not None else None

        def wrapper(*args, **kwargs):
            before = pre(self, args) if pre is not None else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(key, frame, dt)
            if probe is not None:
                probe.after(self, args, result, dt, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + (1 if size is None else size(args))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self.stack:  # pauses between operations are not part of run_s
            self._close("gc.collect", [None, 0.0], time.perf_counter() - self._gc_t0)

    # ---------------- installation ----------------

    def install(self) -> None:
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"destrade.{name}")
            except ImportError:
                continue
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home == name or home not in modules:
                    continue
                key = f"{home}.{obj.__name__}"
                setattr(mod, attr, self.span(key, obj, PROBES.get(key)))
        for mod_name, attr in INTERNAL:
            fn = getattr(modules.get(mod_name), attr, None)
            if inspect.isfunction(fn):
                key = f"{mod_name}.{attr}"
                setattr(modules[mod_name], attr, self.span(key, fn, PROBES.get(key)))
        for mod_name, cls_name, names in METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            for meth in names:
                fn = getattr(cls, meth, None)
                if inspect.isfunction(fn):
                    key = f"{mod_name}.{cls_name}.{meth}"
                    setattr(cls, meth, self.span(key, fn, PROBES.get(key)))
        ledger, consensus = modules.get("ledger"), modules.get("consensus")
        if ledger is not None:
            if hasattr(ledger, "merkle_root"):
                ledger.merkle_root = self.counter("ledger.merkle_root.leaves",
                                                  ledger.merkle_root,
                                                  lambda a: len(a[0]))
            contract = getattr(ledger, "Contract", None)
            if contract is not None and hasattr(contract, "body_digest"):
                contract.body_digest = self.counter("ledger.body_digest.calls",
                                                    contract.body_digest)
        if consensus is not None and hasattr(consensus, "check_quorum"):
            consensus.check_quorum = self.counter("consensus.check_quorum.calls",
                                                  consensus.check_quorum)
        gc.callbacks.append(self._on_gc)

    def root(self, fn: Callable, *args):
        """Run one operation as the root span of layer cli."""
        return self.span(ROOT, fn)(*args)

    def report(self) -> Dict:
        return {"table": self.table, "counts": self.counts, "round_ms": self.round_ms}


# ============================================================
# probes: counts read from arguments and results at the boundary
# ============================================================


class Probe:
    """Reads a span's arguments and result; before, if given, runs at span entry."""

    def __init__(self, after: Callable, before: Optional[Callable] = None):
        self.after = after
        self.before = before


def _best_response(tr: Tracer, args, result, dt, before) -> None:
    tr.count("follower.case." + result.case.value)


def _find_ne(tr: Tracer, args, result, dt, before) -> None:
    trace = result[1]
    tr.count("equilibrium.iterations", trace.iterations)
    # A city evaluation is one best_response call per community.
    evals = (tr.calls("follower.best_response") - before) / len(args[0].communities)
    tr.count("equilibrium.city_evals", round(evals))


def _make_block(tr: Tracer, args, result, dt, before) -> None:
    tr.count("ledger.block_txs", len(result.txs))


def _run_round(tr: Tracer, args, result, dt, before) -> None:
    tr.round_ms.append(dt * 1000.0)
    if result.committed:
        tr.count("consensus.commits")
        if result.block is not None:
            tr.count("consensus.committed_txs", len(result.block.txs))


def _deliver_phase(tr: Tracer, args, result, dt, before) -> None:
    tr.count("netsim.delivered", len(result))


PROBES = {
    "follower.best_response": Probe(_best_response),
    "equilibrium.find_ne": Probe(_find_ne, lambda tr, args: tr.calls("follower.best_response")),
    "ledger.make_block": Probe(_make_block),
    "consensus.run_round": Probe(_run_round),
    "netsim.PhaseNet.deliver_phase": Probe(_deliver_phase),
}
