"""Outside-in per-layer tracer for the end-to-end benchmark.

The tracer never edits the program.  It replaces a fixed table of
``(class, method)`` entry points with timing wrappers at class level,
*before* the scenario is built, so every bound method the scenario
hands to the scheduler, to a router's hook list or to a host's delivery
list is the wrapper.  Each wrapper charges its call's duration minus its
children's to the entry's layer (a self-time stack).  ``engine`` self
time is the event-loop wall time (``Network.run``) minus everything
charged to the other layers, so the layers partition the loop exactly.

Layers are timed only inside the event loop; setup-phase functions are
timed separately (``SETUP_TABLE``).  Counts come afterwards from the
network's public counters (:func:`network_counts`), not from wrappers,
so they are the program's own numbers.

A table entry that no longer exists -- a method renamed, moved to a base
class, or deleted -- raises :class:`TableError` on :meth:`Tracer.install`.
A stale table would otherwise silently move that time into ``engine``.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, class, method, layer).  Each layer's public methods and the
# callbacks it hands to the scheduler or to routers.
LAYER_TABLE: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "schedule", "engine"),
    ("repro.sim.engine", "Simulator", "schedule_at", "engine"),
    ("repro.sim.engine", "Timer", "_fire", "engine"),
    ("repro.sim.link", "Channel", "send", "link"),
    ("repro.sim.link", "Channel", "_fused_done", "link"),
    ("repro.sim.link", "Channel", "_drain", "link"),
    ("repro.sim.link", "Channel", "_tx_done", "link"),
    ("repro.sim.link", "Channel", "_deliver", "link"),
    ("repro.sim.node", "Router", "receive", "node"),
    ("repro.sim.node", "Host", "receive", "node"),
    ("repro.sim.node", "Node", "originate", "node"),
    ("repro.sim.node", "Node", "send_control", "node"),
    ("repro.backprop.filters", "PortBlockFilter", "hook", "defense"),
    ("repro.backprop.intraas", "BackpropRouterAgent", "_debug_hook", "defense"),
    ("repro.backprop.intraas", "BackpropRouterAgent", "_relay_request", "defense"),
    ("repro.backprop.intraas", "BackpropRouterAgent", "_block_port", "defense"),
    ("repro.backprop.intraas", "BackpropRouterAgent", "_on_request", "defense"),
    ("repro.backprop.intraas", "BackpropRouterAgent", "_on_cancel", "defense"),
    ("repro.backprop.intraas", "HoneypotServerAgent", "_on_packet", "defense"),
    ("repro.backprop.intraas", "HoneypotServerAgent", "_send_cancel", "defense"),
    ("repro.backprop.intraas", "HoneypotServerAgent", "_on_epoch", "defense"),
    ("repro.honeypots.roaming", "RoamingServerPool", "_announce", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_hook", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_review", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_send_status", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_on_request", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_on_release", "defense"),
    ("repro.pushback.protocol", "PushbackAgent", "_on_status", "defense"),
    ("repro.pushback.ratelimit", "AggregateRateLimiter", "hook", "defense"),
    # Body of the per-channel drop closure Pushback installs on links.
    ("repro.pushback.aggregate", "DropHistory", "record", "defense"),
    ("repro.traffic.sources", "CBRSource", "_tick", "traffic"),
    ("repro.traffic.sources", "CBRSource", "_refill", "traffic"),
    ("repro.traffic.sources", "CBRSource", "_send_one", "traffic"),
    ("repro.traffic.sources", "OnOffSource", "_burst_start", "traffic"),
    ("repro.traffic.sources", "OnOffSource", "_burst_end", "traffic"),
    ("repro.traffic.client", "RoamingClientApp", "_begin", "traffic"),
    ("repro.traffic.client", "RoamingClientApp", "_pick_server", "traffic"),
    ("repro.traffic.attacker", "AttackHost", "stop", "traffic"),
    ("repro.sim.monitor", "ThroughputMonitor", "_on_packet", "monitor"),
    ("repro.sim.monitor", "ThroughputMonitor", "_sample", "monitor"),
)

LAYERS = ("engine", "link", "node", "defense", "traffic", "monitor")

# Router ingress hooks: a True return drops the packet, which is what
# ``defense.filter_ratio`` counts.  AggregateRateLimiter.hook is left
# out because it runs inside PushbackAgent._hook and would count twice.
HOOKS = frozenset(
    {
        ("PortBlockFilter", "hook"),
        ("BackpropRouterAgent", "_debug_hook"),
        ("PushbackAgent", "_hook"),
    }
)

# (module, class or None for a module-level function, name, phase).
# run_tree_scenario calls build_tree_topology and _build_defense through
# its own module globals, so those are patched in that module.
SETUP_TABLE: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.experiments.scenarios", None, "build_tree_topology", "topology"),
    ("repro.sim.network", "Network", "from_graph", "network"),
    ("repro.sim.network", "Network", "build_routes", "routes"),
    ("repro.experiments.scenarios", None, "_build_defense", "defense"),
    ("repro.defense.honeypot_backprop", "HoneypotBackpropDefense", "attach", "defense"),
    ("repro.defense.pushback_defense", "PushbackDefense", "attach", "defense"),
    ("repro.defense.base", "NoDefense", "attach", "defense"),
)

SETUP_PHASES = ("topology", "network", "routes", "defense")


class TableError(RuntimeError):
    """A traced entry point no longer exists where the table says."""


class SetupOnly(Exception):
    """Raised at the event-loop entry when only set-up is being timed."""


def _resolve(module: str, owner: Optional[str], name: str) -> Tuple[Any, Any]:
    """``(owner object, raw attribute)``; the attribute must be defined
    on that owner itself, not inherited."""
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise TableError(f"{module}: cannot import ({exc})") from exc
    target: Any = mod
    if owner is not None:
        target = getattr(mod, owner, None)
        if target is None:
            raise TableError(f"{module}.{owner}: class no longer exists")
    if name not in vars(target):
        where = f"{module}.{owner}" if owner else module
        raise TableError(f"{where}.{name}: no longer defined there")
    return target, vars(target)[name]


class Tracer:
    """Installs the loop probe and, with ``layers=True``, the layer and
    set-up wrappers.  Use as a context manager around one
    ``run_tree_scenario`` call.

    Without ``layers`` only ``Network.run`` is wrapped, which gives the
    untraced run its set-up/loop split and the network object whose
    counters are read afterwards.  ``setup_only=True`` aborts the call
    with :class:`SetupOnly` when the event loop would start.
    """

    def __init__(self, layers: bool = False, setup_only: bool = False) -> None:
        self.layers = layers
        self.setup_only = setup_only
        self.loop_start: Optional[float] = None
        self.loop_end: Optional[float] = None
        self.net: Any = None
        # [self seconds, calls] per layer; [calls, drops] for hooks;
        # seconds per set-up phase.
        self._acc: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
        self._hooks: List[int] = [0, 0]
        self._setup: Dict[str, float] = {phase: 0.0 for phase in SETUP_PHASES}
        # Child-time accumulators of the open wrapped calls.  Non-empty
        # exactly while the event loop runs.
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan: List[Tuple[Any, str, Any]] = []
        net_cls, run = _resolve("repro.sim.network", "Network", "run")
        plan.append((net_cls, "run", self._loop_wrapper(run)))
        if self.layers:
            for module, owner, name, layer in LAYER_TABLE:
                cls, fn = _resolve(module, owner, name)
                hook = (owner, name) in HOOKS
                plan.append((cls, name, self._layer_wrapper(fn, layer, hook)))
            for module, setup_owner, name, phase in SETUP_TABLE:
                target, raw = _resolve(module, setup_owner, name)
                plan.append((target, name, self._setup_wrapper(raw, phase)))
        # Resolve everything before patching anything, so a stale table
        # leaves the program untouched.
        for target, name, wrapper in plan:
            self._saved.append((target, name, vars(target)[name]))
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, name, raw = self._saved.pop()
            setattr(target, name, raw)

    # ------------------------------------------------------------------
    def _loop_wrapper(self, run: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack

        def traced_run(net: Any, *args: Any, **kwargs: Any) -> Any:
            self.net = net
            self.loop_start = perf_counter()
            if self.setup_only:
                raise SetupOnly
            stack.append(0.0)
            try:
                return run(net, *args, **kwargs)
            finally:
                self.loop_end = perf_counter()
                stack.pop()

        return traced_run

    def _layer_wrapper(
        self, fn: Callable[..., Any], layer: str, hook: bool
    ) -> Callable[..., Any]:
        stack = self._stack
        acc = self._acc[layer]
        hooks = self._hooks
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += dt - stack.pop()
                acc[1] += 1
                stack[-1] += dt
            if hook:
                hooks[0] += 1
                if out:
                    hooks[1] += 1
            return out

        return traced

    def _setup_wrapper(self, raw: Any, phase: str) -> Any:
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        setup = self._setup
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            if stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setup[phase] += perf_counter() - t0

        return classmethod(timed) if is_classmethod else timed

    # ------------------------------------------------------------------
    @property
    def loop_s(self) -> float:
        if self.loop_start is None or self.loop_end is None:
            raise RuntimeError("the event loop did not run under the tracer")
        return self.loop_end - self.loop_start

    def raw(self) -> Dict[str, Any]:
        """JSON-ready layer and set-up accumulators."""
        return {
            "self_s": {layer: acc[0] for layer, acc in self._acc.items()},
            "calls": {layer: int(acc[1]) for layer, acc in self._acc.items()},
            "hook_calls": self._hooks[0],
            "hook_drops": self._hooks[1],
            "setup_phases_s": dict(self._setup),
        }


def network_counts(net: Any) -> Dict[str, int]:
    """Model-level counts read from the network's public counters."""
    channels = [ch for link in net.links for ch in (link.ab, link.ba)]
    nodes = list(net.nodes.values())
    routers = net.routers()
    return {
        "events": net.sim.events_processed,
        "pkts_sent": sum(ch.packets_sent for ch in channels),
        "drops": sum(ch.packets_dropped for ch in channels),
        "receives": sum(n.packets_received for n in nodes),
        "originated": sum(n.packets_originated for n in nodes),
        "forwarded": sum(r.packets_forwarded for r in routers),
        "filtered": sum(r.packets_filtered for r in routers),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: Dict[str, Any], untraced_loop_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced sample.

    ``traced`` is a traced child's sample (``loop_s``, ``setup_s``,
    ``counts`` and the :meth:`Tracer.raw` fields); ``untraced_loop_s``
    is the untraced loop time of the same scenario, the base of
    ``trace.overhead_pct``.
    """
    loop = traced["loop_s"]
    self_s = dict(traced["self_s"])
    self_s["engine"] = loop - sum(v for k, v in self_s.items() if k != "engine")
    calls = traced["calls"]
    counts = traced["counts"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share_pct"] = 100.0 * _ratio(self_s[layer], loop)
    out["engine.events"] = counts["events"]
    out["engine.ns_per_event"] = 1e9 * _ratio(self_s["engine"], counts["events"])
    out["link.calls"] = calls["link"]
    out["link.pkts_sent"] = counts["pkts_sent"]
    out["link.drops"] = counts["drops"]
    out["link.drop_ratio"] = _ratio(
        counts["drops"], counts["pkts_sent"] + counts["drops"]
    )
    out["node.receives"] = counts["receives"]
    out["node.forwarded"] = counts["forwarded"]
    out["node.filtered"] = counts["filtered"]
    out["defense.calls"] = calls["defense"]
    out["defense.filter_ratio"] = _ratio(traced["hook_drops"], traced["hook_calls"])
    out["traffic.pkts_originated"] = counts["originated"]
    out["traffic.ns_per_pkt"] = 1e9 * _ratio(self_s["traffic"], counts["originated"])
    phases = traced["setup_phases_s"]
    for phase in SETUP_PHASES:
        out[f"setup.{phase}_s"] = phases[phase]
    out["setup.apps_s"] = traced["setup_s"] - sum(phases.values())
    out["trace.overhead_pct"] = 100.0 * (loop / untraced_loop_s - 1.0)
    return out
