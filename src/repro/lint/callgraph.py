"""Conservative whole-program call graph over :class:`Project` facts.

Built for one question: *which functions can run inside a simulation
event handler?*  The shard-safety pass (RPL1xx) must not flag setup
code that populates module tables at import time, only code reachable
from a ``Scheduler``/``Timer`` callback — the code whose writes outlive
the scenario that ran them.

Resolution is name-based and deliberately over-approximate:

* ``self.m(...)`` resolves to method ``m`` of the enclosing class and
  its project-local base classes; if none defines it, to *every*
  project method named ``m``.
* A bare ``f(...)`` resolves through the module's own bindings, then
  its explicit imports; a call to a project *class* resolves to that
  class's ``__init__``.
* ``obj.m(...)`` with an unknown receiver resolves to every project
  method named ``m``.

Over-approximation errs toward *more* functions being treated as
handler-reachable, i.e. toward more scrutiny, never toward silently
missing a shared-state write.  Entry points are the callables handed
to the registration APIs in
:data:`repro.lint.project.HANDLER_REGISTRATION_APIS` or stored into the
handler tables in :data:`repro.lint.project.HANDLER_REGISTRATION_TABLES`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .project import ModuleFacts, Project

__all__ = ["CallGraph", "FuncId"]

#: A function node: ``(module_path, qualname)``.
FuncId = Tuple[str, str]


class CallGraph:
    """Name-resolved call edges plus handler entry points."""

    def __init__(self, project: Project) -> None:
        self.project = project
        # method/function name -> every project function with that tail.
        self._by_name: Dict[str, List[FuncId]] = {}
        for mod_path, mod in project.modules.items():
            for qual in mod.functions:
                tail = qual.split(".")[-1]
                self._by_name.setdefault(tail, []).append((mod_path, qual))
        self.edges: Dict[FuncId, Set[FuncId]] = {}
        self.entries: Set[FuncId] = set()
        self._build()

    # -- resolution ----------------------------------------------------
    def _method_in_class(
        self, mod_path: str, cls_name: str, method: str
    ) -> Optional[FuncId]:
        """``method`` on ``cls_name`` (following project-local bases)."""
        seen: Set[Tuple[str, str]] = set()
        stack = [(mod_path, cls_name)]
        while stack:
            cur_mod, cur_cls = stack.pop()
            if (cur_mod, cur_cls) in seen:
                continue
            seen.add((cur_mod, cur_cls))
            mod = self.project.modules.get(cur_mod)
            if mod is None or cur_cls not in mod.classes:
                continue
            qual = f"{cur_cls}.{method}"
            if qual in mod.functions:
                return (cur_mod, qual)
            for base in mod.classes[cur_cls].bases:
                found = self.project.find_class(cur_mod, base.split(".")[-1])
                if found is not None:
                    stack.append((found[0], found[1].name))
        return None

    def _resolve_call(
        self, mod_path: str, mod: ModuleFacts, cls: Optional[str], dotted: str
    ) -> List[FuncId]:
        parts = dotted.split(".")
        tail = parts[-1]
        if parts[0] == "self" and cls is not None:
            if len(parts) == 2:
                found = self._method_in_class(mod_path, cls.split(".")[0], tail)
                if found is not None:
                    return [found]
            return self._by_name.get(tail, [])
        if len(parts) == 1:
            resolved = self.project.resolve(mod_path, tail)
            if resolved is not None:
                target_mod, symbol = resolved
                target = self.project.modules.get(target_mod)
                if target is not None:
                    if symbol in target.functions:
                        return [(target_mod, symbol)]
                    if symbol in target.classes:
                        init = f"{symbol}.__init__"
                        if init in target.functions:
                            return [(target_mod, init)]
                        return []
                return []
            # Unresolved bare name: builtin or dynamic — no edge.
            return []
        # obj.m(...) with unknown receiver: every project method named m,
        # but only when m is defined *somewhere* in the project.
        return [f for f in self._by_name.get(tail, []) if "." in f[1]]

    # -- construction --------------------------------------------------
    def _build(self) -> None:
        for mod_path, mod in self.project.modules.items():
            for qual, fn in mod.functions.items():
                node: FuncId = (mod_path, qual)
                targets = self.edges.setdefault(node, set())
                for dotted, _line, _col, _n in fn.calls:
                    targets.update(
                        self._resolve_call(mod_path, mod, fn.cls, dotted)
                    )
                for kind, ref in fn.registered_callbacks:
                    if kind == "self" and fn.cls is not None:
                        found = self._method_in_class(
                            mod_path, fn.cls.split(".")[0], ref
                        )
                        entries = (
                            [found]
                            if found is not None
                            else self._by_name.get(ref, [])
                        )
                    else:
                        entries = self._resolve_call(mod_path, mod, fn.cls, ref)
                    self.entries.update(entries)

    # -- queries -------------------------------------------------------
    def handler_reachable(self) -> FrozenSet[FuncId]:
        """Entry points plus everything transitively callable from them."""
        seen: Set[FuncId] = set()
        queue = deque(sorted(self.entries))
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            for target in self.edges.get(node, ()):
                if target not in seen:
                    queue.append(target)
        return frozenset(seen)
