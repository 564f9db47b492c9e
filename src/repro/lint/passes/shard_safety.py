"""RPL1xx — shard-safety: no shared mutable state behind event handlers.

A run is deterministic across pool workers and replays only if event
handlers communicate exclusively through the scheduler (messages/events),
never through memory shared behind the scheduler's back.  State a
handler writes outside its own instances outlives the scenario and
leaks into the next one the same process runs: every later scenario of
a serial ``run_many``, or the next task of a pool worker that runs
several.  Serial and pooled journals then diverge.  These passes check
the three ways Python code acquires such sharing:

* **RPL101** — a handler-reachable function writes module-level
  mutable state: rebinds a ``global``, or mutates a module-level
  container (its own module's or one imported from another module).
  Module state is process-wide, so it carries over into the next
  scenario the process runs.
* **RPL102** — class-level mutable containers (``class C: cache = {}``)
  or writes through the class object (``C.x = ...``, ``cls.x = ...``,
  ``type(self).x = ...``).  Class attributes are shared by *all*
  instances, so two hosts silently share a dict — within a run and
  with every later run in the process.
* **RPL103** — ``__init__`` stores a mutable-container parameter
  without a defensive copy (``self.attrs = attrs``).  The captured
  container aliases the caller's object; mutations on either side leak
  across the component boundary.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..callgraph import CallGraph
from ..diagnostics import Diagnostic
from ..project import Project, ProjectRule

__all__ = [
    "CapturedContainerParam",
    "HandlerWritesModuleState",
    "SharedClassState",
]


class HandlerWritesModuleState(ProjectRule):
    code = "RPL101"
    name = "no module-state writes in event handlers"
    rationale = (
        "functions reachable from Scheduler/Timer callbacks must not write "
        "module-level mutable state: it is process-wide, so it leaks into "
        "the next scenario the process runs (a serial run_many, a pool "
        "worker's next task) and serial and pooled journals diverge"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        graph = CallGraph(project)
        reachable = graph.handler_reachable()
        for mod_path, qual in sorted(reachable):
            mod = project.modules[mod_path]
            fn = mod.functions.get(qual)
            if fn is None or qual == "<module>":
                continue
            for name, line, col in fn.global_writes:
                yield self._diag(
                    mod,
                    line,
                    col,
                    f"handler-reachable '{qual}' rebinds module global "
                    f"'{name}' — route state through the event, not the module",
                )
            for root, chain, line, col in fn.name_mutations:
                if root in ("self", "cls") or root in fn.local_names:
                    continue
                owner = self._owning_module(project, mod_path, root)
                if owner is None:
                    continue
                owner_path, owner_name = owner
                where = (
                    "module-level"
                    if owner_path == mod_path
                    else f"'{owner_path}' module-level"
                )
                yield self._diag(
                    mod,
                    line,
                    col,
                    f"handler-reachable '{qual}' mutates {where} container "
                    f"'{owner_name}' via '{chain}' — shared process-wide",
                )

    @staticmethod
    def _owning_module(
        project: Project, mod_path: str, root: str
    ) -> Optional[Tuple[str, str]]:
        """The module whose mutable binding ``root`` names, if any."""
        resolved = project.resolve(mod_path, root)
        if resolved is None:
            return None
        owner_path, symbol = resolved
        owner = project.modules.get(owner_path)
        if owner is not None and symbol in owner.module_mutables:
            return (owner_path, symbol)
        return None


class SharedClassState(ProjectRule):
    code = "RPL102"
    name = "no class-level shared mutable state"
    rationale = (
        "class attributes are shared by every instance; a class-level "
        "container or a write through the class object couples hosts/routers "
        "within a run and leaks into later scenarios in the same process"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for mod_path, mod in project.modules.items():
            for cls in mod.classes.values():
                for attr, line, col in cls.mutable_class_attrs:
                    yield self._diag(
                        mod,
                        line,
                        col,
                        f"class-level mutable container '{cls.name}.{attr}' "
                        f"is shared across all instances — initialize it in "
                        f"__init__ instead",
                    )
            for qual, fn in mod.functions.items():
                for ref, attr, line, col in fn.classattr_writes:
                    if ref in ("cls", "type(self)", "self.__class__"):
                        target = ref
                    else:
                        found = project.find_class(mod_path, ref)
                        if found is None:
                            continue
                        target = found[1].name
                    yield self._diag(
                        mod,
                        line,
                        col,
                        f"'{qual}' writes class attribute '{target}.{attr}' — "
                        f"state stored on the class is shared by every instance",
                    )


class CapturedContainerParam(ProjectRule):
    code = "RPL103"
    name = "no uncopied mutable-container parameters in __init__"
    rationale = (
        "storing a caller-owned list/dict/set without copying aliases state "
        "across components; a later mutation on either side leaks through "
        "the boundary"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for mod_path, mod in project.modules.items():
            for qual, fn in mod.functions.items():
                for attr, param, head, line, col in fn.init_captures:
                    copy_hint = {"list": "list", "set": "set"}.get(
                        head.lower().rstrip("[]"), "dict"
                    )
                    yield self._diag(
                        mod,
                        line,
                        col,
                        f"{qual} stores mutable parameter '{param}' "
                        f"(annotated {head}) as 'self.{attr}' without "
                        f"copying — use {copy_hint}({param})",
                    )
