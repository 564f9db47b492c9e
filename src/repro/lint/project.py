"""Whole-program project model: parse once, analyze across modules.

reprolint v1 rules see one file at a time, which is exactly the wrong
granularity for the cross-module determinism invariants: whether an
event handler reaches module state *in another file*, whether two
modules accidentally claim the same RNG stream name, whether a journal
kind emitted in ``repro/backprop`` is documented in the schema table in
``repro/obs/journal.py``.  This module builds the shared substrate for
those cross-module passes:

* :func:`extract_facts` — one AST walk per module producing a
  :class:`ModuleFacts` record: imports (resolved to project modules),
  module-level mutable bindings, class/method structure, per-function
  call and mutation facts, RNG-stream / journal-kind / metric-name
  literals, and the inline-suppression map.  Facts are plain picklable
  dataclasses, so parallel parsing (``repro lint --jobs``) ships facts
  across process boundaries instead of ASTs.
* :class:`Project` — the loaded whole program: facts per module plus
  the import-resolution symbol table the passes query.
* :class:`ProjectRule` — the base class for cross-module rules
  (:mod:`repro.lint.passes`), mirroring :class:`repro.lint.rules.Rule`
  but checked against the whole project instead of one tree.

The analysis is deliberately conservative and purely syntactic (stdlib
``ast`` only): name resolution follows explicit imports, method calls
resolve by name when the receiver is unknown, and anything dynamic
(``getattr``, ``importlib``) is invisible.  Rules built on top aim for
zero false positives on idiomatic code, the same contract as v1.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic

__all__ = [
    "ClassFacts",
    "FunctionFacts",
    "JournalUse",
    "MetricUse",
    "ModuleFacts",
    "Project",
    "ProjectRule",
    "StreamUse",
    "extract_facts",
]

# Methods that mutate their receiver in place (shard-safety passes).
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "appendleft",
        "extendleft",
    }
)

# Expressions recognisably creating a mutable container.
_MUTABLE_FACTORY_NAMES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
    }
)

# Annotation heads naming mutable container types (RPL103).
MUTABLE_ANNOTATIONS: FrozenSet[str] = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "List",
        "Dict",
        "Set",
        "DefaultDict",
        "defaultdict",
        "Counter",
        "OrderedDict",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
    }
)

# Callables whose callable arguments become simulation event handlers:
# the Simulator/Timer surface of repro.sim.engine plus the component
# registration hooks (delivery handlers, epoch listeners).
HANDLER_REGISTRATION_APIS: FrozenSet[str] = frozenset(
    {
        "schedule",
        "schedule_at",
        "every",
        "on_deliver",
        "on_epoch",
    }
)

#: Name of the journal schema table (RPL3xx) — a module-level
#: ``Dict[str, str]`` literal mapping journal kind -> meaning.
JOURNAL_KINDS_TABLE = "JOURNAL_KINDS"

_METRIC_APIS = frozenset({"counter", "gauge", "histogram"})
_MODULE_QUALNAME = "<module>"


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _chain_root(node: ast.AST) -> Optional[str]:
    """Base Name of an Attribute/Subscript chain (``a`` in ``a.b[c].d``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_mutable_container_expr(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORY_NAMES
    )


def _annotation_heads(node: Optional[ast.AST]) -> FrozenSet[str]:
    """Type-name heads an annotation may denote (Optional/Union unwrapped)."""
    heads: set = set()
    stack: List[ast.AST] = [] if node is None else [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Subscript):
            head = _annotation_heads(n.value)
            if head & {"Optional", "Union"}:
                sl = n.slice
                stack.extend(sl.elts if isinstance(sl, ast.Tuple) else [sl])
            else:
                heads |= head
        elif isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitOr):
            stack.extend([n.left, n.right])
        elif isinstance(n, ast.Name):
            heads.add(n.id)
        elif isinstance(n, ast.Attribute):
            heads.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                stack.append(ast.parse(n.value, mode="eval").body)
            except SyntaxError:
                pass
    return frozenset(heads)


# ----------------------------------------------------------------------
# Per-module facts (picklable — they cross process boundaries)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamUse:
    """One RNG stream-name site: ``.stream(x)`` / ``derive_seed(_, x)``.

    ``prefix`` is the static literal head of an f-string name
    (``f"client.{leaf}"`` -> ``"client."``) — the *stream family*
    idiom for one stream per host.  It stays None for literal
    names and for f-strings with no literal head.
    """

    api: str  # "stream" | "spawn" | "derive_seed"
    name: Optional[str]  # literal value, None when dynamic
    line: int
    col: int
    prefix: Optional[str] = None


@dataclass(frozen=True)
class JournalUse:
    """One ``journal.record(kind, ...)`` site."""

    kind: Optional[str]  # literal value, None when dynamic
    line: int
    col: int


@dataclass(frozen=True)
class MetricUse:
    """One ``registry.counter/gauge/histogram("name", ...)`` site."""

    instrument: str
    name: str
    line: int
    col: int


@dataclass
class ClassFacts:
    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    # (attr, line, col) of class-level mutable container bindings
    mutable_class_attrs: List[Tuple[str, int, int]] = field(default_factory=list)


@dataclass
class FunctionFacts:
    """Call/mutation facts of one function, method, or the module body."""

    qualname: str
    cls: Optional[str]
    line: int
    # (dotted callee, line, col, n_args) — n_args counts args + keywords
    calls: List[Tuple[str, int, int, int]] = field(default_factory=list)
    # ("self"|"name", ref) callables handed to a handler-registration API
    registered_callbacks: List[Tuple[str, str]] = field(default_factory=list)
    # names bound locally (params, assignments, loop targets): shadowing
    local_names: List[str] = field(default_factory=list)
    # (name, line, col) — rebinding of a declared-global name
    global_writes: List[Tuple[str, int, int]] = field(default_factory=list)
    # (root name, chain, line, col) — in-place mutation whose target
    # chain is rooted at a bare name
    name_mutations: List[Tuple[str, str, int, int]] = field(default_factory=list)
    # (class ref, attr, line, col) — assignment to a class attribute
    classattr_writes: List[Tuple[str, str, int, int]] = field(default_factory=list)
    # (self attr, param, annotation head, line, col) — __init__ storing
    # a mutable-container parameter without a defensive copy
    init_captures: List[Tuple[str, str, str, int, int]] = field(default_factory=list)


@dataclass
class ModuleFacts:
    module_path: str
    display_path: str
    # local name -> (resolved project module path or None, original name)
    imports: Dict[str, Tuple[Optional[str], str]] = field(default_factory=dict)
    module_bindings: List[str] = field(default_factory=list)
    # module-level name -> line of its mutable-container binding
    module_mutables: Dict[str, int] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    streams: List[StreamUse] = field(default_factory=list)
    journal_uses: List[JournalUse] = field(default_factory=list)
    metric_uses: List[MetricUse] = field(default_factory=list)
    # JOURNAL_KINDS table: kind -> line of its key (None: no table here)
    journal_kinds_table: Optional[Dict[str, int]] = None
    journal_kinds_line: int = 0
    # physical line -> suppressed codes (empty frozenset = all codes)
    suppressed: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    parse_error: Optional[Tuple[int, int, str]] = None


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _resolve_import(
    module_path: str, node: ast.ImportFrom, known: FrozenSet[str]
) -> Iterator[Tuple[str, Tuple[Optional[str], str]]]:
    """Map imported local names to project module paths when resolvable."""
    pkg_parts = list(PurePosixPath(module_path).parent.parts)
    if node.level > 0:
        # level=1 is the current package, each extra level one parent up.
        base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
        if node.level - 1 > len(pkg_parts):
            base = []
    else:
        base = []
    mod_parts = base + (node.module.split(".") if node.module else [])

    def as_module(parts: List[str]) -> Optional[str]:
        if not parts:
            return None
        for cand in (
            "/".join(parts) + ".py",
            "/".join(parts) + "/__init__.py",
        ):
            if cand in known:
                return cand
        return None

    source = as_module(mod_parts)
    for alias in node.names:
        local = alias.asname or alias.name
        # `from .passes import shard_safety` — the name itself may be a
        # submodule rather than a symbol of the package.
        submodule = as_module(mod_parts + [alias.name])
        yield local, (submodule or source, alias.name)


class _FactsVisitor(ast.NodeVisitor):
    """Single-pass extractor feeding :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts, known_modules: FrozenSet[str]) -> None:
        self.facts = facts
        self.known = known_modules
        self._cls_stack: List[str] = []
        self._fn_stack: List[FunctionFacts] = []
        mod_fn = FunctionFacts(qualname=_MODULE_QUALNAME, cls=None, line=1)
        facts.functions[_MODULE_QUALNAME] = mod_fn
        self._module_fn = mod_fn
        self._global_decls: Dict[int, set] = {id(mod_fn): set()}

    # -- scope helpers -------------------------------------------------
    @property
    def _fn(self) -> FunctionFacts:
        return self._fn_stack[-1] if self._fn_stack else self._module_fn

    def _qualname(self, name: str) -> str:
        parts = []
        if self._cls_stack:
            parts.append(".".join(self._cls_stack))
        if self._fn_stack:
            parts.append(self._fn_stack[-1].qualname.split(".")[-1])
        parts.append(name)
        return ".".join(parts)

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            cand = alias.name.replace(".", "/")
            resolved = None
            for c in (cand + ".py", cand + "/__init__.py"):
                if c in self.known:
                    resolved = c
                    break
            self.facts.imports[local] = (resolved, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for local, target in _resolve_import(
            self.facts.module_path, node, self.known
        ):
            self.facts.imports[local] = target
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._fn_stack:
            cls = ClassFacts(
                name=node.name,
                line=node.lineno,
                bases=[d for d in map(dotted_name, node.bases) if d is not None],
            )
            for stmt in node.body:
                value = None
                target: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    value, target = stmt.value, stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value, target = stmt.value, stmt.target
                if (
                    value is not None
                    and isinstance(target, ast.Name)
                    and _is_mutable_container_expr(value)
                ):
                    cls.mutable_class_attrs.append(
                        (target.id, stmt.lineno, stmt.col_offset + 1)
                    )
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.append(stmt.name)
            self.facts.classes[node.name] = cls
            if not self._cls_stack:
                self.facts.module_bindings.append(node.name)
        self._cls_stack.append(node.name)
        self.generic_visit(node)
        self._cls_stack.pop()

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        qual = self._qualname(node.name)
        fn = FunctionFacts(
            qualname=qual,
            cls=".".join(self._cls_stack) if self._cls_stack else None,
            line=node.lineno,
        )
        args = node.args
        params = [
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        fn.local_names.extend(params)
        self.facts.functions[qual] = fn
        if not self._fn_stack and not self._cls_stack:
            self.facts.module_bindings.append(node.name)
        self._fn_stack.append(fn)
        self._global_decls[id(fn)] = set()
        if node.name == "__init__" and len(self._cls_stack) == 1:
            self._collect_init_captures(node, fn)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _collect_init_captures(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        fn: FunctionFacts,
    ) -> None:
        anns: Dict[str, FrozenSet[str]] = {}
        for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
            heads = _annotation_heads(a.annotation)
            if heads & MUTABLE_ANNOTATIONS:
                anns[a.arg] = heads
        if not anns:
            return
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id in anns
            ):
                continue
            head = sorted(anns[stmt.value.id] & MUTABLE_ANNOTATIONS)[0]
            fn.init_captures.append(
                (target.attr, stmt.value.id, head, stmt.lineno, stmt.col_offset + 1)
            )

    # -- statements ----------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self._global_decls.setdefault(id(self._fn), set()).update(node.names)

    def _record_binding(self, name: str) -> None:
        fn = self._fn
        if fn is self._module_fn and not self._cls_stack:
            self.facts.module_bindings.append(name)
        else:
            fn.local_names.append(name)

    def _handle_target(self, target: ast.expr, node: ast.stmt) -> None:
        fn = self._fn
        if isinstance(target, ast.Name):
            if target.id in self._global_decls.get(id(fn), ()):
                fn.global_writes.append(
                    (target.id, node.lineno, node.col_offset + 1)
                )
            else:
                self._record_binding(target.id)
        elif isinstance(target, ast.Subscript):
            root = _chain_root(target)
            chain = dotted_name(target.value)
            if root is not None:
                fn.name_mutations.append(
                    (root, (chain or root) + "[...]", node.lineno, node.col_offset + 1)
                )
        elif isinstance(target, ast.Attribute):
            ref = self._class_ref(target.value)
            if ref is not None:
                fn.classattr_writes.append(
                    (ref, target.attr, node.lineno, node.col_offset + 1)
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_target(elt, node)
        elif isinstance(target, ast.Starred):
            self._handle_target(target.value, node)

    def _class_ref(self, node: ast.expr) -> Optional[str]:
        """A reference naming a *class* rather than an instance."""
        if isinstance(node, ast.Name):
            if node.id == "cls":
                return "cls"
            if node.id in self.facts.classes or node.id in self.facts.imports:
                # Resolution to an actual class happens in the pass; the
                # extractor only records candidate symbol references.
                if node.id[:1].isupper():
                    return node.id
            return None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "type"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            return "type(self)"
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__class__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return "self.__class__"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_target(target, node)
        # Module-level mutable-container bindings + the schema table.
        if (
            self._fn is self._module_fn
            and not self._cls_stack
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            self._module_binding_value(node.targets[0].id, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_target(node.target, node)
            if (
                self._fn is self._module_fn
                and not self._cls_stack
                and isinstance(node.target, ast.Name)
            ):
                self._module_binding_value(node.target.id, node.value, node)
        self.generic_visit(node)

    def _module_binding_value(
        self, name: str, value: ast.expr, node: ast.stmt
    ) -> None:
        if _is_mutable_container_expr(value):
            self.facts.module_mutables.setdefault(name, node.lineno)
        if name == JOURNAL_KINDS_TABLE and isinstance(value, ast.Dict):
            table: Dict[str, int] = {}
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    table[key.value] = key.lineno
            self.facts.journal_kinds_table = table
            self.facts.journal_kinds_line = node.lineno

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        fn = self._fn
        if isinstance(node.target, ast.Name):
            if node.target.id in self._global_decls.get(id(fn), ()):
                fn.global_writes.append(
                    (node.target.id, node.lineno, node.col_offset + 1)
                )
            elif fn is not self._module_fn:
                # `x += ...` on a non-local name both reads and writes; a
                # plain rebinding makes it local, so nothing to record.
                fn.local_names.append(node.target.id)
        elif isinstance(node.target, (ast.Subscript, ast.Attribute)):
            root = _chain_root(node.target)
            chain = dotted_name(node.target) or dotted_name(node.target.value)
            if root is not None and root not in ("self", "cls"):
                fn.name_mutations.append(
                    (root, chain or root, node.lineno, node.col_offset + 1)
                )
        self.generic_visit(node)

    def _handle_loop_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._record_binding(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_loop_target(elt)

    def visit_For(self, node: ast.For) -> None:
        self._handle_loop_target(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._handle_loop_target(node.target)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._handle_loop_target(node.optional_vars)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn
        dotted = dotted_name(node.func)
        n_args = len(node.args) + len(node.keywords)
        if dotted is not None:
            fn.calls.append(
                (dotted, node.lineno, node.col_offset + 1, n_args)
            )
            parts = dotted.split(".")
            tail = parts[-1]
            first = node.args[0] if node.args else None
            # RNG stream sites.  ``.spawn`` only counts with a literal
            # string argument: the name is overloaded (attacker policies
            # also expose ``spawn(env)``) and only registry spawns take
            # stream-name strings.
            if tail == "stream" and len(node.args) >= 1:
                self._stream_use(tail, first, node)
            elif tail == "derive_seed" and len(node.args) >= 2:
                self._stream_use(tail, node.args[1], node)
            elif (
                tail == "spawn"
                and len(node.args) >= 1
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                self._stream_use(tail, first, node)
            # Journal record sites
            if tail == "record" and len(parts) >= 2 and parts[-2] == "journal":
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    self.facts.journal_uses.append(
                        JournalUse(first.value, node.lineno, node.col_offset + 1)
                    )
                else:
                    self.facts.journal_uses.append(
                        JournalUse(None, node.lineno, node.col_offset + 1)
                    )
            # Metric instrument sites
            if (
                tail in _METRIC_APIS
                and len(parts) >= 2
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                self.facts.metric_uses.append(
                    MetricUse(tail, first.value, node.lineno, node.col_offset + 1)
                )
            # In-place mutation through a method call
            if tail in MUTATOR_METHODS and isinstance(node.func, ast.Attribute):
                root = _chain_root(node.func.value)
                if root is not None and root not in ("self", "cls"):
                    chain = dotted_name(node.func.value)
                    fn.name_mutations.append(
                        (
                            root,
                            f"{chain or root}.{tail}()",
                            node.lineno,
                            node.col_offset + 1,
                        )
                    )
            # Handler registration: callable arguments become entries.
            if tail in HANDLER_REGISTRATION_APIS:
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    self._collect_callback_refs(arg, fn)
        self.generic_visit(node)

    def _stream_use(self, api: str, arg: Optional[ast.expr], node: ast.Call) -> None:
        name: Optional[str] = None
        prefix: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            # f-string: capture the static literal head, the auditable
            # part of a per-host "stream family" name.
            head = arg.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                prefix = head.value
        self.facts.streams.append(
            StreamUse(api, name, node.lineno, node.col_offset + 1, prefix=prefix)
        )

    def _collect_callback_refs(self, arg: ast.expr, fn: FunctionFacts) -> None:
        """Callable references inside a registration argument.

        Walks the whole argument expression so ``self._poll``, a bare
        function name, and callables referenced inside an inline lambda
        are all captured (a conservative over-approximation).
        """
        for sub in ast.walk(arg):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                fn.registered_callbacks.append(("self", sub.attr))
            elif isinstance(sub, ast.Name) and not isinstance(
                getattr(sub, "ctx", None), ast.Store
            ):
                fn.registered_callbacks.append(("name", sub.id))


def scan_suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Inline-suppression map: 1-based line -> suppressed codes.

    Mirrors the runner's ``_is_suppressed`` semantics exactly: a
    suppression covers its own line, and a contiguous block of
    comment-only lines directly above covers the next code line.
    Empty frozenset means "all codes".
    """
    from .runner import _suppressed_codes

    out: Dict[int, FrozenSet[str]] = {}
    for i in range(1, len(lines) + 1):
        candidates = [lines[i - 1]]
        prev = i - 2
        while prev >= 0 and lines[prev].lstrip().startswith("#"):
            candidates.append(lines[prev])
            prev -= 1
        merged: Optional[FrozenSet[str]] = None
        for line in candidates:
            codes = _suppressed_codes(line)
            if codes is None:
                continue
            if not codes:
                merged = frozenset()
                break
            merged = codes if merged is None else merged | codes
        if merged is not None:
            out[i] = merged
    return out


def extract_facts(
    source: str,
    module_path: str,
    known_modules: FrozenSet[str],
    display_path: Optional[str] = None,
) -> ModuleFacts:
    """Parse one module and extract its cross-module facts."""
    facts = ModuleFacts(
        module_path=module_path, display_path=display_path or module_path
    )
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        facts.parse_error = (exc.lineno or 1, (exc.offset or 0) or 1, exc.msg or "")
        return facts
    facts.suppressed = scan_suppressions(source.splitlines())
    _FactsVisitor(facts, known_modules).visit(tree)
    return facts


# ----------------------------------------------------------------------
# The loaded project
# ----------------------------------------------------------------------
class Project:
    """All modules of one source tree, parsed once, plus the symbol table."""

    def __init__(self, root: str, facts: Dict[str, ModuleFacts]) -> None:
        self.root = root
        self.modules: Dict[str, ModuleFacts] = dict(sorted(facts.items()))

    # -- construction --------------------------------------------------
    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], root: str = "<memory>"
    ) -> "Project":
        """Build a project from in-memory ``{module_path: source}`` —
        the fixture/test entry point."""
        known = frozenset(sources)
        facts = {
            path: extract_facts(src, path, known)
            for path, src in sources.items()
        }
        return cls(root, facts)

    @classmethod
    def load(cls, root: str, jobs: Optional[int] = None) -> "Project":
        """Parse every ``*.py`` under ``root`` (``--jobs`` parallelizes)."""
        root_path = Path(root)
        files = sorted(
            f
            for f in root_path.rglob("*.py")
            if "__pycache__" not in f.parts
        )
        rels = [f.relative_to(root_path).as_posix() for f in files]
        known = frozenset(rels)
        display = [str(f) for f in files]
        facts: Dict[str, ModuleFacts] = {}
        if jobs is not None and jobs > 1 and len(files) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for mf in pool.map(
                    _extract_one,
                    [str(f) for f in files],
                    rels,
                    [known] * len(files),
                    display,
                    chunksize=8,
                ):
                    facts[mf.module_path] = mf
        else:
            for f, rel, disp in zip(files, rels, display):
                facts[rel] = extract_facts(
                    f.read_text(encoding="utf-8"), rel, known, disp
                )
        return cls(str(root), facts)

    # -- symbol table --------------------------------------------------
    def resolve(
        self, module_path: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``module_path`` to ``(module, symbol)``.

        Follows one explicit import hop; local bindings win.  Returns
        None for builtins and third-party symbols.
        """
        mod = self.modules.get(module_path)
        if mod is None:
            return None
        if (
            name in mod.classes
            or name in mod.functions
            or name in mod.module_mutables
            or name in mod.module_bindings
        ):
            return (module_path, name)
        target = mod.imports.get(name)
        if target is None:
            return None
        source, original = target
        if source is None:
            return None
        if original == name or "." not in name:
            return (source, original)
        return None

    def find_class(
        self, module_path: str, name: str
    ) -> Optional[Tuple[str, ClassFacts]]:
        resolved = self.resolve(module_path, name)
        if resolved is None:
            return None
        mod_path, symbol = resolved
        mod = self.modules.get(mod_path)
        if mod is not None and symbol in mod.classes:
            return (mod_path, mod.classes[symbol])
        return None

    def is_suppressed(self, diag: Diagnostic, module_path: str) -> bool:
        mod = self.modules.get(module_path)
        if mod is None:
            return False
        codes = mod.suppressed.get(diag.line)
        return codes is not None and (not codes or diag.code in codes)


def _extract_one(
    path: str, rel: str, known: FrozenSet[str], display: str
) -> ModuleFacts:
    """Worker for parallel project loading (module-level: picklable)."""
    return extract_facts(
        Path(path).read_text(encoding="utf-8"), rel, known, display
    )


# ----------------------------------------------------------------------
# Base class of the cross-module passes
# ----------------------------------------------------------------------
class ProjectRule:
    """One whole-program invariant, one diagnostic code (RPL1xx-3xx)."""

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, project: Project) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def _diag(
        self, module: ModuleFacts, line: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=module.display_path,
            line=line,
            col=col,
            code=self.code,
            message=message,
        )
