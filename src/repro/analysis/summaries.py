"""Interprocedural function summaries, iterated to fixpoint (v4).

PR 6 gave R003 exactly one caller→callee hop: a call's dimension came
from analysing the callee's own returns, with anything deeper falling
back to name suffixes.  This module replaces that with classic
summary-based analysis: every function gets a :class:`FunctionSummary`
— its return-unit dimension, whether its return value carries process
entropy, which of its parameters (transitively) reach a seed sink, and
which modeled exceptions can escape it — and summaries are computed
over the call graph's SCC condensation (:meth:`~.project.ProjectGraph.
sccs`) in reverse topological order.  Acyclic chains converge in one
visit per function; mutually-recursive groups iterate within their SCC
until the (finite, small) facts stop changing.

Alongside the per-function table, :class:`ClassFacts` aggregates
**instance-field facts** per class: ``self.x`` assignments across all
methods join into a per-field dimension environment (``__init__``
writes seed reads elsewhere; conflicting writers or container mutators
invalidate), plus the set of fields ever assigned from process entropy.
These seed the ``"self.x"`` keys of :mod:`.dataflow`'s environment so
unit drift and seed taint flow through objects, not just locals.

Conservatism splits by consumer.  The dimension/entropy/sink facts keep
the under-approximation contract — unresolvable calls produce no facts,
so rules miss findings rather than invent them.  The exception facts
invert it on purpose: R016 asserts the *absence* of escaping
``OSError``/``EOFError``, which needs a may-escape **over**-
approximation, sourced from a curated table of stdlib raisers plus
callee summaries (an unresolvable call still contributes nothing — the
table is what keeps the direction honest for the IO leaves that
matter).

Every lint rebuilds the whole table; nothing is cached between runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .dataflow import (
    EntropyTaint,
    SEED_SINK_LEAVES,
    all_param_names,
    analyze_scope,
    default_call_resolver,
    infer_return_dim,
    self_attr_key,
    suffix_dim,
)
from .project import FuncKey, ProjectGraph
from .symbols import FunctionInfo

#: Iterations an SCC may take before we accept the last state.  Facts
#: cross one call edge per sweep, so a cycle of N functions needs at
#: most ~N sweeps; the floor covers tiny cycles whose dimension facts
#: wobble once before settling.
_MAX_SCC_SWEEPS = 16

# ----------------------------------------------------------------------
# exception-flow model (R016)
# ----------------------------------------------------------------------

#: The two abstract exception facts R016 reasons about.  OSError stands
#: for itself and every subclass (FileNotFoundError and friends raised
#: by the IO leaves below); EOFError is what truncated pickles/npz
#: archives surface through ``np.load``.
OS_ERROR = "OSError"
EOF_ERROR = "EOFError"

#: Exception names that *raise* as the abstract OSError fact.
_OS_RAISE_NAMES = frozenset({
    "OSError", "IOError", "FileNotFoundError", "PermissionError",
    "FileExistsError", "IsADirectoryError", "NotADirectoryError",
    "InterruptedError", "BlockingIOError", "TimeoutError",
    "BrokenPipeError", "ConnectionError", "ConnectionResetError",
    "ConnectionAbortedError", "ConnectionRefusedError",
})

#: Handler names that *catch* the abstract OSError fact.  Deliberately
#: narrower than the raise set: ``except FileNotFoundError`` does not
#: prove a general OSError cannot escape, so only the exact type and
#: the catch-alls count (may-escape stays an over-approximation).
_OS_CATCH_NAMES = frozenset({"OSError", "IOError"})
_CATCH_ALL_NAMES = frozenset({"Exception", "BaseException"})

#: Call leaves (last dotted segment) that can raise OSError.  Curated
#: for unambiguity: ``os.remove``/``list.remove`` and ``os.replace``/
#: ``str.replace`` share leaves, so ``remove`` and ``replace`` are
#: *excluded* — a missing leaf only under-reports, which the fail-open
#: sweep tolerates better than false alarms.
_OS_RAISER_LEAVES = frozenset({
    "open", "fdopen", "mkstemp", "mkdtemp", "unlink", "stat", "lstat",
    "mkdir", "makedirs", "rmdir", "rename", "utime", "chmod",
    "touch", "scandir", "listdir", "rmtree", "read_text", "read_bytes",
    "write_text", "write_bytes", "SharedMemory", "getsize",
})

#: Exact dotted calls with richer raise sets than their leaf implies.
_DOTTED_RAISERS: Dict[str, FrozenSet[str]] = {
    "np.load": frozenset({OS_ERROR, EOF_ERROR}),
    "numpy.load": frozenset({OS_ERROR, EOF_ERROR}),
    "np.save": frozenset({OS_ERROR}),
    "numpy.save": frozenset({OS_ERROR}),
    "np.savez": frozenset({OS_ERROR}),
    "numpy.savez": frozenset({OS_ERROR}),
}

#: Pool methods that run a callable in a worker process: the callable's
#: escaping exceptions resurface in the parent when the result is
#: gathered, so the submit site inherits the entry's raise set.
_BOUNDARY_LEAVES = frozenset({"submit", "run_ordered", "map"})


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts of one function, joined at call sites."""

    return_dim: Optional[str] = None
    entropy_return: bool = False
    seed_sink_params: FrozenSet[str] = frozenset()
    raises: FrozenSet[str] = frozenset()


@dataclass
class ClassFacts:
    """Instance-field facts of one class, joined across its methods."""

    fields_dim: Dict[str, Optional[str]] = field(default_factory=dict)
    field_containers: Dict[str, Dict[object, Optional[str]]] = field(
        default_factory=dict
    )
    entropy_fields: FrozenSet[str] = frozenset()


# ----------------------------------------------------------------------
# per-function fact extraction
# ----------------------------------------------------------------------


def _walk_expr_shallow(node: ast.AST):
    """Walk an expression without entering lambdas or nested defs.

    A lambda body runs when the lambda is *called*, somewhere else
    entirely — attributing its calls to the enclosing statement would
    over-report raises and sink flows at the wrong site.
    """
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(
            cur, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(cur))


def _own_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """A statement's own expressions, excluding nested block bodies."""
    own: List[ast.AST] = []
    for fname, value in ast.iter_fields(stmt):
        if fname in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.AST):
            own.append(value)
        elif isinstance(value, list):
            own.extend(v for v in value if isinstance(v, ast.AST))
    return own


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


#: ``raise_resolver(call_node, dotted) -> frozenset`` of abstract
#: exception facts the call may raise.
RaiseResolver = Callable[[ast.Call, str], FrozenSet[str]]

#: Optional site recorder: ``(exc, lineno, col, why)`` per raising site.
SiteRecorder = Callable[[str, int, int, str], None]


def _handler_catches(handler: ast.ExceptHandler) -> Tuple[Set[str], bool]:
    """Abstract facts this handler catches; bool = catches everything."""
    if handler.type is None:
        return {OS_ERROR, EOF_ERROR}, True
    names: List[str] = []
    if isinstance(handler.type, ast.Tuple):
        names = [_dotted(t).rsplit(".", 1)[-1] for t in handler.type.elts]
    else:
        names = [_dotted(handler.type).rsplit(".", 1)[-1]]
    caught: Set[str] = set()
    for name in names:
        if name in _CATCH_ALL_NAMES:
            return {OS_ERROR, EOF_ERROR}, True
        if name in _OS_CATCH_NAMES:
            caught.add(OS_ERROR)
        if name == "EOFError":
            caught.add(EOF_ERROR)
    return caught, False


def _raise_facts(exc: ast.expr) -> FrozenSet[str]:
    """Abstract facts of an explicit ``raise <exc>`` statement."""
    node = exc
    if isinstance(node, ast.Call):
        node = node.func
    leaf = _dotted(node).rsplit(".", 1)[-1]
    if leaf in _OS_RAISE_NAMES:
        return frozenset({OS_ERROR})
    if leaf == "EOFError":
        return frozenset({EOF_ERROR})
    return frozenset()


def escaping_raises(
    body: List[ast.stmt],
    resolver: RaiseResolver,
    record: Optional[SiteRecorder] = None,
    _reraise: FrozenSet[str] = frozenset(),
) -> FrozenSet[str]:
    """Abstract exceptions that can escape ``body`` (may-escape).

    Handles the try/except/else/finally geometry precisely enough for
    the repo's fail-open idioms: handler sets subtract from the body's
    facts, a handler's own body (including a bare ``raise`` re-raising
    what it caught) contributes at the *outer* level, and ``else``/
    ``finally`` clauses escape past the handlers entirely.
    """
    out: Set[str] = set()
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                out |= _reraise
                if record and _reraise:
                    for exc in sorted(_reraise):
                        record(exc, stmt.lineno, stmt.col_offset,
                               "bare raise re-raises the caught exception")
            else:
                facts = _raise_facts(stmt.exc)
                out |= facts
                if record:
                    for exc in sorted(facts):
                        record(exc, stmt.lineno, stmt.col_offset,
                               f"explicit raise of {exc}")
            continue
        # Calls in this statement's own expressions.
        for expr in _own_exprs(stmt):
            for sub in _walk_expr_shallow(expr):
                if isinstance(sub, ast.Call):
                    dotted = _dotted(sub.func)
                    facts = resolver(sub, dotted)
                    out |= facts
                    if record:
                        for exc in sorted(facts):
                            record(exc, sub.lineno, sub.col_offset,
                                   f"{dotted or 'call'}() may raise {exc}")
        if isinstance(stmt, ast.Try):
            # Swallow the recorder for the guarded body: only facts that
            # survive the handlers are real sites at this level.
            body_set = escaping_raises(stmt.body, resolver, None, _reraise)
            caught_union: Set[str] = set()
            for handler in stmt.handlers:
                caught, _all = _handler_catches(handler)
                caught_union |= caught
            survived = body_set - caught_union
            out |= survived
            if record and survived:
                # Re-walk the body with the recorder, keeping only the
                # escaping facts' sites.
                escaping_raises(
                    stmt.body,
                    resolver,
                    lambda e, ln, c, w: (
                        record(e, ln, c, w) if e in survived else None
                    ),
                    _reraise,
                )
            for handler in stmt.handlers:
                caught, _all = _handler_catches(handler)
                out |= escaping_raises(
                    handler.body, resolver, record,
                    _reraise=frozenset(body_set & caught),
                )
            out |= escaping_raises(stmt.orelse, resolver, record, _reraise)
            out |= escaping_raises(stmt.finalbody, resolver, record, _reraise)
        else:
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    out |= escaping_raises(inner, resolver, record, _reraise)
    return frozenset(out)


class _SinkFlow:
    """Which parameters of one function reach a seed sink.

    A tiny origin-tracking pass: every local maps to the set of
    parameters its value derives from (assignments union, loops bind
    from their iterable), and any argument fed to ``default_rng``/
    ``SeedSequence`` — or to a callee parameter that itself reaches a
    sink, per that callee's summary — marks its origin parameters.
    """

    def __init__(
        self,
        params: Tuple[str, ...],
        callee_sinks: Callable[
            [str], Optional[Tuple[Tuple[str, ...], FrozenSet[str]]]
        ],
    ) -> None:
        self.env: Dict[str, Set[str]] = {p: {p} for p in params}
        self.callee_sinks = callee_sinks
        self.sink_params: Set[str] = set()

    def _origins(self, node: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for sub in _walk_expr_shallow(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out |= self.env.get(sub.id, set())
        return out

    def _bind(self, target: ast.expr, origins: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, origins)

    def _scan_calls(self, stmt: ast.stmt) -> None:
        for expr in _own_exprs(stmt):
            for sub in _walk_expr_shallow(expr):
                if not isinstance(sub, ast.Call):
                    continue
                dotted = _dotted(sub.func)
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in SEED_SINK_LEAVES:
                    for arg in (*sub.args, *[k.value for k in sub.keywords]):
                        self.sink_params |= self._origins(arg)
                    continue
                resolved = self.callee_sinks(dotted) if dotted else None
                if resolved is None:
                    continue
                params, sinks = resolved
                if not sinks:
                    continue
                if params and params[0] in ("self", "cls") and isinstance(
                    sub.func, ast.Attribute
                ):
                    params = params[1:]
                for pname, arg in zip(params, sub.args):
                    if isinstance(arg, ast.Starred):
                        break
                    if pname in sinks:
                        self.sink_params |= self._origins(arg)
                named = set(params)
                for kw in sub.keywords:
                    if kw.arg in named and kw.arg in sinks:
                        self.sink_params |= self._origins(kw.value)

    def run(self, body: List[ast.stmt]) -> "_SinkFlow":
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            self._scan_calls(stmt)
            if isinstance(stmt, ast.Assign):
                origins = self._origins(stmt.value)
                for target in stmt.targets:
                    self._bind(target, origins)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self._origins(stmt.value))
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.env.setdefault(stmt.target.id, set()).update(
                    self._origins(stmt.value)
                )
            elif isinstance(stmt, ast.For):
                self._bind(stmt.target, self._origins(stmt.iter))
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    self.run(inner)
            for handler in getattr(stmt, "handlers", ()) or ():
                self.run(handler.body)
        return self


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------


@dataclass
class SummaryIndex:
    """Fixpoint summary table plus per-class field facts."""

    functions: Dict[FuncKey, FunctionSummary] = field(default_factory=dict)
    classes: Dict[Tuple[str, str], ClassFacts] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)
    _graph: Optional[ProjectGraph] = None

    # ------------------------------------------------------------ build
    @classmethod
    def build(cls, graph: ProjectGraph) -> "SummaryIndex":
        t0 = perf_counter()
        index = cls(_graph=graph)
        index._build_class_facts(graph)
        components = graph.sccs()
        for comp in components:
            index._fixpoint(graph, comp)
        index.stats = {
            "sccs": len(components),
            "functions": len(graph.functions),
            "fixpoint_s": round(perf_counter() - t0, 4),
        }
        return index

    # ----------------------------------------------------- class facts
    def _build_class_facts(self, graph: ProjectGraph) -> None:
        for syms in graph.by_relpath.values():
            tree = syms.unit.tree

            def walk(body, prefix: str) -> None:
                for node in body:
                    if isinstance(node, ast.ClassDef):
                        qual = f"{prefix}{node.name}"
                        self.classes[(syms.module, qual)] = (
                            _class_facts(node)
                        )
                        walk(node.body, f"{qual}.")
                    elif isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        walk(node.body, f"{prefix}{node.name}.")

            walk(tree.body, "")

    def class_facts_for(self, info: FunctionInfo) -> Optional[ClassFacts]:
        """Field facts of the class a method belongs to, if any."""
        prefix, _, _ = info.qualname.rpartition(".")
        if not prefix:
            return None
        return self.classes.get((info.module, prefix))

    # -------------------------------------------------------- fixpoint
    def _fixpoint(self, graph: ProjectGraph, comp: List[FuncKey]) -> None:
        sweeps = min(_MAX_SCC_SWEEPS, len(comp) + 3)
        for _ in range(sweeps):
            changed = False
            for key in comp:
                info = graph.functions[key]
                new = self._summarize(graph, info)
                if self.functions.get(key) != new:
                    self.functions[key] = new
                    changed = True
            if not changed:
                break

    def _summarize(
        self, graph: ProjectGraph, info: FunctionInfo
    ) -> FunctionSummary:
        node = info.node
        facts = self.class_facts_for(info)
        self_env = None
        if facts is not None and info.is_method:
            self_env = {
                f"self.{name}": dim
                for name, dim in facts.fields_dim.items()
            }

        return_dim = infer_return_dim(
            node, resolver=self.dim_resolver(info), self_env=self_env
        )

        taint = EntropyTaint(
            params=all_param_names(node),
            call_resolver=self.entropy_resolver(info),
            tainted_fields=(
                facts.entropy_fields if facts is not None else frozenset()
            ),
        )
        taint.run(node.body)

        flow = _SinkFlow(
            all_param_names(node), self.sink_resolver(info)
        ).run(node.body)

        raises = escaping_raises(node.body, self.raise_resolver(info))

        return FunctionSummary(
            return_dim=return_dim,
            entropy_return=taint.entropy_return,
            seed_sink_params=frozenset(flow.sink_params),
            raises=raises,
        )

    # ------------------------------------------------------- resolvers
    def dim_resolver(self, caller: Optional[FunctionInfo]):
        """Unit dimension of a call, through arbitrarily many hops."""

        def resolve(name: str) -> Optional[str]:
            callee = (
                self._graph.resolve_call(caller, name)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is None:
                return default_call_resolver(name)
            summary = self.functions.get(callee.key)
            if summary is not None:
                return summary.return_dim
            # Not yet summarized (first sweep of this SCC): the name
            # suffix is still a sound fact.
            return suffix_dim(callee.name)

        return resolve

    def entropy_resolver(self, caller: Optional[FunctionInfo]):
        """Why a call's return value is process entropy, or None."""

        def resolve(dotted: str) -> Optional[str]:
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is None:
                return None
            summary = self.functions.get(callee.key)
            if summary is not None and summary.entropy_return:
                return f"{dotted}() (its return value derives from process state)"
            return None

        return resolve

    def sink_resolver(self, caller: Optional[FunctionInfo]):
        """Callee parameter names + the subset reaching a seed sink."""

        def resolve(
            dotted: str,
        ) -> Optional[Tuple[Tuple[str, ...], FrozenSet[str]]]:
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is None:
                return None
            summary = self.functions.get(callee.key)
            if summary is None:
                return None
            params = all_param_names(callee.node)
            return params, summary.seed_sink_params

        return resolve

    def raise_resolver(self, caller: Optional[FunctionInfo]) -> RaiseResolver:
        """May-raise facts of one call site (table + summaries)."""

        def resolve(call: ast.Call, dotted: str) -> FrozenSet[str]:
            if not dotted:
                return frozenset()
            if dotted in _DOTTED_RAISERS:
                return _DOTTED_RAISERS[dotted]
            leaf = dotted.rsplit(".", 1)[-1]
            out: Set[str] = set()
            if leaf in _OS_RAISER_LEAVES:
                out.add(OS_ERROR)
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is not None:
                summary = self.functions.get(callee.key)
                if summary is not None:
                    out |= summary.raises
            if leaf in _BOUNDARY_LEAVES and call.args:
                # The submitted callable runs in a worker; whatever
                # escapes it resurfaces in this function when results
                # are gathered.
                entry_name = _dotted(call.args[0])
                entry = (
                    self._graph.resolve_call(caller, entry_name)
                    if self._graph is not None
                    and caller is not None
                    and entry_name
                    else None
                )
                if entry is not None:
                    entry_summary = self.functions.get(entry.key)
                    if entry_summary is not None:
                        out |= entry_summary.raises
            return frozenset(out)

        return resolve


def _class_facts(node: ast.ClassDef) -> ClassFacts:
    """Join ``self.x`` facts across one class's methods.

    ``__init__`` is processed first and seeds the per-field facts;
    every other method is a potential invalidator: a write that
    disagrees with (or obscures) the seeded dimension drops the fact,
    and a container mutator on a field drops its element facts.  The
    join is flow-insensitive across methods by design — any method may
    run between any two others — while each method body stays
    flow-sensitive through :class:`~.dataflow.ScopeAnalyzer`.
    """
    methods = [
        n for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    methods.sort(key=lambda m: (m.name != "__init__", m.name))

    facts = ClassFacts()
    conflicted: Set[str] = set()
    entropy: Set[str] = set()

    for method in methods:
        params = all_param_names(method)
        analyzer = analyze_scope(method.body, params=params)
        writes = {
            key[len("self."):]: dim
            for key, dim in analyzer.env.items()
            if key.startswith("self.")
        }
        is_init = method.name == "__init__"
        for name, dim in writes.items():
            if name not in facts.fields_dim:
                facts.fields_dim[name] = dim
            elif facts.fields_dim[name] != dim:
                conflicted.add(name)
            if not is_init:
                # A non-init writer supersedes any element facts the
                # constructor seeded for this field.
                facts.field_containers.pop(name, None)
        if is_init:
            for key, elems in analyzer.containers.items():
                if key.startswith("self."):
                    facts.field_containers[key[len("self."):]] = dict(elems)
        else:
            for key in _mutated_fields(method):
                facts.field_containers.pop(key, None)

        taint = EntropyTaint(params=params)
        taint.run(method.body)
        for key, dirty in taint.field_writes.items():
            if dirty:
                entropy.add(key)

    for name in conflicted:
        facts.fields_dim.pop(name, None)
    facts.entropy_fields = frozenset(entropy)
    return facts


def _mutated_fields(method: ast.AST) -> Set[str]:
    """Fields whose containers a method mutates in place."""
    from .dataflow import _CONTAINER_MUTATORS

    out: Set[str] = set()
    for sub in ast.walk(method):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _CONTAINER_MUTATORS
        ):
            key = self_attr_key(sub.func.value)
            if key is not None:
                out.add(key[len("self."):])
        elif isinstance(sub, ast.Subscript) and isinstance(
            sub.ctx, ast.Store
        ):
            key = self_attr_key(sub.value)
            if key is not None:
                out.add(key[len("self."):])
    return out
