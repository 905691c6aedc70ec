"""Unit-dimension dataflow: the lattice behind the v2 R003 rule.

Two layers live here:

* The **naming-convention classifier** (``classify_name`` /
  ``infer_dim``) — suffix-only inference.  ``classify_name`` seeds the
  lattice from parameter and attribute names; ``infer_dim`` classifies
  a whole name-shaped expression and is used live by R005, which needs
  it to tell dollar-vs-dollar equality apart and to decide when its
  zero-guard autofix is sign-safe.
* The **intraprocedural propagator** (:func:`analyze_scope`) — walks one
  function (or the module body) in source order carrying an environment
  of variable → dimension facts, seeded from parameter names and grown
  through assignments, so ``tmp = runtime_hours; total_usd += tmp``
  is a dollars/hours mix even though ``tmp`` itself is dimensionless to
  the naming pass.  Call results are resolved through the project graph
  when available (a callee's return dimension comes from its name
  suffix or, failing that, from analysing its own returns).

The conservatism contract is unchanged from v1: a fact is either
*confident* or absent, every merge of disagreeing facts is absent, and
issues fire only when **both** sides of an operation are confident and
conflict.  Dynamic features simply produce no facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

MONEY = "dollars"
HOURS = "hours"
SECONDS = "seconds"

_MONEY_WORDS = frozenset(
    {"usd", "dollar", "dollars", "cost", "costs", "price", "prices",
     "bill", "billed", "budget", "fee", "fees"}
)
_HOURS_WORDS = frozenset({"hours", "hour", "hrs", "hr"})
_SECONDS_WORDS = frozenset({"seconds", "secs", "sec"})

#: Name suffixes that pin a function's return dimension (also used by
#: R009's docstring cross-check and the ``--fix`` suffix renamer).
RETURN_SUFFIXES = {
    "_usd": MONEY,
    "_dollars": MONEY,
    "_cost": MONEY,
    "_hours": HOURS,
    "_hrs": HOURS,
    "_s": SECONDS,
    "_seconds": SECONDS,
}

#: Canonical suffix per dimension, for rename suggestions.
CANONICAL_SUFFIX = {MONEY: "_usd", HOURS: "_hours", SECONDS: "_s"}


def classify_name(name: str) -> Optional[str]:
    """Dimension of an identifier, or None when ambiguous/neutral."""
    words = [w for w in name.lower().strip("_").split("_") if w]
    if not words:
        return None
    dims = set()
    if _MONEY_WORDS.intersection(words):
        dims.add(MONEY)
    if _HOURS_WORDS.intersection(words):
        dims.add(HOURS)
    # Bare trailing "_s" is the seconds suffix (``wall_s``); a word that
    # merely *ends* in s (``draws``, ``times``) is not.
    if _SECONDS_WORDS.intersection(words) or words[-1] == "s":
        dims.add(SECONDS)
    if len(dims) != 1:
        return None  # rates (``price_per_hour``) and neutral names
    return dims.pop()


def suffix_dim(name: str) -> Optional[str]:
    """Dimension pinned by a trailing unit suffix, or None."""
    for suffix, dim in RETURN_SUFFIXES.items():
        if name.endswith(suffix):
            return dim
    return None


def infer_dim(node: ast.AST) -> Optional[str]:
    """Suffix-only dimension of a name-shaped expression.

    Only name-shaped expressions are classified; calls and arithmetic
    products are unknown by design (multiplication/division is how unit
    conversions legitimately happen).
    """
    if isinstance(node, ast.Name):
        return classify_name(node.id)
    if isinstance(node, ast.Attribute):
        return classify_name(node.attr)
    if isinstance(node, ast.Subscript):
        return infer_dim(node.value)
    if isinstance(node, ast.Starred):
        return infer_dim(node.value)
    if isinstance(node, ast.UnaryOp):
        return infer_dim(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = infer_dim(node.left), infer_dim(node.right)
        if left is not None and left == right:
            return left
        return None
    if isinstance(node, ast.IfExp):
        body, orelse = infer_dim(node.body), infer_dim(node.orelse)
        if body is not None and body == orelse:
            return body
        return None
    return None


# ----------------------------------------------------------------------
# dataflow propagation
# ----------------------------------------------------------------------

#: Resolves the return dimension of a call written as ``name`` (dotted,
#: as in source), or None when unknown.  The project graph supplies one
#: per analysed function; without a graph a suffix-only fallback runs.
CallResolver = Callable[[str], Optional[str]]

#: Resolves the positional parameter names of a call written as
#: ``name`` (including a leading ``self``/``cls`` when the callee is a
#: method), or None when the callee is unknown.  This is what carries a
#: caller's dataflow facts *into* the callee's signature: each argument
#: binding is checked against the dimension the parameter name
#: declares, so ``schedule(total_usd)`` into ``def schedule(
#: delay_hours)`` fires even though both sides are individually
#: consistent — a class of drift neither the suffix pass nor the
#: intraprocedural pass can see.
ParamResolver = Callable[[str], Optional[Tuple[str, ...]]]

_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: Methods that change a container's contents in place: any of these on
#: a tracked name drops its element facts (confident-or-absent).
_CONTAINER_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
     "update", "setdefault", "sort", "reverse"}
)


def self_attr_key(node: ast.AST) -> Optional[str]:
    """``"self.x"`` for a plain instance-field reference, else None.

    Only single-level ``self.<field>`` accesses produce facts —
    ``self.a.b`` would need an alias analysis to be sound, so it stays
    unknown (confident-or-absent).  The string key lets instance fields
    share the same environment and container tables as locals: the
    field lattice is literally the element lattice under longer keys.
    """
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _const_index(node: ast.AST) -> Optional[object]:
    """Literal int/str subscript index, including ``-1`` forms."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = node.operand
        if isinstance(inner, ast.Constant) and isinstance(
            inner.value, int
        ) and not isinstance(inner.value, bool):
            return -inner.value
        return None
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, str)
    ) and not isinstance(node.value, bool):
        return node.value
    return None


@dataclass
class UnitIssue:
    """One dimensional inconsistency found by the propagator."""

    kind: str  # "mix-add" | "mix-compare" | "mix-augassign" |
    #            "mix-arg" | "assign-suffix" | "return-suffix"
    lineno: int
    col: int
    message: str
    fix: Optional[dict] = None  # autofix hint (see analysis.fixers)


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool)


def _call_name(node: ast.Call) -> str:
    parts: List[str] = []
    fn = node.func
    while isinstance(fn, ast.Attribute):
        parts.append(fn.attr)
        fn = fn.value
    if isinstance(fn, ast.Name):
        parts.append(fn.id)
        return ".".join(reversed(parts))
    return ""


def default_call_resolver(name: str) -> Optional[str]:
    """Suffix-only fallback: ``obj.wall_hours()`` reads as hours.

    Conversion helpers whose names mention two units
    (``hours_to_seconds``) classify as ambiguous and stay unknown.
    """
    leaf = name.rsplit(".", 1)[-1]
    return classify_name(leaf)


class ScopeAnalyzer:
    """Propagates dimension facts through one scope in source order."""

    def __init__(
        self,
        resolver: Optional[CallResolver] = None,
        declared_return: Optional[str] = None,
        fn_name: str = "",
        param_resolver: Optional[ParamResolver] = None,
    ) -> None:
        self.resolver = resolver or default_call_resolver
        self.param_resolver = param_resolver
        self.declared_return = declared_return
        self.fn_name = fn_name
        self.env: Dict[str, Optional[str]] = {}
        #: Per-element facts of container-bound names: variable name →
        #: {index or key: dimension}.  Seeded from list/tuple/dict
        #: literals, grown by constant-index stores, read back through
        #: constant-index subscripts and tuple unpacking — how payload
        #: tuples cross call and process boundaries (``args[0]``).
        self.containers: Dict[str, Dict[object, Optional[str]]] = {}
        self.issues: List[UnitIssue] = []
        self.return_dims: List[Optional[str]] = []

    # ----------------------------------------------------------- facts
    def lookup(self, name: str) -> Optional[str]:
        if name in self.env:
            return self.env[name]
        return classify_name(name)

    @staticmethod
    def _container_key(node: ast.AST) -> Optional[str]:
        """Environment key of a container-capable reference, or None."""
        if isinstance(node, ast.Name):
            return node.id
        return self_attr_key(node)

    def _container_facts(
        self, node: ast.AST
    ) -> Optional[Dict[object, Optional[str]]]:
        """Element dimensions of a container literal, or None."""
        if isinstance(node, (ast.List, ast.Tuple)):
            if any(isinstance(e, ast.Starred) for e in node.elts):
                return None  # element alignment unknowable past a splat
            n = len(node.elts)
            facts: Dict[object, Optional[str]] = {}
            for i, elt in enumerate(node.elts):
                dim = self.infer(elt)
                facts[i] = dim
                facts[i - n] = dim  # negative-index alias
            return facts
        if isinstance(node, ast.Dict):
            facts = {}
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, (int, str)
                ) and not isinstance(key.value, bool):
                    facts[key.value] = self.infer(value)
            return facts if facts else None
        return None

    def infer(self, node: ast.AST) -> Optional[str]:
        """Dimension of an expression under the current environment."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            key = self_attr_key(node)
            if key is not None and key in self.env:
                return self.env[key]
            return classify_name(node.attr)
        if isinstance(node, ast.Subscript):
            ckey = self._container_key(node.value)
            if ckey is not None:
                facts = self.containers.get(ckey)
                if facts is not None:
                    idx = _const_index(node.slice)
                    if idx is not None and idx in facts:
                        return facts[idx]
            return self.infer(node.value)
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            return self.resolver(name) if name else None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left, right = self.infer(node.left), self.infer(node.right)
            if left is not None and left == right:
                return left
            # A bare numeric literal adopts the other side's dimension
            # (``start_hours + 2.0`` is hours): it cannot *conflict*
            # with anything, so this propagates more facts without
            # weakening the confident-or-absent contract.
            if left is not None and right is None and _is_number(node.right):
                return left
            if right is not None and left is None and _is_number(node.left):
                return right
            return None
        if isinstance(node, ast.IfExp):
            body, orelse = self.infer(node.body), self.infer(node.orelse)
            if body is not None and body == orelse:
                return body
            return None
        return None

    # ---------------------------------------------------------- issues
    def _scan_expressions(self, stmt: ast.stmt) -> None:
        """Flag mixed additions/comparisons in one statement's exprs."""
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs get their own analysis
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left, right = self.infer(node.left), self.infer(node.right)
                if left is not None and right is not None and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    self.issues.append(UnitIssue(
                        "mix-add", node.lineno, node.col_offset,
                        f"'{op}' mixes {left} and {right}; convert through "
                        "repro.units before combining",
                    ))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, _COMPARE_OPS):
                        continue
                    left, right = self.infer(lhs), self.infer(rhs)
                    if left is not None and right is not None and left != right:
                        self.issues.append(UnitIssue(
                            "mix-compare", node.lineno, node.col_offset,
                            f"comparison mixes {left} and {right}; one side "
                            "needs a repro.units conversion",
                        ))
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CONTAINER_MUTATORS
                ):
                    ckey = self._container_key(node.func.value)
                    if ckey is not None:
                        self.containers.pop(ckey, None)
                if self.param_resolver is not None:
                    self._check_call_args(node)

    def _check_call_args(self, node: ast.Call) -> None:
        """Bind caller facts to the callee's parameter names.

        Positional binding stops at the first ``*args`` splat (alignment
        is unknowable past it); keywords match by name.  A leading
        ``self``/``cls`` parameter is skipped only for attribute-style
        calls (``obj.meth(x)``), where the receiver fills it — for a
        plain ``fn(a, b)`` the parameters align as written.
        """
        name = _call_name(node)
        if not name:
            return
        params = self.param_resolver(name)
        if not params:
            return
        if params[0] in ("self", "cls") and isinstance(
            node.func, ast.Attribute
        ):
            params = params[1:]
        for pname, arg in zip(params, node.args):
            if isinstance(arg, ast.Starred):
                break
            self._check_binding(pname, arg)
        named = set(params)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in named:
                self._check_binding(kw.arg, kw.value)

    def _check_binding(self, pname: str, arg: ast.expr) -> None:
        declared = classify_name(pname)
        if declared is None:
            return
        got = self.infer(arg)
        if got is not None and got != declared:
            self.issues.append(UnitIssue(
                "mix-arg", arg.lineno, arg.col_offset,
                f"argument bound to parameter {pname!r} ({declared}) is a "
                f"{got}-dimensioned value; convert through repro.units at "
                "the call site",
            ))

    # ------------------------------------------------------ statements
    def _bind(self, name: str, value_dim: Optional[str], node: ast.stmt) -> None:
        declared = suffix_dim(name)
        if (
            declared is not None
            and value_dim is not None
            and value_dim != declared
        ):
            # Instance fields ("self.x" keys) are API-visible attributes:
            # a rename hint would be unsafe outside this class, so the
            # finding carries no autofix for them.
            fix = None
            if "." not in name:
                fix = {"op": "rename", "name": name,
                       "to": _rename_for(name, value_dim)}
            self.issues.append(UnitIssue(
                "assign-suffix", node.lineno, node.col_offset,
                f"{name!r} declares {declared} by suffix but is assigned a "
                f"{value_dim}-dimensioned value",
                fix=fix,
            ))
            # Trust the declared suffix downstream so one drift is one
            # finding, not a cascade at every later use.
            self.env[name] = declared
            return
        if value_dim is not None:
            self.env[name] = value_dim
        elif classify_name(name) is not None:
            # Keep the name-derived fact: an unknown RHS must not erase
            # what the suffix convention already promises readers.
            self.env[name] = classify_name(name)
        else:
            self.env[name] = None

    def _assign_target(
        self, target: ast.expr, value: ast.expr, value_dim: Optional[str],
        stmt: ast.stmt,
    ) -> None:
        tkey = self._container_key(target)
        if tkey is not None:
            self._bind(tkey, value_dim, stmt)
            facts = self._container_facts(value)
            if facts is None:
                skey = self._container_key(value)
                alias = self.containers.get(skey) if skey is not None else None
                facts = dict(alias) if alias is not None else None
            if facts is not None:
                self.containers[tkey] = facts
            else:
                self.containers.pop(tkey, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if any(isinstance(t, ast.Starred) for t in target.elts):
                return
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for t, v in zip(target.elts, value.elts):
                    self._assign_target(t, v, self.infer(v), stmt)
                return
            facts = (
                self.containers.get(value.id)
                if isinstance(value, ast.Name)
                else None
            )
            for i, t in enumerate(target.elts):
                if isinstance(t, ast.Name):
                    dim = facts.get(i) if facts is not None else None
                    self._bind(t.id, dim, stmt)
                    self.containers.pop(t.id, None)
        elif isinstance(target, ast.Subscript):
            skey = self._container_key(target.value)
            if skey is None:
                return
            facts = self.containers.get(skey)
            if facts is not None:
                idx = _const_index(target.slice)
                if idx is not None:
                    facts[idx] = value_dim
                else:
                    # Unknown slot: every element fact is now suspect.
                    self.containers.pop(skey, None)

    def _handle(self, stmt: ast.stmt) -> None:
        self._scan_expressions(stmt)
        if isinstance(stmt, ast.Assign):
            value_dim = self.infer(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, value_dim, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_target(
                stmt.target, stmt.value, self.infer(stmt.value), stmt
            )
        elif isinstance(stmt, ast.AugAssign):
            tkey = self._container_key(stmt.target)
            if tkey is not None:
                self.containers.pop(tkey, None)
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Add, ast.Sub)
        ):
            target_dim = (
                self.lookup(stmt.target.id)
                if isinstance(stmt.target, ast.Name)
                else self.infer(stmt.target)
            )
            value_dim = self.infer(stmt.value)
            if (
                target_dim is not None
                and value_dim is not None
                and target_dim != value_dim
            ):
                op = "+=" if isinstance(stmt.op, ast.Add) else "-="
                self.issues.append(UnitIssue(
                    "mix-augassign", stmt.lineno, stmt.col_offset,
                    f"'{op}' accumulates {value_dim} into a {target_dim} "
                    "total; convert through repro.units before accumulating",
                ))
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            got = self.infer(stmt.value)
            self.return_dims.append(got)
            if (
                self.declared_return is not None
                and got is not None
                and got != self.declared_return
            ):
                self.issues.append(UnitIssue(
                    "return-suffix", stmt.lineno, stmt.col_offset,
                    f"{self.fn_name}() declares {self.declared_return} by "
                    f"suffix but returns a {got}-dimensioned expression",
                ))

    def run(self, body: List[ast.stmt]) -> "ScopeAnalyzer":
        """Process ``body`` in source order, recursing into block stmts."""
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # separate scopes, analysed on their own
            self._handle(stmt)
            for inner in _block_bodies(stmt):
                self.run(inner)
        return self


def _block_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        inner = getattr(stmt, attr, None)
        if inner and not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield inner
    for handler in getattr(stmt, "handlers", ()) or ():
        yield handler.body


def _rename_for(name: str, dim: str) -> str:
    """Suffix-corrected name for a variable holding ``dim`` values."""
    for suffix in RETURN_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)] + CANONICAL_SUFFIX[dim]
    return name + CANONICAL_SUFFIX[dim]


def analyze_scope(
    body: List[ast.stmt],
    params: Tuple[str, ...] = (),
    resolver: Optional[CallResolver] = None,
    declared_return: Optional[str] = None,
    fn_name: str = "",
    param_resolver: Optional[ParamResolver] = None,
    self_env: Optional[Dict[str, Optional[str]]] = None,
    self_containers: Optional[Dict[str, Dict[object, Optional[str]]]] = None,
) -> ScopeAnalyzer:
    """Analyse one scope body; returns the finished analyzer.

    ``self_env`` / ``self_containers`` seed the environment with
    per-class instance-field facts (``"self.x"`` keys) aggregated by
    :mod:`.summaries` — how ``__init__`` assignments become confident
    facts inside every other method of the class.  The method body
    still updates them flow-sensitively as it reassigns fields.
    """
    analyzer = ScopeAnalyzer(
        resolver=resolver, declared_return=declared_return, fn_name=fn_name,
        param_resolver=param_resolver,
    )
    if self_env:
        analyzer.env.update(self_env)
    if self_containers:
        analyzer.containers.update(
            {key: dict(facts) for key, facts in self_containers.items()}
        )
    for param in params:
        dim = classify_name(param)
        if dim is not None:
            analyzer.env[param] = dim
    return analyzer.run(body)


# ----------------------------------------------------------------------
# entropy taint: seed derivations for R012
# ----------------------------------------------------------------------

#: Calls whose dotted leaf is pure process entropy.  ``perf_counter``/
#: ``monotonic`` are *allowed* as wall timers (R001 leaves them alone)
#: but are entropy the moment they feed a seed.
ENTROPY_CALL_LEAVES = frozenset(
    {"getpid", "perf_counter", "monotonic", "urandom", "uuid4",
     "uuid1", "token_bytes", "token_hex"}
)

#: Dotted wall-clock reads that make results run-dependent.  Defined
#: here (not in R001, which re-exports it) because every entropy
#: consumer — R001's syntactic ban, R012's worker contract, R014's
#: lineage rule and the summary fixpoint — must agree on what a clock
#: is; leaves alone don't work since ``history.today`` is not a clock.
BANNED_CLOCK_ATTRS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.today", "date.today", "datetime.datetime.now",
     "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today"}
)

#: Call leaves that consume a seed: their arguments must derive from
#: the job payload (parameters/constants), never from process state.
SEED_SINK_LEAVES = frozenset({"default_rng", "SeedSequence"})


@dataclass
class EntropyIssue:
    """One nondeterministic seed derivation inside a function."""

    lineno: int
    col: int
    source: str  # human-readable description of the entropy source


class EntropyTaint:
    """Tracks process-scoped entropy flowing into seed derivations.

    The payload contract of DESIGN.md §12 is that every worker job is a
    pure function of its ``(seed, cell)`` arguments.  This pass walks
    one function with a clean/tainted environment: parameters and
    constants are clean, reads of *mutated* module globals and entropy
    calls (clocks, pids, os randomness) are tainted, assignments
    propagate — including through container literals and subscripts, so
    ``seed = args[0]`` stays clean while ``state[0]`` of
    ``state = [time.time()]`` does not.  An issue fires only when a
    seed sink (``default_rng``/``SeedSequence``) consumes a provably
    tainted expression, or is called with no seed at all (OS entropy).
    """

    def __init__(
        self,
        params: Tuple[str, ...] = (),
        process_globals: Optional[set] = None,
        clock_attrs: Optional[frozenset] = None,
        call_resolver: Optional[Callable[[str], Optional[str]]] = None,
        sink_param_resolver: Optional[
            Callable[[str], Optional[Tuple[Tuple[str, ...], frozenset]]]
        ] = None,
        tainted_fields: Optional[frozenset] = None,
    ) -> None:
        self.bound = set(params)  # locally bound, currently clean
        self.tainted: set = set()
        self.process_globals = process_globals or set()
        self.clock_attrs = (
            BANNED_CLOCK_ATTRS if clock_attrs is None else clock_attrs
        )
        #: Interprocedural hooks, fed by the summary fixpoint
        #: (:mod:`.summaries`).  ``call_resolver(dotted)`` describes why
        #: a call's *return value* is entropy (the callee's summary says
        #: so), ``sink_param_resolver(dotted)`` yields the callee's
        #: parameter names plus the subset that transitively reach a
        #: seed sink, and ``tainted_fields`` holds ``"self.x"`` keys the
        #: enclosing class assigns from process state in some method.
        self.call_resolver = call_resolver
        self.sink_param_resolver = sink_param_resolver
        self.tainted_fields = tainted_fields or frozenset()
        self.entropy_return = False
        #: ``"self.x"`` → True when some assignment to the field in this
        #: body was entropy-tainted (read back by the class-facts join).
        self.field_writes: Dict[str, bool] = {}
        self.issues: List[EntropyIssue] = []

    # ------------------------------------------------------------------
    def expr_entropy(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` is process entropy, or None when clean."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.tainted:
                    return f"{sub.id!r} (derived from process state)"
                if sub.id not in self.bound and sub.id in self.process_globals:
                    return f"mutated module global {sub.id!r}"
            elif isinstance(sub, ast.Attribute):
                key = self_attr_key(sub)
                if key is not None and key in self.tainted_fields:
                    return f"instance field {key!r} (assigned from process state)"
            elif isinstance(sub, ast.Call):
                dotted = _call_name(sub)
                leaf = dotted.rsplit(".", 1)[-1]
                if dotted in self.clock_attrs or leaf in ENTROPY_CALL_LEAVES:
                    return f"{dotted}()"
                if self.call_resolver is not None:
                    why = self.call_resolver(dotted)
                    if why is not None:
                        return why
        return None

    def _check_sinks(self, stmt: ast.stmt) -> None:
        # Only this statement's own expressions: nested block bodies are
        # re-walked by run() *after* their preceding bindings apply, so
        # scanning them here would consult a stale environment.
        own: List[ast.AST] = []
        for fname, value in ast.iter_fields(stmt):
            if fname in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.AST):
                own.append(value)
            elif isinstance(value, list):
                own.extend(v for v in value if isinstance(v, ast.AST))
        for sub in (s for expr in own for s in ast.walk(expr)):
            if not isinstance(sub, ast.Call):
                continue
            dotted = _call_name(sub)
            if dotted.rsplit(".", 1)[-1] not in SEED_SINK_LEAVES:
                self._check_transitive_sink(sub, dotted)
                continue
            if not sub.args and not sub.keywords:
                self.issues.append(EntropyIssue(
                    sub.lineno, sub.col_offset,
                    f"{dotted}() with no seed draws OS entropy",
                ))
                continue
            for arg in (*sub.args, *[kw.value for kw in sub.keywords]):
                source = self.expr_entropy(arg)
                if source is not None:
                    self.issues.append(EntropyIssue(
                        arg.lineno, arg.col_offset,
                        f"seed derived from {source}",
                    ))

    def _check_transitive_sink(self, sub: ast.Call, dotted: str) -> None:
        """Entropy passed to a callee parameter that reaches a seed sink.

        This is the interprocedural half of the sink check: the summary
        fixpoint records, per callee, which parameters flow (through any
        number of further calls) into a ``default_rng``/``SeedSequence``
        argument, so ``kernel(seed=time.monotonic())`` fires here even
        though the sink itself lives hops away.
        """
        if self.sink_param_resolver is None or not dotted:
            return
        resolved = self.sink_param_resolver(dotted)
        if resolved is None:
            return
        params, sink_params = resolved
        if not sink_params:
            return
        if params and params[0] in ("self", "cls") and isinstance(
            sub.func, ast.Attribute
        ):
            params = params[1:]
        bindings: List[Tuple[str, ast.expr]] = []
        for pname, arg in zip(params, sub.args):
            if isinstance(arg, ast.Starred):
                break
            bindings.append((pname, arg))
        named = set(params)
        for kw in sub.keywords:
            if kw.arg is not None and kw.arg in named:
                bindings.append((kw.arg, kw.value))
        for pname, arg in bindings:
            if pname not in sink_params:
                continue
            source = self.expr_entropy(arg)
            if source is not None:
                self.issues.append(EntropyIssue(
                    arg.lineno, arg.col_offset,
                    f"seed derived from {source} reaches a seed "
                    f"derivation through parameter {pname!r} of "
                    f"{dotted}()",
                ))

    def _bind_target(self, target: ast.expr, dirty: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.bound.add(target.id)
            if dirty is not None:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, dirty)
        else:
            key = self_attr_key(target)
            if key is not None:
                self.field_writes[key] = (
                    self.field_writes.get(key, False) or dirty is not None
                )

    def run(self, body: List[ast.stmt]) -> "EntropyTaint":
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            self._check_sinks(stmt)
            if isinstance(stmt, ast.Assign):
                dirty = self.expr_entropy(stmt.value)
                for target in stmt.targets:
                    self._bind_target(target, dirty)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind_target(stmt.target, self.expr_entropy(stmt.value))
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if self.expr_entropy(stmt.value) is not None:
                    self.tainted.add(stmt.target.id)
                self.bound.add(stmt.target.id)
            elif isinstance(stmt, ast.For) and isinstance(
                stmt.iter, ast.expr
            ):
                self._bind_target(stmt.target, self.expr_entropy(stmt.iter))
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self.expr_entropy(stmt.value) is not None:
                    self.entropy_return = True
            for inner in _block_bodies(stmt):
                self.run(inner)
        return self


def all_param_names(fn_node: ast.AST) -> Tuple[str, ...]:
    """Every parameter name of a def, including ``*args``/``**kwargs``."""
    args = fn_node.args
    params = tuple(
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )
    return params + tuple(
        v.arg for v in (args.vararg, args.kwarg) if v is not None
    )


def analyze_entropy(
    fn_node: ast.AST,
    process_globals: Optional[set] = None,
    clock_attrs: Optional[frozenset] = None,
    call_resolver: Optional[Callable[[str], Optional[str]]] = None,
    sink_param_resolver: Optional[
        Callable[[str], Optional[Tuple[Tuple[str, ...], frozenset]]]
    ] = None,
    tainted_fields: Optional[frozenset] = None,
) -> List[EntropyIssue]:
    """Nondeterministic seed derivations of one function body."""
    if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    taint = EntropyTaint(
        params=all_param_names(fn_node),
        process_globals=process_globals,
        clock_attrs=clock_attrs,
        call_resolver=call_resolver,
        sink_param_resolver=sink_param_resolver,
        tainted_fields=tainted_fields,
    )
    return taint.run(fn_node.body).issues


def infer_return_dim(
    fn_node: ast.AST,
    resolver: Optional[CallResolver] = None,
    self_env: Optional[Dict[str, Optional[str]]] = None,
) -> Optional[str]:
    """Return dimension of a function: suffix first, else its returns.

    Used by the project-graph call resolver so that a helper without a
    unit suffix (``def elapsed(...): return end_hours - start_hours``)
    still contributes a confident fact at its call sites.  ``self_env``
    seeds instance-field facts for methods (see :func:`analyze_scope`).
    """
    if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    declared = suffix_dim(fn_node.name)
    if declared is not None:
        return declared
    params = tuple(a.arg for a in fn_node.args.args)
    analysis = analyze_scope(
        fn_node.body, params=params, resolver=resolver, self_env=self_env
    )
    dims = {d for d in analysis.return_dims}
    if len(dims) == 1 and None not in dims:
        return dims.pop()
    return None
