"""AST rules of the reprolint determinism & purity analyzer.

Each rule is a plugin: a subclass of :class:`Rule` with an id, a one-line
title, a long ``explain`` text (shown by ``--explain RULE``) and a
``check(tree, source, path)`` returning :class:`Finding` objects.  Rules
are registered in :data:`SYNTACTIC_RULES`; which rules run on which file is
decided by the path scopes in :mod:`repro.analysis.config`.

All syntactic rules share :class:`ImportResolver`: local names are
expanded through the file's imports to canonical dotted paths
(``np.random.default_rng`` -> ``numpy.random.default_rng``,
``from time import perf_counter as pc; pc()`` -> ``time.perf_counter``),
so aliasing cannot dodge a rule.

The two semantic rules (REG001/REG002) live in
:mod:`repro.analysis.semantic` — they import the live registries instead
of reading source.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding


class Rule:
    """Base class: one statically-checkable determinism/purity invariant."""

    rule_id: str = ""
    title: str = ""
    explain: str = ""

    def check(
        self, tree: ast.AST, source: str, path: str
    ) -> Iterable[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, node: ast.AST, path: str, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ImportResolver(ast.NodeVisitor):
    """Maps local names to canonical dotted module paths for one file."""

    #: Module aliases treated as canonical regardless of the alias used.
    _CANONICAL = {"np": "numpy"}

    def __init__(self, tree: ast.AST) -> None:
        self.names: dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.names[local] = self._CANONICAL.get(target, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib RNG/clock modules
        base = self._CANONICAL.get(node.module, node.module)
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{base}.{alias.name}"

    def resolve(self, func: ast.expr) -> str | None:
        """Canonical dotted path of a call target, or ``None``."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.names.get(node.id, node.id)
        root = self._CANONICAL.get(root, root)
        parts.append(root)
        return ".".join(reversed(parts))


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _describe(func: ast.expr) -> str:
    try:
        return ast.unparse(func)
    except Exception:  # pragma: no cover - unparse never fails on parsed code
        return "<call>"


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    rule_id = "DET001"
    title = "wall-clock read in a simulation path"
    explain = """\
Simulation time is `Simulation.now`; wall-clock reads (`time.time`,
`time.perf_counter`, `datetime.now`, ...) make a run's behaviour depend
on when and on what machine it executes, which breaks byte-identical
figure regeneration, the content-addressed run cache, and matched-seed
replication.  Tool paths (bench/, runtime/, experiments/) may time
things; simulation paths (core/, cluster/, schedulers/, workloads/)
must not.  Fix: thread simulated time or delete the read; suppress only
for genuinely diagnostic output that never feeds a result."""

    _CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "time.localtime",
            "time.gmtime",
            "time.strftime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, tree, source, path):
        resolver = ImportResolver(tree)
        for call in walk_calls(tree):
            name = resolver.resolve(call.func)
            if name in self._CLOCKS:
                yield self.finding(
                    call, path, f"wall-clock call {name}() in a sim path"
                )


# ----------------------------------------------------------------------
# DET002 — global / unseeded RNG
# ----------------------------------------------------------------------
class GlobalRngRule(Rule):
    rule_id = "DET002"
    title = "module-level or unseeded RNG"
    explain = """\
All randomness must flow from the run seed: a seeded instance
(`repro.core.rng.make_rng(seed, stream)` or `random.Random(seed)`)
threaded from the spec.  The module-level `random.*` / `numpy.random.*`
functions draw from interpreter-global state shared across every caller
and import order, and `random.Random()` / `np.random.default_rng()`
without arguments seed from the OS — both make runs irreproducible.
Fix: accept an rng/seed argument and derive a named stream."""

    _STATEFUL_SUFFIXES = frozenset(
        {
            "random",
            "randint",
            "randrange",
            "randbytes",
            "getrandbits",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "triangular",
            "gauss",
            "normalvariate",
            "lognormvariate",
            "expovariate",
            "vonmisesvariate",
            "gammavariate",
            "betavariate",
            "paretovariate",
            "weibullvariate",
            "binomialvariate",
            "seed",
        }
    )
    _NUMPY_GLOBAL = frozenset(
        {
            "seed",
            "random",
            "rand",
            "randn",
            "randint",
            "random_sample",
            "random_integers",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "standard_normal",
            "exponential",
            "poisson",
            "pareto",
            "beta",
            "gamma",
            "binomial",
            "bytes",
        }
    )

    def check(self, tree, source, path):
        resolver = ImportResolver(tree)
        for call in walk_calls(tree):
            name = resolver.resolve(call.func)
            if name is None:
                continue
            if (
                name.startswith("random.")
                and name.split(".", 1)[1] in self._STATEFUL_SUFFIXES
            ):
                yield self.finding(
                    call,
                    path,
                    f"{name}() draws from the interpreter-global RNG; "
                    "use a seeded instance threaded from the spec",
                )
            elif name == "random.Random" and not call.args:
                yield self.finding(
                    call,
                    path,
                    "random.Random() without a seed draws entropy from "
                    "the OS; pass a seed derived from the run spec",
                )
            elif (
                name.startswith("numpy.random.")
                and name.split(".")[2] in self._NUMPY_GLOBAL
            ):
                yield self.finding(
                    call,
                    path,
                    f"{name}() uses numpy's global RNG state; "
                    "use repro.core.rng.make_rng(seed, stream)",
                )
            elif name == "numpy.random.default_rng" and not call.args:
                yield self.finding(
                    call,
                    path,
                    "numpy.random.default_rng() without a seed is "
                    "OS-entropy seeded; derive the seed from the spec",
                )


# ----------------------------------------------------------------------
# DET003 — unordered iteration feeding order-sensitive sinks
# ----------------------------------------------------------------------
#: Call names that consume their inputs order-sensitively: event
#: scheduling, heap pushes and RNG draws all change downstream behaviour
#: when fed in a different order.
ORDER_SENSITIVE_SINKS = frozenset(
    {
        "schedule",
        "schedule_at",
        "schedule_cancellable",
        "heappush",
        "heappushpop",
        "heapreplace",
        "shuffle",
        "sample",
        "choice",
        "choices",
        "randint",
        "randrange",
        "integers",
        "random",
        "uniform",
        "normal",
        "exponential",
    }
)


def _call_sink_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def is_set_like(node: ast.expr, resolver: ImportResolver) -> bool:
    """Is this expression a set (hash-ordered, PYTHONHASHSEED-sensitive)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return resolver.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # a | b etc. over sets; only claim it when one side is clearly a set.
        return is_set_like(node.left, resolver) or is_set_like(
            node.right, resolver
        )
    return False


def is_dict_view(node: ast.expr) -> bool:
    """Is this expression a ``.keys()/.values()/.items()`` mapping view?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


class UnorderedIterationRule(Rule):
    rule_id = "DET003"
    title = "iteration over an unordered collection"
    explain = """\
Set iteration order is hash order, which varies with PYTHONHASHSEED and
the interning history of the process: two runs of the same seed can
visit elements differently and diverge wherever order matters.  Any
iteration over a set in a sim path is flagged — wrap it in `sorted()`.
Mapping views (`.keys()/.values()/.items()`) are insertion-ordered, so
they are flagged only when the loop body feeds an order-sensitive sink
(event scheduling, heap pushes, RNG draws, `+=` accumulation): there
the *insertion* history silently becomes part of the result, which is
exactly the coupling `sorted()` severs."""

    def check(self, tree, source, path):
        resolver = ImportResolver(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(
                    node.iter, node.body, resolver, path
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_like(comp.iter, resolver):
                        yield self.finding(
                            comp.iter,
                            path,
                            f"comprehension iterates the set "
                            f"`{_describe(comp.iter)}` in hash order; "
                            "wrap it in sorted()",
                        )

    def _check_iter(self, iter_node, body, resolver, path):
        if is_set_like(iter_node, resolver):
            yield self.finding(
                iter_node,
                path,
                f"loop iterates the set `{_describe(iter_node)}` in hash "
                "order; wrap it in sorted()",
            )
            return
        if is_dict_view(iter_node) and self._body_has_sink(body):
            yield self.finding(
                iter_node,
                path,
                f"loop over the mapping view `{_describe(iter_node)}` "
                "feeds an order-sensitive sink; iterate sorted() items "
                "or make the ordering explicit",
            )

    @staticmethod
    def _body_has_sink(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and _call_sink_name(node) in ORDER_SENSITIVE_SINKS
                ):
                    return True
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# DET004 — id()/hash() feeding ordering or digests
# ----------------------------------------------------------------------
class HashOrderingRule(Rule):
    rule_id = "DET004"
    title = "id()/hash() used in ordering or digests"
    explain = """\
Builtin `hash()` of strings and bytes is salted by PYTHONHASHSEED and
`id()` is an address: both differ between interpreter launches.  Using
either inside `sorted()`/`min()`/`max()` keys, comparisons, or digest
material (`.update()`, `struct.pack`, hashlib constructors) bakes a
per-process accident into results.  Identity-keyed *lookups*
(`d[id(task)]`) are fine — the hazard is ordering and content.  Fix:
order by stable ids (job_id, worker_id, seq) and digest canonical
reprs; `Trace.content_digest` is the model."""

    _ORDER_FUNCS = frozenset({"sorted", "min", "max", "sort", "heappush", "nsmallest", "nlargest"})
    _DIGEST_FUNCS = frozenset(
        {"update", "pack", "blake2b", "blake2s", "sha1", "sha256", "sha512", "md5", "crc32"}
    )

    def check(self, tree, source, path):
        yield from self._visit(tree, path, in_sink=False)

    def _visit(self, node: ast.AST, path: str, in_sink: bool):
        for child in ast.iter_child_nodes(node):
            child_in_sink = in_sink
            if isinstance(child, ast.Call):
                name = _call_sink_name(child)
                if name in ("hash", "id") and in_sink:
                    yield self.finding(
                        child,
                        path,
                        f"{name}() feeds an ordering/digest computation; "
                        "its value differs across interpreter launches",
                    )
                if name in self._ORDER_FUNCS or name in self._DIGEST_FUNCS:
                    child_in_sink = True
                for kw in child.keywords:
                    if kw.arg == "key" and isinstance(kw.value, ast.Name) and kw.value.id in ("hash", "id"):
                        yield self.finding(
                            kw.value,
                            path,
                            f"key={kw.value.id} orders by a per-process "
                            "value; use a stable key",
                        )
            elif isinstance(child, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in child.ops
            ):
                child_in_sink = True
            yield from self._visit(child, path, child_in_sink)


# ----------------------------------------------------------------------
# DET005 — accumulation over unordered collections
# ----------------------------------------------------------------------
class UnorderedAccumulationRule(Rule):
    rule_id = "DET005"
    title = "sum()/accumulation over an unordered collection"
    explain = """\
Float addition is not associative: `sum()` over a set (hash order) or a
mapping view (insertion order) yields different last-ulp results when
the visit order changes, and last-ulp drift is a full drift for a
byte-identical reproduction.  Every reduction in `repro.metrics` and
the sim paths must consume an explicitly ordered sequence — a list, a
tuple, or `sorted(...)`."""

    _REDUCERS = frozenset({"sum", "fsum", "math.fsum"})

    def check(self, tree, source, path):
        resolver = ImportResolver(tree)
        for call in walk_calls(tree):
            name = resolver.resolve(call.func)
            if name not in self._REDUCERS or not call.args:
                continue
            arg = call.args[0]
            unordered = self._unordered_source(arg, resolver)
            if unordered is not None:
                yield self.finding(
                    call,
                    path,
                    f"{name}() accumulates over the unordered "
                    f"`{unordered}`; impose an explicit order first",
                )

    @staticmethod
    def _unordered_source(arg: ast.expr, resolver: ImportResolver) -> str | None:
        if is_set_like(arg, resolver) or is_dict_view(arg):
            return _describe(arg)
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            iter_node = arg.generators[0].iter
            if is_set_like(iter_node, resolver) or is_dict_view(iter_node):
                return _describe(iter_node)
        return None


# ----------------------------------------------------------------------
# PURE001 — frozen-instance mutation outside constructors
# ----------------------------------------------------------------------
class FrozenMutationRule(Rule):
    rule_id = "PURE001"
    title = "mutation of a frozen instance outside its constructor"
    explain = """\
Frozen dataclasses (RunSpec, WorkloadSpec, Param, EngineConfig, the
record types) and FrozenParams are the immutability backbone of the
cache keys: their reprs are content.  `object.__setattr__` is the only
way to mutate them, and it is legitimate only inside construction
(`__init__`/`__post_init__`/`__new__`/`__setstate__`).  Anywhere else
it silently changes an object whose digest was already taken.  Fix:
build a new instance (`with_`, `dataclasses.replace`) instead."""

    _CONSTRUCTORS = frozenset(
        {"__init__", "__post_init__", "__new__", "__setstate__"}
    )

    def check(self, tree, source, path):
        yield from self._scan_setattr(tree, path)
        yield from self._scan_frozen_classes(tree, path)

    def _scan_setattr(self, tree, path):
        for call in walk_calls(tree):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            where = self._enclosing_function(tree, call)
            if where not in self._CONSTRUCTORS:
                yield self.finding(
                    call,
                    path,
                    f"object.__setattr__ in {where or 'module scope'!r} "
                    "mutates a frozen instance outside a constructor; "
                    "build a new one instead",
                )

    @staticmethod
    def _enclosing_function(tree: ast.AST, target: ast.AST) -> str | None:
        """Name of the innermost function containing ``target``."""
        found: list[str] = []

        def descend(node: ast.AST, stack: tuple[str, ...]) -> bool:
            if node is target:
                found.append(stack[-1] if stack else "")
                return True
            for child in ast.iter_child_nodes(node):
                child_stack = stack
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_stack = stack + (child.name,)
                if descend(child, child_stack):
                    return True
            return False

        descend(tree, ())
        return found[0] if found else None

    def _scan_frozen_classes(self, tree, path):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and self._is_frozen_dataclass(node):
                yield from self._scan_methods(node, path)

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                name = _call_sink_name(deco)
                if name == "dataclass":
                    for kw in deco.keywords:
                        if (
                            kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            return True
        return False

    def _scan_methods(self, cls: ast.ClassDef, path: str):
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in self._CONSTRUCTORS:
                continue
            self_name = (
                method.args.args[0].arg if method.args.args else "self"
            )
            for node in ast.walk(method):
                target = None
                if isinstance(node, (ast.Assign,)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        yield self.finding(
                            node,
                            path,
                            f"frozen dataclass {cls.name} mutates "
                            f"self.{target.attr} in {method.name}(); "
                            "frozen instances are immutable after "
                            "construction",
                        )


#: Every syntactic rule, in report order.  The semantic rules (REG001,
#: REG002) are appended by :mod:`repro.analysis.engine` at scan time.
SYNTACTIC_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRngRule(),
    UnorderedIterationRule(),
    HashOrderingRule(),
    UnorderedAccumulationRule(),
    FrozenMutationRule(),
)

RULES_BY_ID: dict[str, Rule] = {r.rule_id: r for r in SYNTACTIC_RULES}
