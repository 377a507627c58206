"""``determinism``: no ambient nondeterminism on the bit-identity paths.

Schedules, fingerprints and cache hashes are contractually bit-identical
across runs, hosts and process counts (the 343-case golden-fingerprint
suite pins this).  Inside the configured determinism paths this rule
reports two kinds of finding.

**Call sites** of constructs whose value varies run to run:

* wall clocks (``time.time``, ``datetime.now`` and friends) —
  timestamps must never reach a result;
* the *global* RNGs (``random.random``, ``numpy.random.rand`` …); only
  explicitly seeded generator objects (``random.Random(seed)``,
  ``numpy.random.default_rng(seed)``) are deterministic;
* ``uuid``/``os.urandom``/``secrets`` — randomness by design;
* builtin ``hash()`` — salted per process for str/bytes
  (PYTHONHASHSEED), so hash-derived orderings differ between workers;
* builtin ``id()`` — including as a ``key=`` — identity ordering is
  allocation order;
* iterating a set display / ``set()`` call / set comprehension directly
  in a ``for`` or comprehension: set iteration order is hash order.
  (Set-typed *variables* are invisible to this check — wrap reads in
  ``sorted()`` at the producer.)

Monotonic/perf-counter clocks are *not* reported at the call site:
their dominant use is deadline arithmetic, whose comparisons never
reach a result value.

**Flows**: every source above (monotonic clocks included) is also
tracked as a *value* — laundered through assignments, arithmetic,
f-strings, containers and project-internal helper calls — until it
reaches a **sink**, a fingerprint, cache-key or hash computation, where
it is reported naming every source that fed it.  Flows that never reach
a sink are clean:

* ``deadline = time.monotonic() + timeout`` followed by comparisons is
  fine — comparisons drop taint (truthiness is not a result value);
* ``rng = random.Random(seed); rng.random()`` is fine — seeded
  generator objects are not sources;
* ``stamp = time.time(); key = sha256(f"{stamp}:{name}")`` fires at the
  ``sha256`` call as well, even though the clock and the hash are many
  statements (or one helper call) apart.

Interprocedural depth comes from the project index: each
project-internal function gets a memoised summary — which taint labels
its return value carries, which parameters it forwards into a sink, and
which parameters pass through to its return — computed on demand from
its own CFG.  ``h = hashlib.sha256(); h.update(tainted)`` is caught by
tracking hash objects as a dataflow fact of their own.

Extra sources and sinks are ``LintConfig.taint_sources`` /
``taint_sinks`` (dotted call names, :mod:`repro.analysis.config`).
Known-good escapes: ``sorted(...)`` around the set, seeded generator
objects, and doing the timing one layer up (pass wall-clock
measurements in; never sample them on a deterministic path).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import BranchTest, LoopHeader, build_cfg
from ..config import path_in
from ..dataflow import ForwardAnalysis, State, dotted_chain, solve_forward
from ..rules import LintRule
from ..visitor import ModuleContext

#: Nondeterministic calls: resolved name -> reason.  Each is a taint
#: source; all but the process-relative clocks are also reported at
#: the call site (a timestamp has no legitimate use on a bit-identity
#: path, while deadline arithmetic on a monotonic clock does).
SOURCE_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "process-relative clock",
    "time.monotonic_ns": "process-relative clock",
    "time.perf_counter": "process-relative clock",
    "time.perf_counter_ns": "process-relative clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "uuid.uuid1": "randomness",
    "uuid.uuid4": "randomness",
    "os.urandom": "randomness",
    "os.getrandom": "randomness",
    "hash": "per-process hash salt (PYTHONHASHSEED)",
    "id": "allocation-order identity",
}

#: Reason of the sources that are only reported when they reach a sink.
FLOW_ONLY_REASON = "process-relative clock"

#: Module-level global-RNG entry points (seeded *objects* are fine).
GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
GLOBAL_RNG_ALLOWED = {
    "random.Random",
    "random.SystemRandom",  # still banned below via secrets-style message
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}

SORT_CALLS = {"sorted", "min", "max"}

#: Marker fact for hashlib digest objects (tracked so .update() sinks).
HASHOBJ = "#hashobj"
PARAM_PREFIX = "#param:"

_SUMMARY_NS = "det-taint"
_EMPTY_SUMMARY = {"returns": [], "sink_params": {}, "param_returns": []}


def _is_param_label(label: str) -> bool:
    return label.startswith(PARAM_PREFIX)


class _TaintMachine(ForwardAnalysis):
    """One function's taint transfer; optionally reports at sinks."""

    def __init__(
        self,
        rule: "DeterminismRule",
        rel_path: str,
        module: str,
        aliases: Dict[str, str],
        current_class: Optional[str],
        project,
        sinks: FrozenSet[str],
        extra_sources: FrozenSet[str],
        reporter=None,
    ):
        self.rule = rule
        self.rel_path = rel_path
        self.module = module
        self.aliases = aliases
        self.current_class = current_class
        self.project = project
        self.sinks = sinks
        self.extra_sources = extra_sources
        self.reporter = reporter
        self.return_taint: Set[str] = set()

    # -- dataflow hooks ------------------------------------------------

    def transfer_element(self, element, state: State) -> State:
        state = dict(state)
        self._element(element, state)
        return state

    # -- statement dispatch --------------------------------------------

    def _element(self, element, state: State) -> None:
        if isinstance(element, BranchTest):
            self._eval(element.expr, state)
            return
        if isinstance(element, LoopHeader):
            taint = self._eval(element.node.iter, state)
            self._assign(element.node.target, taint, state)
            return
        stmt = element
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._assign(target, taint, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value, state),
                             state)
        elif isinstance(stmt, ast.AugAssign):
            old = self._read_target(stmt.target, state)
            taint = old | self._eval(stmt.value, state)
            self._assign(stmt.target, taint, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint |= self._eval(stmt.value, state)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint, state)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom)):
            return
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, state)

    def _assign(self, target: ast.expr, taint: FrozenSet[str],
                state: State) -> None:
        if isinstance(target, ast.Name):
            if taint:
                state[target.id] = frozenset(taint)
            else:
                state.pop(target.id, None)
        elif isinstance(target, ast.Attribute):
            chain = dotted_chain(target)
            if chain is not None:
                if taint:
                    state[chain] = frozenset(taint)
                else:
                    state.pop(chain, None)
        elif isinstance(target, ast.Subscript):
            chain = dotted_chain(target.value)
            if chain is not None and taint:
                state[chain] = state.get(chain, frozenset()) | taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taint, state)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, state)

    def _read_target(self, target: ast.expr, state: State) -> FrozenSet[str]:
        if isinstance(target, ast.Name):
            return state.get(target.id, frozenset())
        if isinstance(target, ast.Attribute):
            chain = dotted_chain(target)
            if chain is not None:
                return state.get(chain, frozenset())
        if isinstance(target, ast.Subscript):
            chain = dotted_chain(target.value)
            if chain is not None:
                return state.get(chain, frozenset())
        return frozenset()

    # -- expression evaluation -----------------------------------------

    def _eval(self, expr: ast.expr, state: State) -> FrozenSet[str]:
        empty: FrozenSet[str] = frozenset()
        if isinstance(expr, ast.Constant):
            return empty
        if isinstance(expr, ast.Name):
            return state.get(expr.id, empty)
        if isinstance(expr, ast.Attribute):
            chain = dotted_chain(expr)
            if chain is None:
                return self._eval(expr.value, state)
            taint = empty
            parts = chain.split(".")
            for i in range(len(parts)):
                taint |= state.get(".".join(parts[: i + 1]), empty)
            return taint
        if isinstance(expr, ast.Call):
            return self._call(expr, state)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, state)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, state)
            for comparator in expr.comparators:
                self._eval(comparator, state)
            return empty  # truthiness of a comparison is not a value flow
        if isinstance(expr, ast.Lambda):
            return empty
        if isinstance(expr, ast.NamedExpr):
            taint = self._eval(expr.value, state)
            self._assign(expr.target, taint, state)
            return taint
        if isinstance(expr, ast.Subscript):
            taint = self._eval(expr.value, state)
            self._eval(expr.slice, state)
            return taint
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if expr.generators:
                return self._eval(expr.generators[0].iter, state)
            return empty
        taint = empty
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint |= self._eval(child, state)
        return taint

    def _call(self, node: ast.Call, state: State) -> FrozenSet[str]:
        empty: FrozenSet[str] = frozenset()
        func_taint = self._eval(node.func, state)
        arg_taints = [self._eval(arg, state) for arg in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value, state) for kw in node.keywords
        }
        resolved = self._resolve_dotted(node.func)

        if resolved is not None:
            label = self._source_label(resolved, node)
            if label is not None:
                return frozenset({label})
            sink = self._sink_name(resolved)
            if sink is not None:
                self._check_sink(node, sink + "()", arg_taints, kw_taints)
                if sink.startswith("hashlib."):
                    return frozenset({HASHOBJ})
                return empty
            if resolved.startswith("hashlib."):
                return frozenset({HASHOBJ})
            info = self._project_fn(node.func)
            if info is not None:
                return self._through_project_call(
                    node, info, arg_taints, kw_taints
                )

        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and HASHOBJ in func_taint
        ):
            self._check_sink(
                node, "update() on a hashlib digest", arg_taints, kw_taints
            )
            return empty

        # Unknown/external call: taint flows through (str(), sorted(),
        # json.dumps(), method calls on tainted receivers...).
        taint = func_taint
        for arg_taint in arg_taints:
            taint |= arg_taint
        for kw_taint in kw_taints.values():
            taint |= kw_taint
        return taint

    # -- call classification -------------------------------------------

    def _resolve_dotted(self, func: ast.AST) -> Optional[str]:
        dotted = dotted_chain(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        root = self.aliases.get(parts[0])
        if root is not None:
            return ".".join([root, *parts[1:]])
        return dotted

    def _source_label(self, resolved: str, node: ast.Call) -> Optional[str]:
        reason = SOURCE_CALLS.get(resolved)
        if reason is None and resolved in self.extra_sources:
            reason = "configured taint source"
        if reason is None and resolved.startswith(GLOBAL_RNG_PREFIXES):
            if resolved not in GLOBAL_RNG_ALLOWED:
                reason = "global RNG"
        if reason is None:
            return None
        return (
            f"{resolved}() [{reason}] at {self.rel_path}:{node.lineno}"
        )

    def _sink_name(self, resolved: str) -> Optional[str]:
        if resolved in self.sinks:
            return resolved
        # A module-local call to a sink defined in this module.
        local = f"{self.module}.{resolved}"
        if local in self.sinks:
            return local
        return None

    def _project_fn(self, func: ast.AST):
        return self.project.resolve_call_target(
            self.module, func, aliases=self.aliases,
            current_class=self.current_class,
        )

    def _through_project_call(
        self, node, info, arg_taints, kw_taints
    ) -> FrozenSet[str]:
        summary = self.rule.summary_for(info, self.project)
        positional = list(arg_taints)
        # Fold keyword args onto parameter positions where possible.
        param_index = {name: i for i, name in enumerate(info.params)}
        indexed_kw = {
            param_index[name]: taint
            for name, taint in kw_taints.items()
            if name in param_index
        }
        offset = 1 if info.kind == "method" else 0

        for key, sink in sorted(summary.get("sink_params", {}).items()):
            idx = int(key) - offset
            taint = frozenset()
            if 0 <= idx < len(positional):
                taint = positional[idx]
            taint |= indexed_kw.get(int(key), frozenset())
            real = {t for t in taint if not _is_param_label(t)}
            if real:
                self._report(
                    node,
                    f"{info.qualname}(), which forwards it into {sink}",
                    real,
                )
        out: Set[str] = set(
            label for label in summary.get("returns", ())
            if not _is_param_label(label)
        )
        for key in summary.get("param_returns", ()):
            idx = int(key) - offset
            if 0 <= idx < len(positional):
                out |= positional[idx]
            out |= indexed_kw.get(int(key), frozenset())
        return frozenset(out)

    def _check_sink(self, node, sink_desc, arg_taints, kw_taints) -> None:
        tainted: Set[str] = set()
        for taint in arg_taints:
            tainted |= taint
        for taint in kw_taints.values():
            tainted |= taint
        tainted.discard(HASHOBJ)
        if tainted:
            self._report(node, sink_desc, tainted)

    def _report(self, node, sink_desc: str, labels: Set[str]) -> None:
        if self.reporter is not None:
            self.reporter(node, sink_desc, labels)


class DeterminismRule(LintRule):
    rule_id = "determinism"
    description = (
        "no clocks, global RNGs, hash()/id() ordering or set-iteration "
        "order on bit-identity paths, and no such value flowing into a "
        "fingerprint/cache/hash sink"
    )

    def applies_to(self, rel_path: str, config) -> bool:
        return path_in(rel_path, config.determinism_paths)

    # -- call sites ----------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = ctx.resolve(node.func)
        if name is None:
            return
        reason = SOURCE_CALLS.get(name)
        if reason is not None:
            if reason != FLOW_ONLY_REASON:
                self.report(
                    ctx, node,
                    f"{name}() is nondeterministic ({reason}); its value "
                    "must never feed a schedule, fingerprint or cache hash",
                )
            return
        if name.startswith(GLOBAL_RNG_PREFIXES) and name not in GLOBAL_RNG_ALLOWED:
            self.report(
                ctx, node,
                f"{name}() draws from a shared/global entropy source; use an "
                "explicitly seeded generator object "
                "(numpy.random.default_rng(seed) / random.Random(seed))",
            )
            return
        if name in SORT_CALLS:
            for keyword in node.keywords:
                if (
                    keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and ctx.resolve(keyword.value) == "id"
                ):
                    self.report(
                        ctx, node,
                        f"{name}(..., key=id) orders by allocation address; "
                        "order differs run to run",
                    )

    # -- set iteration -------------------------------------------------

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> None:
        self._check_iter(node.iter, ctx)

    def visit_AsyncFor(self, node: ast.AsyncFor, ctx: ModuleContext) -> None:
        self._check_iter(node.iter, ctx)

    def visit_comprehension(
        self, node: ast.comprehension, ctx: ModuleContext
    ) -> None:
        self._check_iter(node.iter, ctx)

    def _check_iter(self, iterable: ast.AST, ctx: ModuleContext) -> None:
        if self._is_set_expr(iterable, ctx):
            self.report(
                ctx, iterable,
                "iterating a set visits elements in hash order, which varies "
                "per process; wrap in sorted(...) before the order can leak "
                "into a result",
            )

    @staticmethod
    def _is_set_expr(node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve(node.func) in {"set", "frozenset"}
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra: a | {..}, {..} - b, ...
            return DeterminismRule._is_set_expr(
                node.left, ctx
            ) or DeterminismRule._is_set_expr(node.right, ctx)
        return False

    # -- flows into sinks ----------------------------------------------

    def analyze_module(self, ctx: ModuleContext, project) -> None:
        sinks = frozenset(ctx.config.taint_sinks)
        extra_sources = frozenset(ctx.config.taint_sources)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._check_function(
                node, ctx, ctx.enclosing_class(node),
                project, sinks, extra_sources,
            )

    def _check_function(
        self, func, ctx, current_class, project, sinks, extra_sources,
    ) -> None:
        cfg = build_cfg(func)
        machine = _TaintMachine(
            self, ctx.rel_path, ctx.module, ctx.aliases, current_class,
            project, sinks, extra_sources,
        )
        in_states = solve_forward(cfg, machine)

        reported: Set[Tuple[int, int, str]] = set()

        def reporter(node, sink_desc: str, labels: Set[str]) -> None:
            key = (node.lineno, node.col_offset, sink_desc)
            if key in reported:
                return
            reported.add(key)
            sources = ", ".join(sorted(labels))
            self.report(
                ctx, node,
                f"nondeterministic value reaches {sink_desc}: derived "
                f"from {sources}; fingerprints, cache keys and schedules "
                "must be bit-identical across runs",
            )

        replay = _TaintMachine(
            self, ctx.rel_path, ctx.module, ctx.aliases, current_class,
            project, sinks, extra_sources, reporter=reporter,
        )
        for bid in sorted(in_states):
            replay.transfer(cfg.block(bid), in_states[bid])

    # -- interprocedural summaries -------------------------------------

    def summary_for(self, info, project) -> Dict[str, object]:
        """Taint summary of a project function, computed on demand.

        ``returns``: labels the return value carries from the function's
        own ambient sources; ``sink_params``: parameter index → sink it
        is forwarded into; ``param_returns``: parameter indices that
        flow through to the return value.  Cycles are broken by seeding
        an empty summary before computing (recursive flows resolve to
        the fixpoint of "nothing", an under-approximation).
        """
        cached = project.get_summary(_SUMMARY_NS, info.qualname)
        if cached is not None:
            return cached
        project.set_summary(_SUMMARY_NS, info.qualname, dict(_EMPTY_SUMMARY))
        if isinstance(info.node, ast.Lambda):
            return dict(_EMPTY_SUMMARY)

        aliases = project.module_info(info.rel_path).aliases
        current_class = None
        if info.kind == "method":
            current_class = info.qualname.rsplit(".", 2)[-2]

        sink_params: Dict[str, str] = {}

        def reporter(call_node, sink_desc: str, labels: Set[str]) -> None:
            for label in sorted(labels):
                if _is_param_label(label):
                    idx = label[len(PARAM_PREFIX):]
                    sink_params.setdefault(idx, sink_desc)

        # Config of the *linted* run is not in scope here; summaries use
        # the builtin sink/source tables plus whatever summaries the
        # project index already holds.  Param labels seed the initial state.
        machine = _TaintMachine(
            self, info.rel_path, info.module, aliases, current_class,
            project, self._summary_sinks, frozenset(), reporter=None,
        )

        params = list(info.params)

        def initial() -> Dict[str, FrozenSet[str]]:
            return {
                name: frozenset({f"{PARAM_PREFIX}{i}"})
                for i, name in enumerate(params)
            }

        machine.initial = initial  # type: ignore[method-assign]
        cfg = build_cfg(info.node)
        in_states = solve_forward(cfg, machine)
        replay = _TaintMachine(
            self, info.rel_path, info.module, aliases, current_class,
            project, self._summary_sinks, frozenset(), reporter=reporter,
        )
        replay.initial = initial  # type: ignore[method-assign]
        for bid in sorted(in_states):
            replay.transfer(cfg.block(bid), in_states[bid])
            replay.return_taint |= machine.return_taint

        returns = sorted(
            label for label in replay.return_taint | machine.return_taint
            if label != HASHOBJ and not _is_param_label(label)
        )
        param_returns = sorted(
            {
                label[len(PARAM_PREFIX):]
                for label in machine.return_taint
                if _is_param_label(label)
            },
            key=int,
        )
        summary = {
            "returns": returns,
            "sink_params": sink_params,
            "param_returns": param_returns,
        }
        project.set_summary(_SUMMARY_NS, info.qualname, summary)
        return summary

    #: Sinks used while summarising (config is per-run; summaries are
    #: cached project-wide, so they stick to the builtin table).
    _summary_sinks: FrozenSet[str] = frozenset({
        "hashlib.sha256", "hashlib.sha1", "hashlib.md5", "hashlib.new",
        "hashlib.blake2b", "hashlib.blake2s",
        "repro.scheduling.fingerprint.schedule_fingerprint",
        "repro.scheduling.fingerprint.fingerprint_map",
        "repro.api.cache.content_hash",
    })
