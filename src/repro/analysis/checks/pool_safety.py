"""``pool-safety``: process pools must spawn, and their jobs must pickle.

PR 6 learned the hard way that fork-starting pool workers from a live
multi-threaded (or asyncio) parent is a deadlock lottery: a forked
worker can inherit a held call-queue lock and wedge the pool.  The
``concurrent.futures`` default start method *is* fork on Linux, so a
``ProcessPoolExecutor(...)`` without an explicit ``mp_context`` is a
latent deadlock waiting for its call site to gain a thread.  This rule
flags:

* ``ProcessPoolExecutor(...)`` with no ``mp_context=`` (use
  :func:`repro.pools.spawn_pool`, which pins the spawn context);
* any explicit ``get_context("fork")`` / ``get_context("forkserver")``
  and bare ``multiprocessing.Pool(...)`` (same fork default);
* submitting work a spawn worker cannot unpickle.  Spawn workers
  receive their work function by pickle, which serialises a callable as
  its qualified name plus module, so anything that cannot be
  re-imported by name fails at submit time or at the first
  ``result()``: functions defined inside another function (closures),
  names bound to ``lambda`` (the qualname is ``<lambda>``), and bound
  methods of objects instantiated from a *locally defined* class.

The job check resolves the argument of ``pool.submit(fn, ...)`` /
``pool.map(fn, ...)`` / ``loop.run_in_executor(pool, fn, ...)`` through
reaching definitions (what is ``fn`` bound to *on the paths reaching
this call*?) and, when the name is imported or module-level, through
the project call graph — naming the offending *definition* site in the
message.  ``functools.partial(fn, ...)`` is unwrapped one level, and
submissions inside a comprehension body are checked against the
enclosing function's definitions.

Pool receivers are recognised the same flow-aware way: a name whose
reaching definitions include a ``ProcessPoolExecutor``/``spawn_pool``
call (by assignment or ``with ... as``), or a ``self.X`` attribute the
enclosing class assigns one to.  Thread pools are exempt — nothing
pickles across a thread — and unresolvable names get the benefit of
the doubt.

Mutable module globals captured by workers are the same bug class but
need whole-program analysis; keep worker inputs explicit (arguments,
initializer payloads) and the spawn context makes the capture visible
immediately — a spawn worker simply does not see parent mutations.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set, Tuple

from ..cfg import build_cfg
from ..dataflow import (
    Definition,
    ReachingDefs,
    comprehension_calls,
    dotted_chain,
    iter_events,
    solve_forward,
)
from ..rules import LintRule
from ..visitor import ModuleContext

POOL_CONSTRUCTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}

SPAWN_HELPERS = {
    "repro.pools.spawn_pool",
    "pools.spawn_pool",
    "spawn_pool",
}

_SUBMIT_METHODS = {"submit", "map"}


class PoolSafetyRule(LintRule):
    rule_id = "pool-safety"
    description = (
        "process pools need an explicit spawn context and module-level "
        "picklable work functions (no closures, lambdas or bound methods "
        "of local objects)"
    )
    requires_project = True

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = ctx.resolve(node.func)
        if name in POOL_CONSTRUCTORS:
            self._check_constructor(node, ctx)
            return
        if name is not None and name.endswith(".get_context"):
            self._check_get_context(node, ctx)
            return
        if name in {"multiprocessing.Pool", "multiprocessing.pool.Pool"}:
            self.report(
                ctx, node,
                "multiprocessing.Pool() uses the platform default start "
                "method (fork on Linux); build it from "
                "get_context('spawn') instead",
            )

    # ------------------------------------------------------------------

    def _check_constructor(self, node: ast.Call, ctx: ModuleContext) -> None:
        for keyword in node.keywords:
            if keyword.arg == "mp_context":
                return  # context is explicit; fork-ness caught at get_context
            if keyword.arg is None:
                return  # **kwargs: can't see inside; give it the benefit
        self.report(
            ctx, node,
            "ProcessPoolExecutor without mp_context= inherits the platform "
            "start method (fork on Linux), which deadlocks under threaded "
            "parents; use repro.pools.spawn_pool(...) or pass "
            "mp_context=multiprocessing.get_context('spawn')",
        )

    def _check_get_context(self, node: ast.Call, ctx: ModuleContext) -> None:
        for arg in node.args[:1]:
            if isinstance(arg, ast.Constant) and arg.value in (
                "fork", "forkserver"
            ):
                self.report(
                    ctx, node,
                    f"get_context({arg.value!r}) forks the parent process; "
                    "forked workers can inherit held locks from a threaded "
                    "parent — use the 'spawn' context",
                )

    # -- submitted jobs ------------------------------------------------

    def analyze_module(self, ctx: ModuleContext, project) -> None:
        self_pools = _class_self_pools(ctx)
        module_info = project.module_info(ctx.rel_path) if project else None
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(
                    node, ctx, project, module_info, self_pools
                )

    def _check_function(
        self, func, ctx, project, module_info, self_pools
    ) -> None:
        pool_attrs = self_pools.get(ctx.enclosing_class(func), set())
        local_classes = {
            n.name for n in ast.walk(func)
            if isinstance(n, ast.ClassDef)
        }

        cfg = build_cfg(func)
        rd = ReachingDefs(func)
        in_states = solve_forward(cfg, rd)

        reported: Set[Tuple[int, int]] = set()
        for bid in sorted(in_states):
            state = in_states[bid]
            for element in cfg.block(bid).elements:
                calls = [
                    (event.node, state)
                    for event in iter_events(element)
                    if event.kind == "call"
                ]
                calls += [
                    (call, {**state, **bound})
                    for call, bound in comprehension_calls(element)
                ]
                for call, scope in calls:
                    job = self._submitted_job(
                        call, ctx, scope, pool_attrs
                    )
                    if job is None:
                        continue
                    key = (call.lineno, call.col_offset)
                    if key in reported:
                        continue
                    if self._flag_job(
                        job, call, ctx, scope, project, module_info,
                        local_classes, func,
                    ):
                        reported.add(key)
                state = rd.transfer_element(element, state)

    # -- receiver recognition ------------------------------------------

    def _submitted_job(
        self, call: ast.Call, ctx, state, pool_attrs
    ) -> Optional[ast.expr]:
        """The work-function expression, when *call* submits to a
        process pool; None otherwise."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in _SUBMIT_METHODS:
            if not call.args:
                return None
            if self._is_pool(func.value, ctx, state, pool_attrs):
                return call.args[0]
            return None
        if func.attr == "run_in_executor":
            if len(call.args) < 2:
                return None
            if self._is_pool(call.args[0], ctx, state, pool_attrs):
                return call.args[1]
        return None

    def _is_pool(self, expr: ast.expr, ctx, state, pool_attrs) -> bool:
        if isinstance(expr, ast.Call):
            return self._is_pool_ctor(expr, ctx)
        if isinstance(expr, ast.Name):
            defs = state.get(expr.id, frozenset())
            return any(
                isinstance(d.value, ast.Call)
                and self._is_pool_ctor(d.value, ctx)
                for d in defs
            )
        chain = dotted_chain(expr)
        if chain is not None and chain.startswith("self."):
            return chain[len("self."):] in pool_attrs
        return False

    @staticmethod
    def _is_pool_ctor(call: ast.Call, ctx) -> bool:
        name = ctx.resolve(call.func)
        return name in POOL_CONSTRUCTORS or name in SPAWN_HELPERS

    # -- job classification --------------------------------------------

    def _flag_job(
        self, job, call, ctx, state, project, module_info,
        local_classes, func,
    ) -> bool:
        """Report and return True when *job* cannot pickle by name."""
        if isinstance(job, ast.Lambda):
            self.report(
                ctx, call,
                f"the lambda defined at line {job.lineno} is submitted to "
                "a spawn pool; lambdas pickle by qualname '<lambda>', "
                "which the worker cannot re-import — define a "
                "module-level function",
            )
            return True

        if isinstance(job, ast.Call):
            resolved = ctx.resolve(job.func)
            if resolved in {"functools.partial", "partial"} and job.args:
                return self._flag_job(
                    job.args[0], call, ctx, state, project, module_info,
                    local_classes, func,
                )
            return False

        if isinstance(job, ast.Name):
            return self._flag_name(
                job, call, ctx, state, project, module_info
            )

        chain = dotted_chain(job)
        if chain is None or "." not in chain:
            return False
        root, rest = chain.split(".", 1)
        if root == "self":
            return False  # bound method of self: instance pickles if the
            # class is importable, which a module-level class is
        root_defs = state.get(root, frozenset())
        for definition in sorted(root_defs, key=Definition.sort_key):
            value = definition.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in local_classes
            ):
                self.report(
                    ctx, call,
                    f"{chain} is a bound method of an instance of "
                    f"{value.func.id!r}, a class defined inside "
                    f"{func.name!r} (line {definition.lineno}); local "
                    "classes cannot be re-imported by the spawn worker — "
                    "hoist the class to module level",
                )
                return True
        return self._flag_project_lambda(
            chain, chain, call, ctx, project, module_info
        )

    def _flag_name(
        self, job: ast.Name, call, ctx, state, project, module_info
    ) -> bool:
        defs = state.get(job.id, frozenset())
        for definition in sorted(defs, key=Definition.sort_key):
            if definition.kind == "def":
                self.report(
                    ctx, call,
                    f"{job.id!r} is defined at line {definition.lineno} "
                    "inside the enclosing function; nested functions "
                    "cannot be pickled to a spawn worker — hoist the def "
                    "to module level",
                )
                return True
            if definition.kind == "assign" and isinstance(
                definition.value, ast.Lambda
            ):
                self.report(
                    ctx, call,
                    f"{job.id!r} is bound to a lambda at line "
                    f"{definition.lineno}; lambdas pickle by qualname "
                    "'<lambda>', which the worker cannot re-import — "
                    "define a module-level function",
                )
                return True
        if defs:
            # Locally bound to something else (param, import, loop var…):
            # imports resolve below; the rest get the benefit of the doubt.
            if not all(d.kind == "import" for d in defs):
                return False
        return self._flag_project_lambda(
            job.id, repr(job.id), call, ctx, project, module_info
        )

    def _flag_project_lambda(
        self, dotted, shown, call, ctx, project, module_info
    ) -> bool:
        """Report and return True when the module-level or imported
        *dotted* name resolves to a lambda in the project index."""
        if project is None or module_info is None:
            return False
        info = project.resolve_name(
            module_info.module, dotted, aliases=module_info.aliases
        )
        if info is None or info.kind != "lambda":
            return False
        self.report(
            ctx, call,
            f"{shown} resolves to a lambda bound at "
            f"{info.rel_path}:{info.lineno}; its qualname is "
            "'<lambda>', which the spawn worker cannot "
            "re-import — make it a def",
        )
        return True


def _class_self_pools(ctx: ModuleContext) -> Dict[str, Set[str]]:
    """Class name → attribute names it binds to process-pool calls
    (``self.pool = spawn_pool(...)`` anywhere in the class body)."""
    result: Dict[str, Set[str]] = {}
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            name = ctx.resolve(node.value.func)
            if name not in POOL_CONSTRUCTORS and name not in SPAWN_HELPERS:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        if attrs:
            result[cls.name] = attrs
    return result
