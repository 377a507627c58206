"""``resource-hygiene``: every acquired handle has a visible release.

File descriptors, sockets, worker pools and child processes leak
quietly under pytest and loudly under the daemon's week-long uptime.
For a fixed set of resource constructors (``open``, sockets, executors,
``subprocess.Popen``, tempfiles) this rule demands that the acquisition
site shows its release:

* used as a ``with`` context manager, or entered on a
  ``contextlib.ExitStack`` (``stack.enter_context(...)``) → fine;
* stored on an object (``self.pool = ...``) or container → fine, the
  lifetime escapes the function and teardown owns it;
* bound to a local name → the enclosing function must *somewhere*
  release it: a later ``with name``-statement, a
  ``.close()/.shutdown()/.terminate()/.kill()/.wait()`` call on the
  name, or handing the object onward (``return``/``yield``, passing the
  name to another call) which transfers ownership to the caller;
* anything else — ``json.load(open(p))``, a bare expression — is an
  immediate finding: nothing holds the handle, so nothing can close it.

The release scan is flow-insensitive on purpose: a ``.close()`` only on
the happy path still counts.  Demanding try/finally placement would
drown the signal in style findings — ``with`` is the recommended fix in
every message, and the fixture corpus pins the intended shapes.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from ..rules import LintRule
from ..visitor import ModuleContext, attr_name

RESOURCE_CONSTRUCTORS = {
    "open": "file handle",
    "os.fdopen": "file handle",
    "io.open": "file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "concurrent.futures.ProcessPoolExecutor": "process pool",
    "concurrent.futures.ThreadPoolExecutor": "thread pool",
    "ProcessPoolExecutor": "process pool",
    "ThreadPoolExecutor": "thread pool",
    "repro.pools.spawn_pool": "process pool",
    "pools.spawn_pool": "process pool",
    "spawn_pool": "process pool",
    "subprocess.Popen": "child process",
    "tempfile.NamedTemporaryFile": "temp file",
    "tempfile.TemporaryFile": "temp file",
}

RELEASE_METHODS = {
    "close", "shutdown", "terminate", "kill", "wait", "cleanup",
    "communicate", "__exit__",
}


class ResourceHygieneRule(LintRule):
    rule_id = "resource-hygiene"
    description = (
        "opened files/sockets/pools/processes must be closed: use a "
        "with-statement, store on an object, or close on every exit"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = ctx.resolve(node.func)
        kind = RESOURCE_CONSTRUCTORS.get(name)
        if kind is None:
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.withitem) or _entered_on_stack(node, parent):
            return
        if isinstance(parent, ast.Await):
            parent = ctx.parent(parent)
        binding = self._binding_name(node, parent)
        if binding is _STORED:
            return
        if binding is None:
            self.report(
                ctx, node,
                f"{name}() acquires a {kind} that nothing holds — it can "
                "never be closed; use `with {...} as ...:` or bind it and "
                "close it",
            )
            return
        if not self._released(binding, node, ctx):
            self.report(
                ctx, node,
                f"{kind} {binding!r} is never closed in this function; wrap "
                f"the acquisition in a with-statement or call "
                f"{binding}.close() on every exit path",
            )

    # ------------------------------------------------------------------

    def _binding_name(
        self, node: ast.Call, parent: Optional[ast.AST]
    ) -> Optional[str]:
        """Local name bound to the resource, ``_STORED``, or ``None``.

        ``None`` means the handle is immediately orphaned (call argument,
        attribute chain, bare expression).
        """
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return _STORED
                if isinstance(target, ast.Name):
                    return target.id
                if isinstance(target, (ast.Tuple, ast.List)):
                    return _STORED  # unpacking: lifetime is unclear, allow
            return _STORED
        if isinstance(parent, ast.NamedExpr):
            target = parent.target
            if isinstance(target, ast.Name):
                return target.id
            return _STORED
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return _STORED  # ownership transfers to the caller
        if isinstance(parent, ast.Starred):
            return _STORED
        return None

    def _released(
        self, name: str, node: ast.Call, ctx: ModuleContext
    ) -> bool:
        frame = ctx.current_function
        scope: ast.AST = frame.node if frame is not None else ctx.tree
        passed_on: Set[int] = {id(node)}
        for sub in ast.walk(scope):
            # with name: / with name as f:
            if isinstance(sub, ast.withitem):
                expr = sub.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
                if isinstance(expr, ast.Call):
                    # contextlib.closing(name) and friends
                    if any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in expr.args
                    ):
                        return True
            if isinstance(sub, ast.Call):
                # name.close() / name.shutdown() / ...
                if (
                    isinstance(sub.func, ast.Attribute)
                    and attr_name(sub.func) in RELEASE_METHODS
                    and self._rooted_at(sub.func.value, name)
                ):
                    return True
                # name handed to another callable (register, atexit, list
                # of handles, weakref.finalize...): ownership moves on.
                if sub is not node and any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in list(sub.args)
                    + [kw.value for kw in sub.keywords]
                ):
                    if id(sub) not in passed_on:
                        return True
            # return name / yield name: caller takes over
            if isinstance(sub, (ast.Return, ast.Yield)):
                value = sub.value
                if isinstance(value, ast.Name) and value.id == name:
                    return True
                if isinstance(value, (ast.Tuple, ast.List)) and any(
                    isinstance(elt, ast.Name) and elt.id == name
                    for elt in value.elts
                ):
                    return True
        return False

    @staticmethod
    def _rooted_at(node: ast.AST, name: str) -> bool:
        """True when the attribute chain bottoms out at Name(name)."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == name


def _entered_on_stack(node: ast.Call, parent: Optional[ast.AST]) -> bool:
    """``stack.enter_context(<node>)``: the exit stack closes it."""
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Attribute)
        and parent.func.attr == "enter_context"
        and node in parent.args
    )


#: Sentinel: resource stored beyond the function; lifetime is managed
#: elsewhere (teardown methods, caller).  Distinct from None (orphaned).
_STORED = "<stored>"
