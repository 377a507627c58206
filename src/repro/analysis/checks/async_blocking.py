"""``async-blocking``: no synchronous waits on the event loop.

The daemon (:mod:`repro.service.daemon`) is a single-threaded asyncio
process; one blocking call in a coroutine stalls every connection
and the drain watcher at once.  Inside ``async def`` bodies
this rule flags:

* ``time.sleep`` (use ``asyncio.sleep``);
* blocking process/system calls (``subprocess.run``/``Popen``,
  ``os.system``, ``select.select``);
* blocking network clients (``socket.create_connection``,
  ``urllib.request.urlopen``, the ``requests`` API, name resolution);
* file I/O: builtin ``open`` and the ``pathlib`` read/write shorthands
  (``.write_text``/``.read_bytes`` …) — hand these to a worker thread
  via ``loop.run_in_executor``;
* ``<pool>.submit(...).result()`` — awaiting a concurrent future by
  blocking; use ``loop.run_in_executor`` and ``await`` it.

Only the *innermost* function frame counts: a sync helper defined
inside a coroutine runs wherever it is called from, which a static
check cannot see.  Calls that block behind an opaque sync method (for
example a cache object doing disk I/O) are equally invisible — the rule
catches the direct idioms, reviews catch the indirection.
"""

from __future__ import annotations

import ast

from ..rules import LintRule
from ..visitor import ModuleContext, attr_name

BANNED_CALLS = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "subprocess.run": "blocks until the child exits",
    "subprocess.call": "blocks until the child exits",
    "subprocess.check_call": "blocks until the child exits",
    "subprocess.check_output": "blocks until the child exits",
    "subprocess.getoutput": "blocks until the child exits",
    "subprocess.Popen": "use `asyncio.create_subprocess_exec`",
    "os.system": "blocks until the child exits",
    "os.waitpid": "blocks until the child exits",
    "select.select": "use the event loop's own readiness callbacks",
    "socket.create_connection": "blocking connect; use `asyncio.open_connection`",
    "socket.getaddrinfo": "blocking DNS; use `loop.getaddrinfo`",
    "socket.gethostbyname": "blocking DNS; use `loop.getaddrinfo`",
    "urllib.request.urlopen": "blocking HTTP client",
    "input": "blocks on stdin",
    "open": "file I/O on the loop; offload via `loop.run_in_executor`",
}

BANNED_PREFIXES = {
    "requests.": "blocking HTTP client",
}

#: pathlib one-shot I/O helpers: method name alone identifies them.
PATH_IO_METHODS = {
    "write_text", "read_text", "write_bytes", "read_bytes",
}


class AsyncBlockingRule(LintRule):
    rule_id = "async-blocking"
    description = (
        "no time.sleep, blocking I/O, blocking clients or "
        ".submit(...).result() inside async def bodies"
    )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not ctx.in_async:
            return
        name = ctx.resolve(node.func)
        if name in BANNED_CALLS:
            self.report(
                ctx, node,
                f"{name}() blocks the event loop ({BANNED_CALLS[name]})",
            )
            return
        if name is not None:
            for prefix, reason in BANNED_PREFIXES.items():
                if name.startswith(prefix):
                    self.report(
                        ctx, node,
                        f"{name}() blocks the event loop ({reason})",
                    )
                    return
        method = attr_name(node.func)
        if method in PATH_IO_METHODS:
            self.report(
                ctx, node,
                f".{method}() is synchronous file I/O on the event loop; "
                "offload it via `await loop.run_in_executor(None, ...)`",
            )
            return
        if method == "result" and self._chains_submit(node.func):
            self.report(
                ctx, node,
                ".submit(...).result() blocks the loop until the worker "
                "finishes; use `await loop.run_in_executor(...)` instead",
            )

    @staticmethod
    def _chains_submit(func: ast.AST) -> bool:
        """True for ``<anything>.submit(...).result`` chains."""
        base = func.value if isinstance(func, ast.Attribute) else None
        while base is not None:
            if (
                isinstance(base, ast.Call)
                and attr_name(base.func) == "submit"
            ):
                return True
            if isinstance(base, ast.Call):
                base = base.func
            elif isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            else:
                return False
        return False
