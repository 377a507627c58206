"""Units for the flow-analysis layers under the lint rules.

Covers the three engine modules the flow-aware rules stand on:

* :mod:`repro.analysis.cfg` — block/edge shapes for branches, loops,
  ``try``/``except``/``finally``, diverting statements, and the
  determinism of construction and reverse post-order;
* :mod:`repro.analysis.dataflow` — event linearisation (evaluation
  order, target-role loads, mutating-method stores, deferred lambda and
  comprehension bodies), the forward solver, and reaching definitions
  across joins and back edges;
* :mod:`repro.analysis.callgraph` — import-alias resolution (incl.
  relative imports), method/lambda indexing, and ``pool-safety``
  reading one resolved spelling of ``spawn_pool`` through it.
"""

import ast
import textwrap

from repro.analysis import PARSE_ERROR, LintConfig, run_lint
from repro.analysis.callgraph import (
    ProjectIndex,
    collect_module_aliases,
    module_name_for,
)
from repro.analysis.cfg import BranchTest, LoopHeader, build_cfg
from repro.analysis.dataflow import (
    ReachingDefs,
    definitions_of,
    dotted_chain,
    iter_events,
    solve_forward,
)
from repro.analysis.visitor import ModuleContext


def _func(source):
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0]


def _cfg(source):
    return build_cfg(_func(source))


def _events(stmt_source):
    stmt = ast.parse(textwrap.dedent(stmt_source)).body[0]
    return list(iter_events(stmt))


def _defs_at(cfg, func, bid, name):
    in_states = solve_forward(cfg, ReachingDefs(func))
    return sorted(in_states[bid].get(name, frozenset()),
                  key=lambda d: d.sort_key())


def _block_with_store(cfg, name):
    """The block whose elements bind *name* (via definitions_of)."""
    for block in cfg.blocks:
        for element in block.elements:
            if any(d.name == name for d in definitions_of(element)):
                return block.bid
    raise AssertionError(f"no block stores {name}")


# ----------------------------------------------------------------------
# CFG shapes
# ----------------------------------------------------------------------


class TestCFGShapes:
    def test_if_else_joins(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                use(a)
            """
        )
        entry = cfg.block(cfg.entry)
        assert isinstance(entry.elements[-1], BranchTest)
        then_bid, else_bid = entry.succs
        (join_bid,) = cfg.block(then_bid).succs
        assert cfg.block(else_bid).succs == [join_bid]
        assert sorted(cfg.block(join_bid).preds) == sorted(
            [then_bid, else_bid]
        )
        # The join falls through to the synthetic exit.
        assert cfg.exit in cfg.block(join_bid).succs

    def test_if_without_else_keeps_fallthrough_edge(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                after()
            """
        )
        entry = cfg.block(cfg.entry)
        then_bid = entry.succs[0]
        (join_bid,) = cfg.block(then_bid).succs
        # Skipping the branch reaches the join straight from the test.
        assert join_bid in entry.succs

    def test_while_has_back_edge(self):
        cfg = _cfg(
            """
            def f(n):
                total = 0
                while n:
                    total = total + 1
                return total
            """
        )
        header = next(
            b.bid for b in cfg.blocks
            if any(isinstance(e, BranchTest) for e in b.elements)
        )
        body = _block_with_store(cfg, "total")
        # entry also stores total; pick the body block, which loops back.
        bodies = [
            b.bid for b in cfg.blocks
            if header in b.succs and b.bid != cfg.entry
        ]
        assert bodies, "loop body must edge back to the header"
        assert body in (cfg.entry, *bodies)

    def test_for_header_owns_iter_and_target(self):
        cfg = _cfg(
            """
            def f(items):
                for item in items:
                    use(item)
            """
        )
        headers = [
            b for b in cfg.blocks
            if any(isinstance(e, LoopHeader) for e in b.elements)
        ]
        assert len(headers) == 1
        header = headers[0]
        assert len(header.succs) == 2  # body and after
        assert any(header.bid in cfg.block(s).succs for s in header.succs)

    def test_break_diverts_to_after_continue_to_header(self):
        cfg = _cfg(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                    continue
                done()
            """
        )
        header = next(
            b.bid for b in cfg.blocks
            if any(isinstance(e, LoopHeader) for e in b.elements)
        )
        after = [s for s in cfg.block(header).succs][1]
        break_block = next(
            b.bid for b in cfg.blocks
            if any(isinstance(e, ast.Break) for e in b.elements)
        )
        continue_block = next(
            b.bid for b in cfg.blocks
            if any(isinstance(e, ast.Continue) for e in b.elements)
        )
        assert after in cfg.block(break_block).succs
        assert header in cfg.block(continue_block).succs

    def test_return_leaves_no_fallthrough(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
        return_blocks = [
            b for b in cfg.blocks
            if any(isinstance(e, ast.Return) for e in b.elements)
        ]
        assert len(return_blocks) == 2
        for block in return_blocks:
            assert block.succs == [cfg.exit]

    def test_unreachable_code_still_gets_a_block(self):
        cfg = _cfg(
            """
            def f():
                return 1
                dead()
            """
        )
        dead = [
            b for b in cfg.blocks
            if any(
                isinstance(e, ast.Expr)
                and isinstance(e.value, ast.Call)
                for e in b.elements
            )
        ]
        assert dead and not dead[0].preds  # orphan, but walkable

    def test_every_try_block_edges_into_each_handler(self):
        cfg = _cfg(
            """
            def f(c):
                try:
                    if c:
                        a()
                    else:
                        b()
                except Exception:
                    h()
                done()
            """
        )
        handler = next(
            b.bid for b in cfg.blocks
            if any(
                isinstance(e, ast.Expr)
                and isinstance(e.value, ast.Call)
                and isinstance(e.value.func, ast.Name)
                and e.value.func.id == "h"
                for e in b.elements
            )
        )
        preds = cfg.block(handler).preds
        # The body head plus every block created under the try (then
        # arm, else arm, join) all edge into the handler.
        assert len(preds) >= 3

    def test_finally_reachable_when_all_paths_divert(self):
        cfg = _cfg(
            """
            def f():
                try:
                    return work()
                finally:
                    cleanup()
            """
        )
        final = next(
            b for b in cfg.blocks
            if any(
                isinstance(e, ast.Expr)
                and isinstance(e.value, ast.Call)
                and isinstance(e.value.func, ast.Name)
                and e.value.func.id == "cleanup"
                for e in b.elements
            )
        )
        assert final.preds  # still wired in despite the diverting body

    def test_construction_and_rpo_are_deterministic(self):
        source = """
            def f(xs, flag):
                acc = 0
                for x in xs:
                    if flag:
                        try:
                            acc += x
                        except TypeError:
                            continue
                    else:
                        break
                return acc
            """
        first, second = _cfg(source), _cfg(source)
        shape = lambda cfg: [(b.bid, b.succs, b.preds) for b in cfg.blocks]
        assert shape(first) == shape(second)
        assert first.rpo() == second.rpo()
        assert first.rpo()[0] == first.entry


# ----------------------------------------------------------------------
# Event linearisation
# ----------------------------------------------------------------------


class TestEvents:
    def test_assign_reads_value_before_storing_target(self):
        events = _events("x = y + z\n")
        assert [(e.kind, e.name) for e in events] == [
            ("load", "y"), ("load", "z"), ("store", "x"),
        ]

    def test_subscript_store_loads_receiver_as_target(self):
        events = _events("self.jobs[key] = job\n")
        assert [(e.kind, e.name, e.role) for e in events] == [
            ("load", "job", "value"),
            ("load", "self", "target"),
            ("load", "self.jobs", "target"),
            ("load", "key", "value"),
            ("store", "self.jobs", "value"),
        ]

    def test_attribute_store_emits_prefix_loads_then_store(self):
        events = _events("self.state.phase = nxt\n")
        kinds = [(e.kind, e.name, e.role) for e in events]
        assert ("load", "self.state", "target") in kinds
        assert kinds[-1] == ("store", "self.state.phase", "value")

    def test_augassign_reads_target_as_value(self):
        events = _events("self.count += 1\n")
        loads = [e for e in events if e.kind == "load"]
        # The read half of += is a genuine observation, not navigation.
        assert any(
            e.name == "self.count" and e.role == "value" for e in loads
        )
        assert events[-1].kind == "store"
        assert events[-1].name == "self.count"

    def test_mutating_method_call_stores_receiver(self):
        events = _events("self.queue.pop()\n")
        kinds = [(e.kind, e.name) for e in events]
        assert ("store", "self.queue") in kinds
        assert kinds[-1] == ("call", None)
        # The store lands before the call event, after the loads.
        assert kinds.index(("store", "self.queue")) > kinds.index(
            ("load", "self.queue")
        )

    def test_await_event_follows_awaited_call(self):
        stmt = ast.parse("async def f():\n    x = await fetch()\n").body[0]
        events = list(iter_events(stmt.body[0]))
        kinds = [e.kind for e in events]
        assert kinds == ["load", "call", "await", "store"]

    def test_lambda_bodies_are_deferred(self):
        events = _events("f = lambda: secret\n")
        assert [(e.kind, e.name) for e in events] == [("store", "f")]

    def test_comprehension_only_evaluates_first_iterable(self):
        events = _events("r = [g(i) for i in items]\n")
        assert [(e.kind, e.name) for e in events] == [
            ("load", "items"), ("store", "r"),
        ]

    def test_dotted_chain(self):
        expr = ast.parse("self.jobs.active\n").body[0].value
        assert dotted_chain(expr) == "self.jobs.active"
        call_root = ast.parse("get().attr\n").body[0].value
        assert dotted_chain(call_root) is None


# ----------------------------------------------------------------------
# Forward solver + reaching definitions
# ----------------------------------------------------------------------


class TestReachingDefs:
    def test_branch_join_unions_definitions(self):
        func = _func(
            """
            def f(flag):
                if flag:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        cfg = build_cfg(func)
        defs = _defs_at(cfg, func, cfg.exit, "a")
        assert {d.lineno for d in defs} == {4, 6}
        assert {d.kind for d in defs} == {"assign"}

    def test_straight_line_rebind_is_a_strong_update(self):
        func = _func(
            """
            def f():
                x = 1
                x = 2
                return x
            """
        )
        cfg = build_cfg(func)
        defs = _defs_at(cfg, func, cfg.exit, "x")
        assert [d.lineno for d in defs] == [4]

    def test_loop_body_definition_reaches_header(self):
        func = _func(
            """
            def f(n):
                total = 0
                while n:
                    total = total + 1
                return total
            """
        )
        cfg = build_cfg(func)
        header = next(
            b.bid for b in cfg.blocks
            if any(isinstance(e, BranchTest) for e in b.elements)
        )
        defs = _defs_at(cfg, func, header, "total")
        # Fixpoint: both the initial binding and the loop-carried one.
        assert {d.lineno for d in defs} == {3, 5}

    def test_parameters_seed_the_initial_state(self):
        func = _func(
            """
            def f(a, b, *rest, key=None, **extra):
                return a
            """
        )
        cfg = build_cfg(func)
        in_states = solve_forward(cfg, ReachingDefs(func))
        state = in_states[cfg.entry]
        for name in ("a", "b", "rest", "key", "extra"):
            (definition,) = state[name]
            assert definition.kind == "param"

    def test_try_body_definitions_reach_the_handler(self):
        func = _func(
            """
            def f(flag):
                x = 0
                try:
                    x = 1
                    if flag:
                        x = 2
                except ValueError:
                    seen = x
                return x
            """
        )
        cfg = build_cfg(func)
        handler = _block_with_store(cfg, "seen")
        defs = _defs_at(cfg, func, handler, "x")
        assert {d.lineno for d in defs} >= {5, 7}

    def test_walrus_binding_is_a_definition(self):
        func = _func(
            """
            def f(items):
                if (n := len(items)) > 3:
                    return n
                return 0
            """
        )
        cfg = build_cfg(func)
        in_states = solve_forward(cfg, ReachingDefs(func))
        then_block = cfg.block(cfg.entry).succs[0]
        (definition,) = in_states[then_block]["n"]
        assert definition.kind == "assign"

    def test_definitions_carry_their_bound_value(self):
        func = _func(
            """
            def f():
                pool = spawn_pool(2)
                return pool
            """
        )
        cfg = build_cfg(func)
        defs = _defs_at(cfg, func, cfg.exit, "pool")
        (definition,) = defs
        assert isinstance(definition.value, ast.Call)
        assert definition.value.func.id == "spawn_pool"

    def test_solver_is_deterministic(self):
        func = _func(
            """
            def f(xs):
                acc = 0
                for x in xs:
                    if x:
                        acc = acc + x
                    else:
                        acc = 0
                return acc
            """
        )
        cfg = build_cfg(func)
        first = solve_forward(cfg, ReachingDefs(func))
        second = solve_forward(cfg, ReachingDefs(func))
        assert first == second


# ----------------------------------------------------------------------
# Project index / call graph
# ----------------------------------------------------------------------


def _write_project(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent(
        """
        def helper(x):
            return x + 1


        square = lambda x: x * x
        """
    ))
    (pkg / "b.py").write_text(textwrap.dedent(
        """
        from .a import helper as h


        class C:
            def m(self, v):
                return h(v)

            def chain(self, v):
                return self.m(v)
        """
    ))
    return [
        (pkg / "__init__.py", "src/pkg/__init__.py"),
        (pkg / "a.py", "src/pkg/a.py"),
        (pkg / "b.py", "src/pkg/b.py"),
    ]


class TestProjectIndex:
    def test_module_name_for(self):
        assert module_name_for("src/repro/api/cache.py") == "repro.api.cache"
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("tests/test_x.py") == "tests.test_x"

    def test_relative_import_aliases_resolve_against_package(self):
        tree = ast.parse("from .a import helper as h\nfrom .. import core\n")
        aliases = collect_module_aliases(tree, "pkg.sub.b")
        assert aliases["h"] == "pkg.sub.a.helper"
        assert aliases["core"] == "pkg.core"

    def test_build_indexes_functions_methods_and_lambdas(self, tmp_path):
        index = ProjectIndex.build(tmp_path, _write_project(tmp_path))
        helper = index.functions["pkg.a.helper"]
        assert helper.kind == "function" and helper.params == ("x",)
        assert index.functions["pkg.a.square"].kind == "lambda"
        method = index.functions["pkg.b.C.m"]
        assert method.kind == "method" and method.params == ("self", "v")

    def test_call_edges_resolve_through_aliases_and_self(self, tmp_path):
        index = ProjectIndex.build(tmp_path, _write_project(tmp_path))
        info = index.module_info("src/pkg/b.py")

        def callees(qualname):
            return [
                index.resolve_call_target(
                    info.module, call.func,
                    aliases=info.aliases, current_class="C",
                ).qualname
                for call in ast.walk(index.functions[qualname].node)
                if isinstance(call, ast.Call)
            ]

        assert callees("pkg.b.C.m") == ["pkg.a.helper"]
        assert callees("pkg.b.C.chain") == ["pkg.b.C.m"]

    def test_unreadable_and_unparseable_files_leave_errors(self, tmp_path):
        files = _write_project(tmp_path)
        pkg = tmp_path / "src" / "pkg"
        (pkg / "broken.py").write_text("def oops(:\n")
        (pkg / "latin.py").write_bytes(b"name = '\xe9'\n")
        files += [
            (pkg / "broken.py", "src/pkg/broken.py"),
            (pkg / "latin.py", "src/pkg/latin.py"),
        ]
        index = ProjectIndex.build(tmp_path, files)
        assert sorted(index.errors) == ["src/pkg/broken.py", "src/pkg/latin.py"]
        assert {f.rule for f in index.errors.values()} == {PARSE_ERROR}
        assert index.errors["src/pkg/broken.py"].message.startswith(
            "syntax error"
        )
        assert index.errors["src/pkg/latin.py"].message.startswith(
            "cannot read file"
        )
        assert index.module_info("src/pkg/broken.py") is None
        assert index.module_info("src/pkg/latin.py") is None
        assert sorted(index.modules) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py",
        ]
        assert "pkg.a.helper" in index.functions

    def test_module_context_resolves_relative_imports(self, tmp_path):
        index = ProjectIndex.build(tmp_path, _write_project(tmp_path))
        ctx = ModuleContext(index.module_info("src/pkg/b.py"), LintConfig())
        call = next(
            node for node in ast.walk(ctx.tree) if isinstance(node, ast.Call)
        )
        assert ctx.module == "pkg.b"
        assert ctx.resolve(call.func) == "pkg.a.helper"

    def test_resolve_name_orders_self_alias_local(self, tmp_path):
        index = ProjectIndex.build(tmp_path, _write_project(tmp_path))
        aliases = index.module_info("src/pkg/b.py").aliases
        via_alias = index.resolve_name("pkg.b", "h", aliases=aliases)
        assert via_alias is not None
        assert via_alias.qualname == "pkg.a.helper"
        via_self = index.resolve_name(
            "pkg.b", "self.m", aliases=aliases, current_class="C"
        )
        assert via_self is not None and via_self.qualname == "pkg.b.C.m"
        assert index.resolve_name("pkg.b", "nope", aliases=aliases) is None

    def test_build_is_deterministic(self, tmp_path):
        files = _write_project(tmp_path)
        first = ProjectIndex.build(tmp_path, files)
        second = ProjectIndex.build(tmp_path, files)

        def shape(index):
            functions = {
                q: (f.rel_path, f.name, f.kind, f.lineno, f.params)
                for q, f in index.functions.items()
            }
            aliases = {
                rel: m.aliases for rel, m in index.modules.items()
            }
            return list(functions.items()), list(aliases.items())

        assert shape(first) == shape(second)
        assert shape(first)[1] == [
            ("src/pkg/__init__.py", {}),
            ("src/pkg/a.py", {}),
            ("src/pkg/b.py", {"h": "pkg.a.helper"}),
        ]

    def test_every_function_keeps_its_node(self, tmp_path):
        index = ProjectIndex.build(tmp_path, _write_project(tmp_path))
        helper = index.functions["pkg.a.helper"].node
        assert isinstance(helper, ast.FunctionDef) and helper.name == "helper"
        assert isinstance(index.functions["pkg.a.square"].node, ast.Lambda)
        module = index.module_info("src/pkg/a.py")
        assert helper in module.tree.body


def test_relative_spawn_pool_import_is_recognised(tmp_path):
    # ``from ..pools import spawn_pool`` resolves to the one spelling
    # pool-safety knows, ``repro.pools.spawn_pool``, so lambda jobs are
    # still flagged while module-level jobs of the same package are not.
    api = tmp_path / "src" / "repro" / "api"
    api.mkdir(parents=True)
    (api.parent / "__init__.py").write_text("")
    (api / "__init__.py").write_text("")
    (api / "work.py").write_text(textwrap.dedent(
        """
        def double(x):
            return 2 * x


        square = lambda x: x * x
        """
    ))
    (api / "jobs.py").write_text(textwrap.dedent(
        """
        from ..pools import spawn_pool
        from .work import double, square


        def inline_lambda(xs):
            with spawn_pool(2) as pool:
                return list(pool.map(lambda x: x, xs))


        def sibling_lambda(xs):
            with spawn_pool(2) as pool:
                return list(pool.map(square, xs))


        def module_level(xs):
            with spawn_pool(2) as pool:
                return list(pool.map(double, xs))
        """
    ))
    config = LintConfig(
        root=tmp_path, paths=("src",), determinism_paths=(),
        api_paths=(), cache_guards=(),
    )
    result = run_lint(config, only=["pool-safety"])
    flagged = [(f.path, f.line) for f in result.findings]
    assert flagged == [("src/repro/api/jobs.py", 8), ("src/repro/api/jobs.py", 13)]
    assert "lambda defined at line 8" in result.findings[0].message
    assert "src/repro/api/work.py:6" in result.findings[1].message
