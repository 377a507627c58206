"""Start-up hygiene: ``import repro.cli`` loads only what a command uses.

Structural checks, no timing bound.  The package ``__init__`` files keep
their public names behind a PEP 562 ``__getattr__`` and the CLI imports
each command's modules in its handler, so a fresh ``import repro.cli``
must not load numpy, the service, the lint engine, the validation stack
or the experiment layer.  Every public name must still resolve, and so
must every name the benchmark harness imports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent
NOT_LOADED = ("numpy", "repro.service", "repro.analysis", "repro.validate", "repro.experiments")
LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.experiments",
    "repro.service",
    "repro.targets",
    "repro.validate",
    "repro.workloads",
)


def fresh_modules(code):
    """``sys.modules`` keys after running *code* in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_repro_cli_loads_no_heavy_layer():
    loaded = fresh_modules("import repro.cli")
    assert not [name for name in NOT_LOADED if name in loaded]


def test_lint_rule_table_loads_no_ir():
    loaded = fresh_modules("from repro.cli import main\nmain(['lint', '--rules', 'help'])")
    assert "repro.analysis" in loaded  # the command ran
    assert not [name for name in loaded if name.startswith("repro.ir")]


def test_the_compile_path_never_loads_numpy():
    loaded = fresh_modules(
        "from repro.api import CompilationRequest, Toolchain\n"
        "from repro.machine import clustered_vliw\n"
        "from repro.workloads.kernels import make_kernel\n"
        "from repro.validate.oracle import verify_compiled\n"
        "report = Toolchain.default().compile(CompilationRequest("
        "loop=make_kernel('daxpy'), machine=clustered_vliw(2)))\n"
        "assert verify_compiled(report.compiled).ok"
    )
    assert "numpy" not in loaded
    assert "repro.validate.fuzz" not in loaded
    assert "repro.service" not in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_star_import_binds_all_of_repro():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Toolchain"] is repro.api.Toolchain


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.api.nonexistent
    assert not hasattr(repro, "nonexistent")


def perfbench_imports():
    """Every ``from repro... import name`` in the benchmark harness."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_every_name_the_benchmark_imports_resolves():
    imports = perfbench_imports()
    assert ("repro.validate.oracle", "verify_compiled") in imports
    for module, name in imports:
        assert getattr(__import__(module, fromlist=[name]), name) is not None, (module, name)


def test_the_names_the_benchmark_rebinds_exist():
    from repro.api import passes
    from repro.api.passes import SchedulePass, get_pass
    from repro.api.toolchain import DEFAULT_PASSES
    from repro.service.client import ServiceClient
    from repro.validate import oracle

    for name in ("choose_unroll_factor", "unroll_ddg", "single_use_ddg",
                 "validate_schedule", "allocate_queues"):
        assert callable(getattr(passes, name)), name
    for name in ("allocate_queues", "build_program", "execute_program",
                 "sequential_run", "verify_compiled"):
        assert callable(getattr(oracle, name)), name
    assert SchedulePass._SCHEDULERS and callable(get_pass) and DEFAULT_PASSES
    for name in ("healthz", "compile", "metrics", "submit_sweep", "sweep", "sweep_results"):
        assert callable(getattr(ServiceClient, name)), name


def test_ablation_choices_match_the_registry():
    from repro.cli import ABLATION_NAMES
    from repro.experiments.ablations import ABLATIONS

    assert ABLATION_NAMES == tuple(sorted(ABLATIONS))


def test_kernel_choices_and_suite_size_match_the_workloads():
    from repro.cli import KERNEL_NAMES, SUITE_LOOPS
    from repro.workloads.kernels import KERNELS
    from repro.workloads.suite import PERFECT_CLUB_LOOP_COUNT

    assert KERNEL_NAMES == tuple(sorted(KERNELS))
    assert SUITE_LOOPS == PERFECT_CLUB_LOOP_COUNT
