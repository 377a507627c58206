"""Declarative target descriptions: specs, machine files and the registry.

The target subsystem turns the machine model into data: a
:class:`TargetSpec` bundles clusters, interconnect topology and latency
model; machine files serialise it to TOML/JSON; the registry names the
builtin configurations (``paper-ring-4``, ``mesh-3x3``, ``crossbar-8``,
...) every CLI ``--target`` flag and ``CompilationRequest(machine="...")``
string resolves through.  Names load on first use: a compile that
names no target never reads the registry or the file formats.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".builtins": (
        "TARGET_REGISTRY",
        "get_target",
        "register_target",
        "resolve_target",
        "target_names",
    ),
    ".files": (
        "dumps_toml",
        "load_target",
        "loads_target",
        "save_target",
        "target_to_toml",
    ),
    ".spec": ("TargetSpec", "target_from_dict"),
})
