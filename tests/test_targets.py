"""Tests for the declarative target-description API.

Covers the serialisation round-trip, machine-file loading (TOML/JSON,
good and bad), the builtin registry, session-API integration (requests
built from target names, cache invalidation on target edits) and the
acceptance property: the example mesh and crossbar machine files compile
the full kernel suite through the batch compiler with the independent
checker enabled.
"""

import json
import os

import pytest

from repro.api import CompilationRequest, compile_many
from repro.api.cache import content_hash
from repro.errors import TargetError
from repro.ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from repro.scheduling.checker import check_schedule
from repro.targets import (
    TargetSpec,
    get_target,
    load_target,
    loads_target,
    register_target,
    resolve_target,
    save_target,
    target_from_dict,
    target_to_toml,
    target_names,
)
from repro.workloads import KERNELS, make_kernel

from .conftest import build_stream_loop

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "targets")


class TestRoundTrip:
    @pytest.mark.parametrize("name", target_names())
    def test_dict_round_trip(self, name):
        target = get_target(name)
        assert target_from_dict(target.to_dict()) == target

    @pytest.mark.parametrize("name", target_names())
    def test_toml_round_trip(self, name):
        target = get_target(name)
        assert loads_target(target_to_toml(target), format="toml") == target

    def test_json_round_trip(self):
        target = get_target("mesh-3x3")
        text = json.dumps(target.to_dict())
        assert loads_target(text, format="json") == target

    def test_files_round_trip(self, tmp_path):
        target = get_target("hetero-4")
        for suffix in (".toml", ".json"):
            path = tmp_path / f"target{suffix}"
            save_target(target, path)
            assert load_target(path) == target

    def test_description_and_latencies_survive(self):
        target = get_target("hetero-4")
        reloaded = target_from_dict(target.to_dict())
        assert reloaded.description == target.description
        assert reloaded.latencies.load == 4
        assert reloaded.latencies.mul == 4


class TestBadFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TargetError, match="cannot read"):
            load_target(tmp_path / "nope.toml")

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "target.yaml"
        path.write_text("name: x")
        with pytest.raises(TargetError, match="unsupported suffix"):
            load_target(path)

    def test_invalid_toml_text(self):
        with pytest.raises(TargetError, match="invalid TOML"):
            loads_target("name = [unterminated", format="toml")

    def test_invalid_json_text(self):
        with pytest.raises(TargetError, match="invalid JSON"):
            loads_target("{", format="json")

    def test_missing_name(self):
        with pytest.raises(TargetError, match="name"):
            target_from_dict({"clusters": [{"mem": 1}]})

    def test_missing_clusters(self):
        with pytest.raises(TargetError, match="clusters"):
            target_from_dict({"name": "x"})

    def test_unknown_top_level_key(self):
        with pytest.raises(TargetError, match="unknown key"):
            target_from_dict(
                {"name": "x", "clusters": [{"mem": 1}], "frobnicate": 1}
            )

    def test_unknown_cluster_key(self):
        with pytest.raises(TargetError, match="unknown key"):
            target_from_dict({"name": "x", "clusters": [{"mem": 1, "gpu": 2}]})

    def test_unknown_topology_kind(self):
        with pytest.raises(TargetError, match="unknown topology"):
            target_from_dict(
                {
                    "name": "x",
                    "clusters": [{"mem": 1}, {"mem": 1}],
                    "topology": {"kind": "hypercube"},
                }
            )

    def test_untileable_mesh_shape(self):
        with pytest.raises(TargetError, match="does not tile"):
            target_from_dict(
                {
                    "name": "x",
                    "clusters": [{}, {}, {}],
                    "topology": {"kind": "mesh", "params": {"rows": 2, "cols": 2}},
                }
            )

    def test_malformed_topology_params(self):
        for params in ({"rosw": 3}, {"rows": "three"}, {"cols": 0}):
            with pytest.raises(TargetError):
                target_from_dict(
                    {
                        "name": "x",
                        "clusters": [{}, {}, {}, {}],
                        "topology": {"kind": "mesh", "params": params},
                    }
                )

    def test_bad_latency_value(self):
        with pytest.raises(TargetError):
            target_from_dict(
                {"name": "x", "clusters": [{}], "latencies": {"load": 0}}
            )

    def test_bad_cluster_count(self):
        with pytest.raises(TargetError, match="count"):
            target_from_dict({"name": "x", "clusters": [{"count": 0}]})

    def test_empty_cluster_list(self):
        with pytest.raises(TargetError, match="non-empty"):
            target_from_dict({"name": "x", "clusters": []})


class TestRegistry:
    def test_builtins_present(self):
        names = target_names()
        for expected in ("paper-ring-4", "mesh-3x3", "crossbar-8", "hetero-4"):
            assert expected in names

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(TargetError, match="paper-ring-4"):
            get_target("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TargetError, match="already registered"):
            register_target(get_target("paper-ring-4"))

    def test_resolve_prefers_files_for_paths(self):
        target = resolve_target(os.path.join(EXAMPLES, "mesh-3x3.toml"))
        assert target.name == "mesh-3x3-file"
        assert target.topology_kind == "mesh"

    def test_resolve_falls_back_to_registry(self):
        assert resolve_target("crossbar-8") is get_target("crossbar-8")


class TestRequestIntegration:
    def test_request_accepts_target_name(self, stream_loop):
        request = CompilationRequest(loop=stream_loop, machine="paper-ring-4")
        assert request.machine.n_clusters == 4
        assert request.machine.topology_kind == "ring"

    def test_request_accepts_target_file(self, stream_loop):
        request = CompilationRequest(
            loop=stream_loop, machine=os.path.join(EXAMPLES, "crossbar-8.toml")
        )
        assert request.machine.topology_kind == "crossbar"
        # The target's latency model rides along.
        assert request.latencies.load == 3

    def test_request_adopts_target_latencies(self, stream_loop):
        request = CompilationRequest(loop=stream_loop, machine="hetero-4")
        assert request.latencies == get_target("hetero-4").latencies

    def test_explicit_latencies_win_over_target(self, stream_loop):
        fast = LatencyModel(load=1)
        request = CompilationRequest(
            loop=stream_loop, machine="hetero-4", latencies=fast
        )
        assert request.latencies is fast

    def test_explicit_default_latencies_win_over_target(self, stream_loop):
        request = CompilationRequest(
            loop=stream_loop, machine="hetero-4", latencies=DEFAULT_LATENCIES
        )
        assert request.latencies is DEFAULT_LATENCIES

    def test_plain_machine_inherits_default_latencies(self, clustered4, stream_loop):
        request = CompilationRequest(loop=stream_loop, machine=clustered4)
        assert request.latencies is DEFAULT_LATENCIES

    def test_unknown_target_name_raises(self, stream_loop):
        with pytest.raises(TargetError):
            CompilationRequest(loop=stream_loop, machine="not-a-target")


class TestCacheInvalidation:
    def test_key_changes_with_target_latencies(self, stream_loop):
        base = get_target("mesh-3x3")
        edited = target_from_dict(
            {**base.to_dict(), "latencies": {**base.to_dict()["latencies"], "mul": 5}}
        )
        key_a = content_hash(CompilationRequest(loop=stream_loop, machine=base))
        key_b = content_hash(CompilationRequest(loop=stream_loop, machine=edited))
        assert key_a != key_b

    def test_key_changes_with_topology_params(self, stream_loop):
        base = get_target("mesh-3x3").to_dict()
        reshaped = {**base, "topology": {"kind": "mesh", "params": {"rows": 1, "cols": 9}}}
        key_a = content_hash(
            CompilationRequest(loop=stream_loop, machine=target_from_dict(base))
        )
        key_b = content_hash(
            CompilationRequest(loop=stream_loop, machine=target_from_dict(reshaped))
        )
        assert key_a != key_b

    def test_key_stable_across_file_reload(self, stream_loop, tmp_path):
        target = get_target("crossbar-8")
        path = tmp_path / "t.toml"
        save_target(target, path)
        key_a = content_hash(CompilationRequest(loop=stream_loop, machine=target))
        key_b = content_hash(
            CompilationRequest(loop=stream_loop, machine=str(path))
        )
        assert key_a == key_b

    def test_batch_cache_invalidates_on_target_edit(self, stream_loop, tmp_path):
        """Editing the machine file re-compiles instead of serving stale."""
        path = tmp_path / "t.toml"
        target = get_target("paper-ring-2")
        save_target(target, path)
        cache = tmp_path / "cache"
        request = CompilationRequest(loop=stream_loop, machine=str(path))
        (first,) = compile_many([request], cache=cache)
        assert not first.cache_hit
        (warm,) = compile_many([request], cache=cache)
        assert warm.cache_hit
        # Edit the file: slower multiplier.
        edited = target_from_dict(
            {**target.to_dict(), "latencies": {"mul": 6}}
        )
        save_target(edited, path)
        (cold,) = compile_many(
            [CompilationRequest(loop=stream_loop, machine=str(path))], cache=cache
        )
        assert not cold.cache_hit


class TestAcceptance:
    """The ISSUE's acceptance property: mesh + crossbar machine files
    compile the full kernel suite and pass the independent checker."""

    @pytest.mark.parametrize(
        "filename", ["mesh-3x3.toml", "crossbar-8.toml"]
    )
    def test_full_kernel_suite_on_machine_file(self, filename):
        target = load_target(os.path.join(EXAMPLES, filename))
        requests = [
            CompilationRequest(
                loop=make_kernel(name),
                machine=target,
                allocate=False,
                validate=True,  # validate_schedule raises inside the pass
            )
            for name in sorted(KERNELS)
        ]
        reports = compile_many(requests, workers=max(1, (os.cpu_count() or 2) - 1))
        assert len(reports) == len(KERNELS)
        for report in reports:
            assert check_schedule(report.result).ok
            if filename.startswith("crossbar"):
                # Every pair is adjacent: DMS must never build a chain.
                assert report.result.stats.chains_built == 0
