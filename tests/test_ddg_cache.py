"""DDG adjacency-cache invalidation tests.

The DDG stores one pre-sorted adjacency tuple per op, replaced by the
mutation that changes it, and caches the sorted id tuple and flow
consumer references, invalidated only by mutation.  These tests exercise
the invalidation paths the DMS scheduler actually takes — move insertion
(``new_operation`` + ``replace_operand``) and chain dismantling
(``replace_operand`` back + ``remove_operation``) — plus copy
independence and the adjacency-version counter scheduler caches key off.
"""

import pytest

from repro.errors import SchedulingError
from repro.ir.ddg import DDG
from repro.ir.edges import DepKind
from repro.ir.opcodes import OpCode, FUKind
from repro.ir.operations import ValueUse, external, use
from repro.machine import clustered_vliw
from repro.scheduling.mrt import ModuloReservationTable
from repro.scheduling.schedule import PartialSchedule
from repro.ir.opcodes import DEFAULT_LATENCIES


def chain_ddg() -> DDG:
    """load -> add -> store with one loop-carried use."""
    ddg = DDG("t")
    ddg.new_operation(OpCode.LOAD, (external("a"),))  # 0
    ddg.new_operation(OpCode.ADD, (use(0), use(1, omega=1)))  # 1
    ddg.new_operation(OpCode.STORE, (use(1), external("p")))  # 2
    return ddg


def edge_pairs(edges):
    return [(e.src, e.dst, e.kind, e.omega) for e in edges]


class TestAdjacencyCaches:
    def test_reads_are_cached_tuples(self):
        ddg = chain_ddg()
        assert ddg.out_edges(0) is ddg.out_edges(0)
        assert ddg.in_edges(1) is ddg.in_edges(1)
        assert ddg.op_ids is ddg.op_ids
        assert ddg.flow_succ_refs(0) is ddg.flow_succ_refs(0)

    def test_add_dep_invalidates_both_endpoints(self):
        ddg = chain_ddg()
        out0 = ddg.out_edges(0)
        in2 = ddg.in_edges(2)
        ddg.add_dep(0, 2, DepKind.MEM, omega=0, latency=1)
        assert ddg.out_edges(0) is not out0
        assert ddg.in_edges(2) is not in2
        assert (0, 2, DepKind.MEM, 0) in [
            (e.src, e.dst, e.kind, e.omega) for e in ddg.out_edges(0)
        ]

    def test_remove_dep_invalidates(self):
        ddg = chain_ddg()
        edge = ddg.add_dep(0, 2, DepKind.MEM, omega=0, latency=1)
        before = ddg.out_edges(0)
        ddg.remove_dep(edge)
        assert edge_pairs(ddg.out_edges(0)) == [
            (0, 1, DepKind.FLOW, 0)
        ]
        assert before is not ddg.out_edges(0)

    def test_op_ids_track_add_and_remove(self):
        ddg = chain_ddg()
        assert ddg.op_ids == (0, 1, 2)
        move = ddg.new_operation(OpCode.MOVE, (use(0),))
        assert ddg.op_ids == (0, 1, 2, move.op_id)
        # rewire the only consumer of the move before removing it
        ddg.remove_operation(move.op_id)
        assert ddg.op_ids == (0, 1, 2)

    def test_move_insertion_invalidates_like_dms(self):
        """The exact mutation sequence of ChainPlanner.apply."""
        ddg = chain_ddg()
        refs0 = ddg.flow_succ_refs(0)
        assert refs0 == ((1, 0, 0),)
        move = ddg.new_operation(OpCode.MOVE, (use(0),))
        # producer 0 now also feeds the move
        assert ddg.flow_succ_refs(0) == ((1, 0, 0), (move.op_id, 0, 0))
        ddg.replace_operand(1, 0, use(move.op_id))
        assert ddg.flow_succ_refs(0) == ((move.op_id, 0, 0),)
        assert ddg.flow_succ_refs(move.op_id) == ((1, 0, 0),)
        assert (move.op_id, 1, DepKind.FLOW, 0) in [
            (e.src, e.dst, e.kind, e.omega) for e in ddg.in_edges(1)
        ]
        ddg.validate()

    def test_chain_dismantle_restores_adjacency(self):
        ddg = chain_ddg()
        snapshot_out = edge_pairs(ddg.out_edges(0))
        snapshot_in = edge_pairs(ddg.in_edges(1))
        snapshot_refs = ddg.flow_succ_refs(0)
        move = ddg.new_operation(OpCode.MOVE, (use(0),))
        ddg.replace_operand(1, 0, use(move.op_id))
        # dismantle: restore the original operand, drop the move
        ddg.replace_operand(1, 0, use(0))
        ddg.remove_operation(move.op_id)
        assert edge_pairs(ddg.out_edges(0)) == snapshot_out
        assert edge_pairs(ddg.in_edges(1)) == snapshot_in
        assert ddg.flow_succ_refs(0) == snapshot_refs
        assert ddg.op_ids == (0, 1, 2)
        ddg.validate()

    def test_ref_edge_join_tracks_every_mutation(self):
        """``flow_succ_ref_edges`` is cached; after each mutation its
        pairs equal those of a graph rebuilt from scratch."""

        def rebuilt(ddg):
            fresh = DDG(ddg.name)
            for op in ddg.operations():
                fresh.add_operation(op)
            for edge in ddg.edges():
                if not edge.is_flow:
                    fresh.add_dep(edge.src, edge.dst, edge.kind, edge.omega, edge.latency)
            return fresh

        def joined(ddg):
            return {
                op_id: [(ref, (e.src, e.dst, e.kind, e.omega, e.latency))
                        for ref, e in ddg.flow_succ_ref_edges(op_id)]
                for op_id in ddg.op_ids
            }

        ddg = chain_ddg()
        steps = []
        move = ddg.new_operation(OpCode.MOVE, (use(0),))
        steps.append(lambda: ddg.replace_operand(1, 0, use(move.op_id)))
        steps.append(lambda: ddg.replace_operand(2, 0, use(move.op_id)))
        mem = []
        steps.append(lambda: mem.append(ddg.add_dep(0, 2, DepKind.MEM, latency=1)))
        steps.append(lambda: ddg.remove_dep(mem.pop()))
        steps.append(lambda: ddg.replace_operand(1, 0, use(0)))
        steps.append(lambda: ddg.replace_operand(2, 0, use(1)))
        steps.append(lambda: ddg.remove_operation(move.op_id))
        assert joined(ddg) == joined(rebuilt(ddg))
        for step in steps:
            step()
            assert joined(ddg) == joined(rebuilt(ddg))
        assert ddg.flow_succ_ref_edges(0) is ddg.flow_succ_ref_edges(0)
        assert joined(ddg) == joined(chain_ddg())

    def test_copy_isolation_both_directions(self):
        ddg = chain_ddg()
        ddg.out_edges(0)  # warm caches
        clone = ddg.copy()
        move = clone.new_operation(OpCode.MOVE, (use(0),))
        clone.replace_operand(1, 0, use(move.op_id))
        # original unaffected
        assert edge_pairs(ddg.out_edges(0)) == [(0, 1, DepKind.FLOW, 0)]
        assert ddg.flow_succ_refs(0) == ((1, 0, 0),)
        assert move.op_id not in ddg
        # and the clone sees its own mutation
        assert (0, move.op_id, DepKind.FLOW, 0) in edge_pairs(clone.out_edges(0))
        # mutating the original afterwards leaves the clone alone
        ddg.add_dep(0, 2, DepKind.MEM, latency=1)
        assert all(e.kind != DepKind.MEM for e in clone.out_edges(0))

    def test_adj_version_bumps_on_mutation_only(self):
        ddg = chain_ddg()
        v0 = ddg.adj_version(0)
        v2 = ddg.adj_version(2)
        ddg.out_edges(0)
        ddg.in_edges(0)
        assert ddg.adj_version(0) == v0  # reads do not bump
        ddg.add_dep(0, 2, DepKind.MEM, latency=1)
        assert ddg.adj_version(0) > v0
        assert ddg.adj_version(2) > v2

    def test_pickle_leaves_the_read_caches_behind(self):
        import pickle

        ddg = chain_ddg()
        views = [(ddg.in_edges(i), ddg.out_edges(i), ddg.flow_succ_refs(i)) for i in ddg.op_ids]
        ddg.edge_latency(ddg.out_edges(0)[0], DEFAULT_LATENCIES)
        loaded = pickle.loads(pickle.dumps(ddg))
        assert not loaded._refs_cache and not loaded._ref_edges_cache
        assert loaded._op_ids_cache is None and not loaded._adj_version
        assert all(not hasattr(e, "_lat_cache") for e in loaded.edges())
        assert [(loaded.in_edges(i), loaded.out_edges(i), loaded.flow_succ_refs(i))
                for i in loaded.op_ids] == views
        assert ddg.out_edges(0) is views[0][1]  # the original keeps its adjacency
        assert ddg._refs_cache  # ... and its read caches
        loaded.validate()
        move = loaded.new_operation(OpCode.MOVE, (use(0),))
        loaded.replace_operand(1, 0, use(move.op_id))
        assert edge_pairs(loaded.in_edges(1)) == [
            (1, 1, DepKind.FLOW, 1), (move.op_id, 1, DepKind.FLOW, 0),
        ]

    def test_forward_reference_resolved_on_late_insert(self):
        ddg = DDG("fwd")
        ddg.new_operation(OpCode.ADD, (use(5), external("x")), op_id=0)
        assert edge_pairs(ddg.in_edges(0)) == []
        ddg.new_operation(OpCode.LOAD, (external("a"),), op_id=5)
        assert edge_pairs(ddg.in_edges(0)) == [(5, 0, DepKind.FLOW, 0)]
        ddg.validate()


class TestMRTCaches:
    def test_occupants_cached_until_mutation(self):
        machine = clustered_vliw(2)
        mrt = ModuloReservationTable(machine, 2)
        mrt.place(7, 0, FUKind.ALU, 1)
        first = mrt.occupants(0, FUKind.ALU, 1)
        assert first == (7,)
        assert mrt.occupants(0, FUKind.ALU, 3) is first  # same row, cached
        mrt.place(3, 0, FUKind.ALU, 2)  # row 0: invalidates only that row
        assert mrt.occupants(0, FUKind.ALU, 1) is first
        assert mrt.occupants(0, FUKind.ALU, 0) == (3,)
        with pytest.raises(SchedulingError):
            mrt.place(9, 0, FUKind.ALU, 1)  # row 1 full (capacity 1)
        mrt.remove(7, 0, FUKind.ALU, 1)
        assert mrt.occupants(0, FUKind.ALU, 1) == ()

    def test_full_backtrack_reports_fresh_state(self):
        machine = clustered_vliw(2)
        mrt = ModuloReservationTable(machine, 3)
        fresh = ModuloReservationTable(machine, 3)
        mrt.place(1, 1, FUKind.MEM, 0)
        assert mrt.used_slots(1, FUKind.MEM) == 1
        mrt.remove(1, 1, FUKind.MEM, 0)
        for kind in (FUKind.MEM, FUKind.ALU, FUKind.COPY):
            for cluster in range(2):
                assert mrt.used_slots(cluster, kind) == fresh.used_slots(cluster, kind)
                assert mrt.free_slots(cluster, kind) == fresh.free_slots(cluster, kind)
                for time in range(3):
                    assert mrt.occupants(cluster, kind, time) == ()
                    assert mrt.is_free(cluster, kind, time) == fresh.is_free(
                        cluster, kind, time
                    )

    def test_first_free_slot_matches_is_free_scan(self):
        machine = clustered_vliw(2)
        ii = 4
        mrt = ModuloReservationTable(machine, ii)
        mrt.place(1, 0, FUKind.COPY, 0)
        mrt.place(2, 0, FUKind.COPY, 1)
        for estart in range(0, 9):
            expected = None
            for time in range(estart, estart + ii):
                if mrt.is_free(0, FUKind.COPY, time):
                    expected = time
                    break
            assert mrt.first_free_slot(0, FUKind.COPY, estart) == expected

    def test_first_free_slot_full_lane(self):
        machine = clustered_vliw(2)
        mrt = ModuloReservationTable(machine, 2)
        mrt.place(1, 0, FUKind.MUL, 0)
        mrt.place(2, 0, FUKind.MUL, 1)
        assert mrt.first_free_slot(0, FUKind.MUL, 0) is None


class TestIncrementalCompat:
    def brute_force(self, schedule, op_id):
        return [
            c
            for c in range(schedule.machine.n_clusters)
            if not schedule.comm_conflicts(op_id, c)
        ]

    def test_compat_tracks_place_remove_and_mutation(self):
        ddg = DDG("compat")
        ddg.new_operation(OpCode.LOAD, (external("a"),))  # 0
        ddg.new_operation(OpCode.LOAD, (external("b"),))  # 1
        ddg.new_operation(OpCode.ADD, (use(0), use(1)))  # 2
        ddg.new_operation(OpCode.STORE, (use(2), external("p")))  # 3
        machine = clustered_vliw(6)  # 6-cluster ring
        schedule = PartialSchedule(ddg, machine, 2, DEFAULT_LATENCIES)

        assert schedule.comm_compatible_clusters(2) == self.brute_force(schedule, 2)
        schedule.place(0, 0, 0)
        assert schedule.comm_compatible_clusters(2) == self.brute_force(schedule, 2)
        schedule.place(1, 0, 2)
        # preds on clusters 0 and 2 -> only cluster 1 is compatible
        assert schedule.comm_compatible_clusters(2) == [1]
        assert schedule.comm_compatible_clusters(2) == self.brute_force(schedule, 2)
        schedule.remove(1)
        assert schedule.comm_compatible_clusters(2) == self.brute_force(schedule, 2)
        # graph mutation (move insertion) invalidates the cached set
        move = ddg.new_operation(OpCode.MOVE, (use(1),))
        ddg.replace_operand(2, 1, use(move.op_id))
        schedule.place(move.op_id, 0, 5)
        assert schedule.comm_compatible_clusters(2) == self.brute_force(schedule, 2)

    def test_unconstrained_op_sees_every_cluster(self):
        ddg = DDG("free")
        ddg.new_operation(OpCode.LOAD, (external("a"),))
        machine = clustered_vliw(4)
        schedule = PartialSchedule(ddg, machine, 2, DEFAULT_LATENCIES)
        assert schedule.comm_compatible_clusters(0) == [0, 1, 2, 3]

    def test_asymmetric_topology_judged_per_direction(self):
        from repro.machine.topology import (
            TOPOLOGY_REGISTRY,
            Topology,
            register_topology,
        )

        if "oneway-ring-test" not in TOPOLOGY_REGISTRY:

            @register_topology
            class OneWayRing(Topology):
                """dist(a, b) = (b - a) mod n — deliberately asymmetric."""

                kind = "oneway-ring-test"

                def distance(self, a, b):
                    return (b - a) % self.n_clusters

                def neighbors(self, cluster):
                    return ((cluster + 1) % self.n_clusters,)

        ddg = DDG("asym")
        ddg.new_operation(OpCode.LOAD, (external("a"),))  # 0: producer
        ddg.new_operation(OpCode.ADD, (use(0), external("x")))  # 1: consumer
        machine = clustered_vliw(3, topology="oneway-ring-test")
        schedule = PartialSchedule(ddg, machine, 2, DEFAULT_LATENCIES)

        # Producer on cluster 0: the consumer must be within one *forward*
        # hop of it -> clusters {0, 1}, not {0, 2}.
        schedule.place(0, 0, 0)
        assert schedule.comm_compatible_clusters(1) == [0, 1]
        assert schedule.comm_conflicts(1, 2) == [0]
        schedule.remove(0)
        # Consumer on cluster 0: the producer must reach it in one forward
        # hop -> clusters {0, 2}.
        schedule.place(1, 1, 0)
        assert schedule.comm_compatible_clusters(0) == [0, 2]
        assert schedule.comm_conflicts(0, 1) == [1]
