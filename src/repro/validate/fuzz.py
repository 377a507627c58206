"""Schedule-mutation fuzzing: the static checker against the oracle.

The checker judges a schedule statically; the execution oracle runs the
emitted program.  When one accepts a schedule the other rejects, at
least one of them is wrong.  The fuzzer hunts for exactly those
disagreements: it compiles randomized loops (the synthetic generator
behind the Perfect Club surrogate) across random topologies and cluster
counts, then applies systematic mutations to each valid schedule and
cross-examines every mutant.

The **agreement contract** makes "agree" precise, because the two judges
have different scopes by design:

* baseline (no mutation): both must accept a schedule the toolchain just
  produced;
* placement mutations (``shift``, ``swap_clusters``, ``move_cluster``,
  ``tighten_edge``): the checker accepts if and only if the oracle
  accepts.  Every static rule those mutations can break has a dynamic
  mirror, including the explicit ordering edges, which the oracle checks
  on its issue cycles;
* capacity mutation (``shrink_queue``): the checker has no queue-capacity
  rule, so it must accept; the mutant sets the CQRF depth one below what
  the schedule needs, so the oracle must reject.

Any contract violation is recorded as a :class:`Disagreement`, minimized
by shrinking the loop body, and serialised for the CI artifact.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..api import CompilationRequest, CompiledLoop, Toolchain
from ..errors import ReproError
from ..ir.ddg import DDG
from ..ir.edges import DepKind
from ..ir.loop import Loop
from ..ir.opcodes import OpCode
from ..machine.cqrf import CQRFId, QueueFileSpec
from ..machine.machine import MachineSpec, clustered_vliw
from ..registers.queues import allocate_queues
from ..scheduling.checker import check_schedule
from ..scheduling.result import ScheduleResult
from ..scheduling.schedule import Placement
from ..workloads.synthetic import SyntheticSpec, synthetic_loop

#: Fuzzing population spec: the surrogate-suite shapes plus memory
#: aliasing edges, so the ordering-edge paths of the checker and the
#: oracle face mutants too.
FUZZ_SPEC = SyntheticSpec(p_mem_dep=0.35)
from .oracle import verify_compiled

#: Topology kinds the fuzzer samples (the five concrete interconnects).
DEFAULT_TOPOLOGIES: Tuple[str, ...] = (
    "ring",
    "linear",
    "mesh",
    "torus",
    "crossbar",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Tunables of one fuzzing campaign (deterministic in ``seed``)."""

    seed: int = 1999
    trials: int = 50
    mutants_per_trial: int = 8
    time_budget: Optional[float] = None  # wall-clock seconds, None = off
    cluster_counts: Tuple[int, ...] = (2, 4, 8)
    topologies: Tuple[str, ...] = DEFAULT_TOPOLOGIES
    minimize: bool = True

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mutants_per_trial < 0:
            raise ValueError("mutants_per_trial must be >= 0")


@dataclass
class Verdicts:
    """One (schedule, machine) examined by both judges."""

    checker_ok: bool
    oracle_ok: bool
    checker_problems: List[str] = field(default_factory=list)
    oracle_problems: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checker_ok": self.checker_ok,
            "oracle_ok": self.oracle_ok,
            "checker_problems": self.checker_problems[:5],
            "oracle_problems": self.oracle_problems[:5],
        }


@dataclass
class Disagreement:
    """One contract violation, with enough context to replay it."""

    trial: int
    loop_name: str
    loop_origin: Dict[str, object]
    machine: str
    topology: str
    n_clusters: int
    mutation: str
    mutation_detail: str
    violations: List[str]
    verdicts: Verdicts
    minimized_ops: Optional[int] = None
    minimized_listing: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "trial": self.trial,
            "loop_name": self.loop_name,
            "loop_origin": dict(self.loop_origin),
            "machine": self.machine,
            "topology": self.topology,
            "n_clusters": self.n_clusters,
            "mutation": self.mutation,
            "mutation_detail": self.mutation_detail,
            "violations": list(self.violations),
            "verdicts": self.verdicts.to_dict(),
            "minimized_ops": self.minimized_ops,
            "minimized_listing": self.minimized_listing,
        }


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    config: FuzzConfig
    trials_run: int = 0
    mutants_run: int = 0
    compile_failures: int = 0
    elapsed: float = 0.0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENT(S)"
        return (
            f"fuzz seed={self.config.seed}: {self.trials_run} trial(s), "
            f"{self.mutants_run} mutant(s), {self.compile_failures} "
            f"compile failure(s), {self.elapsed:.1f}s -> {status}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.config.seed,
            "trials_run": self.trials_run,
            "mutants_run": self.mutants_run,
            "compile_failures": self.compile_failures,
            "elapsed_seconds": round(self.elapsed, 3),
            "ok": self.ok,
            "disagreements": [d.to_dict() for d in self.disagreements],
        }


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------

Mutator = Callable[[np.random.Generator, ScheduleResult], Optional[Tuple[ScheduleResult, str]]]


def _with_placements(result: ScheduleResult, placements) -> ScheduleResult:
    return dataclasses.replace(result, placements=placements)


def mutate_shift(rng: np.random.Generator, result: ScheduleResult):
    """Shift one op's issue time by a small signed amount."""
    op_ids = sorted(result.placements)
    if not op_ids:
        return None
    op_id = int(rng.choice(op_ids))
    old = result.placements[op_id]
    delta = int(rng.choice([-2, -1, 1, 2]))
    new_time = max(0, old.time + delta)
    if new_time == old.time:
        new_time = old.time + abs(delta)
    placements = dict(result.placements)
    placements[op_id] = Placement(time=new_time, cluster=old.cluster)
    return (
        _with_placements(result, placements),
        f"v{op_id}: t={old.time} -> {new_time}",
    )


def mutate_swap_clusters(rng: np.random.Generator, result: ScheduleResult):
    """Swap the clusters of two ops placed on different clusters."""
    if not result.machine.is_clustered:
        return None
    op_ids = sorted(result.placements)
    by_cluster: Dict[int, List[int]] = {}
    for op_id in op_ids:
        by_cluster.setdefault(result.placements[op_id].cluster, []).append(op_id)
    clusters = sorted(c for c, ops in by_cluster.items() if ops)
    if len(clusters) < 2:
        return None
    a, b = rng.choice(clusters, size=2, replace=False)
    op_a = int(rng.choice(by_cluster[int(a)]))
    op_b = int(rng.choice(by_cluster[int(b)]))
    placements = dict(result.placements)
    pa, pb = placements[op_a], placements[op_b]
    placements[op_a] = Placement(time=pa.time, cluster=pb.cluster)
    placements[op_b] = Placement(time=pb.time, cluster=pa.cluster)
    return (
        _with_placements(result, placements),
        f"v{op_a}(c{pa.cluster}) <-> v{op_b}(c{pb.cluster})",
    )


def mutate_move_cluster(rng: np.random.Generator, result: ScheduleResult):
    """Move one op to a different cluster (keeping its time)."""
    if not result.machine.is_clustered:
        return None
    op_ids = sorted(result.placements)
    if not op_ids:
        return None
    op_id = int(rng.choice(op_ids))
    old = result.placements[op_id]
    others = [
        c for c in range(result.machine.n_clusters) if c != old.cluster
    ]
    target = int(rng.choice(others))
    placements = dict(result.placements)
    placements[op_id] = Placement(time=old.time, cluster=target)
    return (
        _with_placements(result, placements),
        f"v{op_id}: c{old.cluster} -> c{target}",
    )


def mutate_tighten_edge(rng: np.random.Generator, result: ScheduleResult):
    """Pull one dependence edge's consumer exactly one cycle past its
    slack, violating that edge and (usually) nothing else.

    Random +-1/2 shifts almost never bind on high-slack ordering edges,
    so this targeted mutation is what keeps the checker's and the
    oracle's per-edge-kind coverage honest (it is how the fuzzer showed
    that the oracle's value comparison cannot see memory ordering edges).
    The edge is drawn among the placed explicit (memory, anti, output)
    edges when the schedule has one: flow edges far outnumber them, and
    a uniform draw would leave the oracle's ordering check almost idle.
    """
    from ..scheduling.timing import dependence_slack

    placed = [
        edge
        for edge in result.ddg.edges()
        if edge.src in result.placements and edge.dst in result.placements
    ]
    edges = [edge for edge in placed if edge.kind is not DepKind.FLOW] or placed
    if not edges:
        return None
    edge = edges[int(rng.integers(0, len(edges)))]
    slack = dependence_slack(
        result.ddg,
        edge,
        result.placements,
        result.ii,
        result.latencies,
        result.machine,
    )
    old = result.placements[edge.dst]
    new_time = old.time - (slack + 1)
    if new_time < 0:
        return None
    placements = dict(result.placements)
    placements[edge.dst] = Placement(time=new_time, cluster=old.cluster)
    return (
        _with_placements(result, placements),
        f"{edge!r}: t({edge.dst})={old.time} -> {new_time} (slack {slack})",
    )


def mutate_shrink_queue(rng: np.random.Generator, result: ScheduleResult):
    """Shrink the CQRF queue depth to just below what the schedule needs."""
    if not result.machine.is_clustered:
        return None
    try:
        allocation = allocate_queues(result)
    except ReproError:
        return None
    cross = [
        usage.max_depth
        for usage in allocation.files
        if isinstance(usage.file_id, CQRFId)
    ]
    if not cross:
        return None
    needed = max(cross)
    if needed < 2:
        return None
    old = result.machine.cqrf
    machine = dataclasses.replace(
        result.machine,
        cqrf=QueueFileSpec(
            n_queues=old.n_queues,
            queue_depth=needed - 1,
            write_ports=old.write_ports,
        ),
    )
    return (
        dataclasses.replace(result, machine=machine),
        f"cqrf depth {old.queue_depth} -> {needed - 1} (needed {needed})",
    )


#: Mutation registry: name -> mutator.
MUTATIONS: Dict[str, Mutator] = {
    "shift": mutate_shift,
    "swap_clusters": mutate_swap_clusters,
    "move_cluster": mutate_move_cluster,
    "tighten_edge": mutate_tighten_edge,
    "shrink_queue": mutate_shrink_queue,
}

#: Mutations covered by the placement clauses of the contract.
_PLACEMENT_MUTATIONS = frozenset(
    {"shift", "swap_clusters", "move_cluster", "tighten_edge"}
)


# ----------------------------------------------------------------------
# Verdicts and the agreement contract
# ----------------------------------------------------------------------


def evaluate(loop: Loop, unroll_factor: int, result: ScheduleResult) -> Verdicts:
    """Run the checker and the oracle over one schedule; an exception
    from the oracle counts as a rejection."""
    checker = check_schedule(result)
    compiled = CompiledLoop(
        loop=loop,
        machine=result.machine,
        unroll_factor=unroll_factor,
        result=result,
        allocation=None,
    )
    try:
        oracle = verify_compiled(compiled)
        oracle_ok, oracle_problems = oracle.ok, oracle.all_problems
    except ReproError as err:
        oracle_ok, oracle_problems = False, [f"oracle error: {err}"]

    return Verdicts(
        checker_ok=checker.ok,
        oracle_ok=oracle_ok,
        checker_problems=list(checker.problems),
        oracle_problems=list(oracle_problems),
    )


def contract_violations(mutation: Optional[str], verdicts: Verdicts) -> List[str]:
    """The agreement-contract clauses *verdicts* violate (empty = agree).

    ``mutation=None`` means the unmutated baseline schedule.
    """
    v = verdicts
    out: List[str] = []
    if mutation is None:
        if not v.checker_ok:
            out.append("baseline: checker rejects a fresh toolchain schedule")
        if not v.oracle_ok:
            out.append("baseline: oracle rejects a fresh toolchain schedule")
        return out
    if mutation in _PLACEMENT_MUTATIONS:
        if v.checker_ok and not v.oracle_ok:
            out.append("checker accepts but oracle rejects")
        if not v.checker_ok and v.oracle_ok:
            out.append("checker rejects but oracle accepts")
        return out
    if mutation == "shrink_queue":
        if not v.checker_ok:
            out.append("shrink_queue flipped the checker (no capacity rule)")
        if v.oracle_ok:
            out.append("oracle accepts a queue one value too shallow")
        return out
    raise ValueError(f"unknown mutation {mutation!r}")


# ----------------------------------------------------------------------
# Loop minimization
# ----------------------------------------------------------------------


def _dead_code_eliminate(ddg: DDG) -> None:
    """Remove non-store ops whose values are never referenced."""
    changed = True
    while changed:
        changed = False
        for op_id in list(ddg.op_ids):
            op = ddg.op(op_id)
            if op.opcode == OpCode.STORE:
                continue
            if ddg.flow_fanout(op_id) == 0:
                ddg.remove_operation(op_id)
                changed = True


def minimize_loop(
    loop: Loop,
    still_fails: Callable[[Loop], bool],
    max_attempts: int = 32,
) -> Loop:
    """Greedy 1-store-at-a-time shrink of *loop* preserving the failure.

    Drops one store (plus the dead cone behind it) per round as long as
    ``still_fails`` keeps returning True on the reduced loop.
    """
    current = loop
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        stores = [
            op.op_id
            for op in current.ddg.operations()
            if op.opcode == OpCode.STORE
        ]
        if len(stores) <= 1:
            break
        for store_id in stores:
            attempts += 1
            if attempts > max_attempts:
                break
            candidate_ddg = current.ddg.copy(f"{current.ddg.name}_min")
            candidate_ddg.remove_operation(store_id)
            _dead_code_eliminate(candidate_ddg)
            if not len(candidate_ddg):
                continue
            try:
                candidate_ddg.validate()
                candidate = dataclasses.replace(current, ddg=candidate_ddg)
                if still_fails(candidate):
                    current = candidate
                    progress = True
                    break
            except ReproError:
                continue
    return current


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------


def _compile(loop: Loop, machine: MachineSpec):
    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, validate=False)
    )
    return report.compiled


def _trial_failure_predicate(
    machine: MachineSpec,
    mutation: Optional[str],
    mutation_seed: int,
) -> Callable[[Loop], bool]:
    """Does the same (machine, mutation kind) still disagree on *loop*?"""

    def predicate(loop: Loop) -> bool:
        try:
            compiled = _compile(loop, machine)
        except ReproError:
            return False
        verdicts = evaluate(loop, compiled.unroll_factor, compiled.result)
        if mutation is None:
            return bool(contract_violations(None, verdicts))
        if contract_violations(None, verdicts):
            return False  # baseline must stay clean to isolate the mutant
        rng = np.random.default_rng(mutation_seed)
        mutated = MUTATIONS[mutation](rng, compiled.result)
        if mutated is None:
            return False
        mutant, _detail = mutated
        mutant_verdicts = evaluate(loop, compiled.unroll_factor, mutant)
        return bool(contract_violations(mutation, mutant_verdicts))

    return predicate


def run_fuzz(
    config: FuzzConfig = FuzzConfig(),
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one fuzzing campaign (deterministic in ``config.seed``)."""
    report = FuzzReport(config=config)
    started = _time.perf_counter()
    say = progress or (lambda _msg: None)
    mutation_names = sorted(MUTATIONS)

    for trial in range(config.trials):
        report.elapsed = _time.perf_counter() - started
        if (
            config.time_budget is not None
            and report.elapsed >= config.time_budget
        ):
            say(f"time budget reached after {trial} trial(s)")
            break
        rng = np.random.default_rng([config.seed, trial])
        loop = synthetic_loop(trial, seed=config.seed + 7919, spec=FUZZ_SPEC)
        n_clusters = int(rng.choice(config.cluster_counts))
        topology = str(rng.choice(config.topologies))
        machine = clustered_vliw(n_clusters, topology=topology)
        report.trials_run += 1

        try:
            compiled = _compile(loop, machine)
        except ReproError as err:
            # Scheduling can legitimately fail (II overflow on tiny
            # machines); that is not a validation disagreement.
            report.compile_failures += 1
            say(f"trial {trial}: compile failed ({err})")
            continue

        def record(mutation, detail, verdicts, violations, mutation_seed):
            disagreement = Disagreement(
                trial=trial,
                loop_name=loop.name,
                loop_origin=dict(loop.origin),
                machine=machine.name,
                topology=topology,
                n_clusters=n_clusters,
                mutation=mutation or "baseline",
                mutation_detail=detail,
                violations=violations,
                verdicts=verdicts,
            )
            if config.minimize:
                minimized = minimize_loop(
                    loop,
                    _trial_failure_predicate(machine, mutation, mutation_seed),
                )
                disagreement.minimized_ops = len(minimized.ddg)
                disagreement.minimized_listing = minimized.ddg.pretty()
            report.disagreements.append(disagreement)
            say(
                f"trial {trial}: DISAGREEMENT ({disagreement.mutation}: "
                + "; ".join(violations)
                + ")"
            )

        baseline = evaluate(loop, compiled.unroll_factor, compiled.result)
        violations = contract_violations(None, baseline)
        if violations:
            record(None, "", baseline, violations, 0)
            continue

        for index in range(config.mutants_per_trial):
            mutation = mutation_names[index % len(mutation_names)]
            mutation_seed = config.seed * 1_000_003 + trial * 101 + index
            mutant_rng = np.random.default_rng(mutation_seed)
            produced = MUTATIONS[mutation](mutant_rng, compiled.result)
            if produced is None:
                continue
            mutant, detail = produced
            report.mutants_run += 1
            verdicts = evaluate(loop, compiled.unroll_factor, mutant)
            violations = contract_violations(mutation, verdicts)
            if violations:
                record(mutation, detail, verdicts, violations, mutation_seed)
        if trial and trial % 10 == 0:
            say(
                f"{trial + 1} trial(s), {report.mutants_run} mutant(s), "
                f"{len(report.disagreements)} disagreement(s)"
            )

    report.elapsed = _time.perf_counter() - started
    return report
