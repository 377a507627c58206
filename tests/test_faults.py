"""Unit tests for the deterministic fault-injection plane."""

import pytest

from repro import faults
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultRule, SimulatedWorkerCrash


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def test_spec_roundtrip():
    spec = "worker-crash:times=2+5;slow-compile:rate=0.25:delay=0.05"
    plan = FaultPlan.from_spec(spec, seed=7)
    assert plan.rules["worker-crash"].times == (2, 5)
    assert plan.rules["slow-compile"].rate == 0.25
    assert plan.rules["slow-compile"].delay == 0.05
    # The canonical spec survives a parse -> print -> parse cycle.
    assert FaultPlan.from_spec(plan.spec, seed=7).spec == plan.spec


def test_spec_ignores_blank_clauses():
    plan = FaultPlan.from_spec(" ;conn-reset:times=1; ")
    assert set(plan.rules) == {"conn-reset"}


@pytest.mark.parametrize(
    "spec",
    [
        "warp-core-breach:times=1",  # unknown point
        "worker-crash:whenever=now",  # unknown option key
        "worker-crash:times=soon",  # unparsable value
        "worker-crash:rate=1.5",  # rate out of range
        "worker-crash:times=0",  # occurrence indices are 1-based
        "worker-crash:times=1;worker-crash:times=2",  # duplicate point
    ],
)
def test_bad_specs_are_rejected(spec):
    with pytest.raises(FaultError):
        FaultPlan.from_spec(spec)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


def test_times_fires_on_exact_occurrences():
    plan = FaultPlan((FaultRule(point="conn-reset", times=(2, 4)),))
    fired = [plan.should_fire("conn-reset") for _ in range(6)]
    assert fired == [False, True, False, True, False, False]


def test_every_fires_periodically_and_limit_caps_it():
    plan = FaultPlan(
        (FaultRule(point="slow-compile", every=2, limit=2),)
    )
    fired = [plan.should_fire("slow-compile") for _ in range(8)]
    assert fired == [False, True, False, True, False, False, False, False]


def test_rate_is_deterministic_per_seed():
    def sequence(seed):
        plan = FaultPlan(
            (FaultRule(point="corrupt-cache-entry", rate=0.5),), seed=seed
        )
        return [plan.should_fire("corrupt-cache-entry") for _ in range(64)]

    assert sequence(1) == sequence(1)
    assert any(sequence(1)) and not all(sequence(1))
    # Different seeds draw from different streams (64 coin flips
    # colliding across seeds would be a 2^-64 accident).
    assert sequence(1) != sequence(2)


def test_unarmed_points_count_occurrences_but_never_fire():
    plan = FaultPlan((FaultRule(point="conn-reset", times=(1,)),))
    assert plan.should_fire("worker-crash") is False
    counters = plan.counters()
    assert counters["occurrences"] == {"worker-crash": 1}
    assert counters["fired"] == {}
    assert counters["armed"] == ["conn-reset"]


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------


def test_fire_is_a_noop_when_disarmed():
    assert faults.fire("worker-crash") is False
    faults.crashpoint()  # must not raise
    assert faults.torn_write_size(100) is None


def test_install_from_spec_matches_install():
    faults.install_from_spec("worker-crash:times=2", seed=3)
    plan = faults.active()
    assert plan is not None and plan.seed == 3
    assert plan.should_fire("worker-crash") is False
    assert plan.should_fire("worker-crash") is True


# ----------------------------------------------------------------------
# Fault points
# ----------------------------------------------------------------------


def test_crashpoint_simulates_in_parent_process():
    # In the test process (no multiprocessing parent) the crashpoint
    # must raise — never os._exit — and the exception must be a
    # BrokenExecutor so supervision code treats it like a dead pool.
    faults.install(FaultPlan((FaultRule(point="worker-crash", times=(1,)),)))
    with pytest.raises(SimulatedWorkerCrash):
        faults.crashpoint()
    faults.crashpoint()  # occurrence 2: quiet


def test_torn_write_size_halves_the_line():
    faults.install(
        FaultPlan((FaultRule(point="journal-torn-write", times=(1, 2)),))
    )
    assert faults.torn_write_size(100) == 50
    assert faults.torn_write_size(1) == 1  # never a zero-byte write
    assert faults.torn_write_size(100) is None


def test_damage_cache_entry_garbles_the_file(tmp_path):
    target = tmp_path / "entry.pkl"
    target.write_bytes(b"A" * 64)
    faults.install(
        FaultPlan((FaultRule(point="corrupt-cache-entry", times=(1,)),))
    )
    faults.damage_cache_entry(target)
    assert target.read_bytes() != b"A" * 64
    assert b"fault-injection" in target.read_bytes()
    # Missing files are tolerated: the read path will miss regardless.
    faults.install(
        FaultPlan((FaultRule(point="corrupt-cache-entry", times=(1,)),))
    )
    faults.damage_cache_entry(tmp_path / "absent.pkl")


def test_counters_report_spec_and_seed():
    faults.install_from_spec("slow-compile:delay=0.01:every=1", seed=4)
    plan = faults.active()
    assert plan is not None
    plan.should_fire("slow-compile")
    counters = plan.counters()
    assert counters["seed"] == 4
    assert counters["spec"] == "slow-compile:every=1:delay=0.01"
    assert counters["fired"] == {"slow-compile": 1}
