"""Seeded generators: deterministic per seed, different across seeds."""

from perfbench import gen

N_LOOPS = 1258
OPS = [(i * 37) % 101 + 1 for i in range(N_LOOPS)]


def test_fig4_jobs_deterministic_and_seeded():
    panel = gen.fig4_panel([i % 50 for i in range(N_LOOPS)], 12)
    assert gen.fig4_jobs(1, panel) == gen.fig4_jobs(1, panel)
    assert gen.fig4_jobs(1, panel) != gen.fig4_jobs(2, panel)
    # The seed orders the jobs; every (loop, k, twin) is compiled once.
    assert sorted(gen.fig4_jobs(1, panel)) == sorted(gen.fig4_jobs(2, panel))
    assert len(gen.fig4_jobs(1, panel)) == 20 * len(panel)


def test_fig4_panel_spans_the_sizes():
    op_counts = [(i * 37) % 101 + 1 for i in range(N_LOOPS)]
    panel = gen.fig4_panel(op_counts, 12)
    assert len(panel) == round(12 * gen.FIG4_LOOPS_PER_SECOND)
    assert len(set(panel)) == len(panel)
    sizes = sorted(op_counts[i] for i in panel)
    assert sizes[0] <= 5 and sizes[-1] >= 95


def test_verify_jobs_cover_the_matrix_each_pass():
    jobs = gen.verify_jobs(3, 28, 12)
    per_pass = 28 * len(gen.VERIFY_TOPOLOGIES) * len(gen.VERIFY_CLUSTERS)
    assert len(jobs) % per_pass == 0
    for start in range(0, len(jobs), per_pass):
        assert len(set(jobs[start:start + per_pass])) == per_pass
    assert jobs == gen.verify_jobs(3, 28, 12)
    assert jobs != gen.verify_jobs(4, 28, 12)


def test_serve_plan_deterministic_and_seeded():
    a = gen.serve_plan(1, 12, OPS, 256)
    assert a == gen.serve_plan(1, 12, OPS, 256)
    b = gen.serve_plan(2, 12, OPS, 256)
    assert (a.stream, a.requests) != (b.stream, b.requests)


def test_serve_plan_expected_kinds_follow_the_lru():
    plan = gen.serve_plan(5, 12, OPS, 256)
    assert len(set(plan.requests)) == len(plan.requests)
    seen = []  # distinct ids by recency, most recent last
    for key, kind in zip(plan.stream, plan.expected):
        if kind == "miss":
            assert key not in seen
        else:
            # Warm-up entry occupies one LRU slot during the whole stream.
            recency = len(seen) - seen.index(key)
            assert (recency <= plan.capacity - 1) == (kind == "memory_hit")
            seen.remove(key)
        seen.append(key)
    mix = plan.mix()
    assert mix["disk_hit"] > 0 and mix["memory_hit"] > 0
    assert len(plan.requests) > plan.capacity


def test_dist_plan_distinct_and_seeded():
    jobs = gen.dist_plan(1, 12, OPS)
    assert len(set(jobs)) == len(jobs) == round(12 * gen.DIST_JOBS_PER_SECOND)
    assert jobs == gen.dist_plan(1, 12, OPS)
    assert jobs != gen.dist_plan(2, 12, OPS)
    assert {k for _, k in jobs} <= set(gen.SERVICE_CLUSTERS)


def test_serve_plan_shares_are_exact_and_seed_independent():
    mixes = {tuple(sorted(gen.serve_plan(seed, 12, OPS, 256).mix().items())) for seed in (1, 2, 3)}
    assert len(mixes) == 1
    mix = dict(mixes.pop())
    n = round(12 * gen.SERVE_OPS_PER_SECOND)
    assert mix == {name: round(share * n) for name, share in gen.SERVE_SHARES}


def test_service_requests_fixed_set_in_seeded_order():
    assert sorted(gen.dist_plan(1, 12, OPS)) == sorted(gen.dist_plan(2, 12, OPS))
    a, b = gen.serve_plan(1, 12, OPS, 256), gen.serve_plan(2, 12, OPS, 256)
    assert sorted(a.requests) == sorted(b.requests)


def test_dist_order_is_size_balanced():
    jobs = gen.dist_plan(3, 12, OPS)
    block = gen.DIST_SIZE_GROUPS
    bands = sorted(jobs, key=lambda job: (OPS[job[0]], job))
    band_of = {job: i * block // len(bands) for i, job in enumerate(bands)}
    # Each full round of the order takes one job from every size band.
    for start in range(0, len(jobs) - block + 1, block):
        assert sorted(band_of[job] for job in jobs[start:start + block]) == list(range(block))


def test_dist_first_half_is_seed_independent():
    plans = [gen.dist_plan(seed, 12, OPS) for seed in (1, 2, 3)]
    half = len(plans[0]) // 2
    assert len({frozenset(plan[:half]) for plan in plans}) == 1
    assert len({tuple(plan[:half]) for plan in plans}) == 3
