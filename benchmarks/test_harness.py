"""Tests of the benchmark harness itself (not of lotbench).

    python3 -m pytest benchmarks
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import gen
import spans
import tasks
from lotbench import CommonLottery, caps_from_lottery, expand_common_lottery, simulate_finite
from lotbench import optimal_lottery_fill, uniform_instance


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9),
])
def test_reportable_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.reportable_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    assert spans.percentile([5, 1, 3, 2, 4], 50) == 3
    assert spans.percentile(range(101), 90) == 90
    assert spans.percentile([0, 10], 25) == 2.5


def test_local_medians_follow_a_level_shift_and_ignore_a_spike():
    probes = [1.0] * 6 + [9.0] + [1.0] * 3 + [2.0] * 10
    speed = spans.local_medians(probes, 2)
    assert speed[6] == 1.0
    assert speed[:4] == [1.0] * 4 and speed[-3:] == [2.0] * 3


def _scripted_tracer(times):
    clock = iter(times)
    return spans.Tracer(clock=lambda: next(clock))


def test_self_time_subtracts_nested_children():
    # task [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    tr = _scripted_tracer([0, 1, 4, 5, 6, 8, 9, 10])
    with tr.task(7, "demo"):
        tr.call("lpsolve.a", lambda: None)
        tr.call("transform.b", lambda: tr.call("mechanism.c", lambda: None))
    names = [s.name for s in tr.spans]
    assert names == ["task.demo", "lpsolve.a", "transform.b", "mechanism.c"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0, 2]
    assert all(s.task == 7 for s in tr.spans)
    assert spans.self_times(tr.spans) == [3, 3, 2, 2]
    layers = spans.layer_metrics(tr.spans)
    assert layers["transform.self_s"] == 2 and layers["transform.calls"] == 1
    assert layers["lpsolve.share"] == pytest.approx(0.3)
    assert layers["cli.calls"] == 0 and layers["cli.share"] == 0


def test_self_time_counts_overlapping_children_once():
    sp = [
        spans.Span("task.x", None, 0.0, 10.0, 0, -1),
        spans.Span("crp.a", None, 1.0, 5.0, 0, 0),
        spans.Span("crp.b", None, 3.0, 7.0, 0, 0),
        spans.Span("crp.c", None, 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(sp)[0] == 10 - 6 - 1


def test_null_tracer_records_nothing():
    tr = spans.NullTracer()
    with tr.task(0, "x"):
        assert tr.call("lpsolve.f", lambda a, b: a + b, 2, 3) == 5


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_input_digest_follows_the_seed(workload):
    first = gen.input_digest(gen.make_pool(workload, 11))
    assert gen.input_digest(gen.make_pool(workload, 11)) == first
    assert gen.input_digest(gen.make_pool(workload, 12)) != first


def test_golden_tasks_do_not_depend_on_a_seed():
    for workload in gen.WORKLOADS:
        a, b = gen.golden_tasks(workload), gen.golden_tasks(workload)
        assert gen.input_digest(a) == gen.input_digest(b)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_spread_keeps_every_prefix_close_to_the_cycle_mix(workload):
    cycle = gen.spread(gen.CYCLES[workload])
    assert sorted(cycle) == sorted(gen.CYCLES[workload])
    total = Counter(cycle)
    for p in range(1, len(cycle) + 1):
        prefix = Counter(cycle[:p])
        for slot, count in total.items():
            assert abs(prefix[slot] - p * count / len(cycle)) < 1


def test_monte_carlo_check_passes_a_true_run_and_flags_a_biased_one():
    inst = uniform_instance(4)
    lottery = optimal_lottery_fill(inst).lottery
    expected = expand_common_lottery(inst, lottery)
    sim = simulate_finite(inst, caps_from_lottery(inst, lottery), 4000, 4, seed=3)
    tasks.check_simulation(sim, expected)

    skewed = expand_common_lottery(inst, CommonLottery(c=(Fraction(0), Fraction(1, 2),
                                                          Fraction(1, 4), Fraction(1, 4))))
    with pytest.raises(tasks.CheckFailed, match="Monte Carlo"):
        tasks.check_simulation(sim, skewed)

    over = np.array(sim.counts)
    over[3][0] += sim.quotas[3] * sim.replications
    with pytest.raises(tasks.CheckFailed, match="quota"):
        tasks.check_simulation(dataclasses.replace(sim, counts=over), expected)
