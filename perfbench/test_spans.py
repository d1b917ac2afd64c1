"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import types

from spans import Tracer, install, self_times, summarize
from workloads import MASS, amplitude, check_trajectory


def test_self_time_subtracts_direct_children():
    # parent [0, 10] with children [1, 3] and [4, 6]
    assert self_times([0, 1, 4], [10, 3, 6], [-1, 0, 0]) == [6, 2, 2]


def test_self_time_counts_overlapping_children_once():
    assert self_times([0, 1, 3], [10, 5, 7], [-1, 0, 0])[0] == 4


def test_self_time_clips_children_to_parent():
    assert self_times([0, 8], [10, 12], [-1, 0])[0] == 8


def test_grandchildren_count_only_against_their_parent():
    assert self_times([0, 1, 2], [10, 9, 8], [-1, 0, 1]) == [2, 2, 6]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_tracer_records_nested_spans_and_counters():
    clock = FakeClock()
    tracer = Tracer(clock)

    def kernel():
        clock.advance(1.0)

    def step():
        clock.advance(2.0)
        k()
        k()
        tick()

    k = tracer.span("kernel", kernel)
    tick = tracer.counter("ticks", lambda: None)
    s = tracer.span("step", step)
    s()
    k()
    assert tracer.parents == [-1, 0, 0, -1]
    rows = summarize(tracer, within="step")
    assert rows["step"] == {"calls": 1, "calls_within": 0, "self_s": 2.0,
                            "total_s": 4.0}
    assert rows["kernel"]["calls"] == 3
    assert rows["kernel"]["calls_within"] == 2
    assert rows["kernel"]["self_s"] == 3.0
    assert tracer.count("ticks", under="step") == 1
    assert tracer.count("ticks", under="kernel") == 0


def test_missing_target_is_reported_not_fatal():
    module = types.SimpleNamespace(present=lambda: 7)
    tracer = Tracer()
    install(tracer, [
        ("m.present", module, "present", lambda fn: tracer.span("p", fn)),
        ("m.gone", module, "gone", lambda fn: tracer.span("g", fn)),
        ("absent.fn", None, "fn", lambda fn: tracer.span("a", fn)),
    ])
    assert tracer.missing == ["m.gone", "absent.fn"]
    assert module.present() == 7
    assert tracer.names == ["p"]


def test_amplitude_is_seeded_and_within_range():
    assert amplitude(0.4, 3) == amplitude(0.4, 3)
    vals = [amplitude(0.4, s) for s in range(200)]
    assert min(vals) >= 0.36 and max(vals) <= 0.44
    assert len(set(vals)) == 200


def _rows(energies):
    return [{"t": 1e-3 * k, "mass": MASS, "energy_total": e,
             "entropy_production_min": 0.0, "director_sup": 1.0,
             "res_identity": 0.0} for k, e in enumerate(energies)]


def test_trajectory_check_accepts_a_dissipating_run():
    assert check_trajectory("x", _rows([3.0, 2.9, 2.9]), 2e-3, 1e-3) == []


def test_trajectory_check_flags_each_broken_property():
    rows = _rows([3.0, 3.1])
    rows[1].update(mass=MASS * (1 + 1e-9), entropy_production_min=-1e-6,
                   director_sup=1.1, res_identity=1e-6)
    bad = check_trajectory("x", rows, 2e-3, 1e-3)
    for word in ("steps", "final t", "mass", "energy", "entropy", "sup",
                 "res_identity"):
        assert any(word in b for b in bad), word
