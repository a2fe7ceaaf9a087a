"""FIR pearl vs the direct-form reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.ips.fir import FIRPearl, fir_reference, fir_schedule
from repro.lis.simulator import Simulation
from repro.lis.stream import burst_gaps
from repro.lis.system import System


def _run(samples, coeffs, shell_cls=SPWrapper, gaps=None, cycles=None):
    pearl = FIRPearl("fir", coeffs)
    shell = shell_cls(pearl)
    system = System("fir_sys")
    system.add_patient(shell)
    system.connect_source("src", samples, shell, "x_in", gaps=gaps)
    sink = system.connect_sink(shell, "y_out", "snk")
    Simulation(system).run(
        cycles or (len(samples) * (len(coeffs) + 3) + 50)
    )
    return sink.received


class TestSchedule:
    def test_shape(self):
        schedule = fir_schedule(5)
        stats = schedule.stats()
        assert (stats.ports, stats.waits, stats.run) == (2, 2, 5)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            fir_schedule(0)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FIRPearl("f", [])


class TestFiltering:
    def test_impulse_response_is_coefficients(self):
        coeffs = (3, 1, 4, 1, 5)
        outputs = _run([1, 0, 0, 0, 0, 0], coeffs)
        assert outputs[: len(coeffs)] == list(coeffs)

    def test_matches_reference(self):
        coeffs = (1, -2, 3)
        samples = [5, 1, -3, 7, 2, 0, 4]
        assert _run(samples, coeffs) == fir_reference(samples, coeffs)

    def test_step_response_saturates_to_sum(self):
        coeffs = (1, 2, 3)
        outputs = _run([1] * 10, coeffs)
        assert outputs[-1] == sum(coeffs)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=20),
        st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_reference_property(self, samples, coeffs):
        assert _run(samples, coeffs) == fir_reference(samples, coeffs)

    def test_jittery_input_same_result(self):
        coeffs = (2, 4, 6)
        samples = list(range(12))
        smooth = _run(samples, coeffs)
        jittery = _run(
            samples, coeffs, gaps=burst_gaps(1, 3), cycles=500
        )
        assert smooth == jittery

    def test_fsm_wrapper_same_result(self):
        coeffs = (1, 2, 1)
        samples = [4, 5, 6, 7]
        assert _run(samples, coeffs, SPWrapper) == _run(
            samples, coeffs, FSMWrapper
        )
