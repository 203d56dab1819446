"""Tests for the sampled profiler and its simulator hook."""

import functools

import pytest

from repro.obs.profile import Profiler, callback_key, install, profiled
from repro.sim.engine import Simulator, installed_profiler


def tick():
    pass


class TestSampling:
    def test_times_one_in_n(self):
        profiler = Profiler(sample_every=4)
        for _ in range(16):
            profiler.run_sampled(tick)
        assert profiler.calls == 16
        assert profiler.sampled_calls == 4

    def test_estimates_scale_by_sampling_factor(self):
        clock_values = iter(range(1000))
        profiler = Profiler(sample_every=10, clock=lambda: next(clock_values))
        for _ in range(100):
            profiler.run_sampled(tick)
        (row,) = profiler.hot_report()
        assert row["sampled"] == 10
        assert row["est_calls"] == 100
        # Each sampled call took 1 fake-clock unit -> 10 observed, x10 scaled.
        assert row["est_seconds"] == pytest.approx(100)

    def test_sample_every_one_is_exact(self):
        profiler = Profiler(sample_every=1)
        for _ in range(7):
            profiler.run_sampled(tick)
        assert profiler.sampled_calls == 7

    def test_exceptions_still_timed(self):
        profiler = Profiler(sample_every=1)

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            profiler.run_sampled(boom)
        assert profiler.sampled_calls == 1

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Profiler(sample_every=0)

    def test_record_manual_key(self):
        profiler = Profiler()
        profiler.record("operator.join", 0.25)
        profiler.record("operator.join", 0.75)
        (row,) = profiler.hot_report()
        assert row["key"] == "operator.join"
        assert row["sampled"] == 2


class TestCallbackKey:
    def test_function_key_uses_short_module_and_qualname(self):
        assert callback_key(tick) == "test_obs_profile.tick"

    def test_partial_unwrapped(self):
        assert callback_key(functools.partial(tick)) == "test_obs_profile.tick"

    def test_method_key_includes_class(self):
        profiler = Profiler()
        assert "Profiler.run_sampled" in callback_key(profiler.run_sampled)

    def test_lambda_key_is_stable(self):
        key = callback_key(lambda: None)
        assert "<lambda>" in key


class TestReport:
    def test_hot_report_sorted_by_estimated_time(self):
        profiler = Profiler(sample_every=1)
        profiler.record("cold", 0.1)
        profiler.record("hot", 5.0)
        rows = profiler.hot_report(top_k=2)
        assert [row["key"] for row in rows] == ["hot", "cold"]

    def test_top_k_truncates(self):
        profiler = Profiler(sample_every=1)
        for index in range(20):
            profiler.record(f"key{index:02d}", float(index))
        assert len(profiler.hot_report(top_k=5)) == 5

    def test_format_report_renders_table(self):
        profiler = Profiler(sample_every=1)
        profiler.record("sim._pump", 0.5)
        text = profiler.format_report()
        assert "callback" in text and "sim._pump" in text

    def test_format_report_empty(self):
        assert "no callbacks" in Profiler().format_report()


class TestSimulatorHook:
    def test_install_routes_simulator_events(self):
        profiler = Profiler(sample_every=1)
        with profiled(profiler):
            sim = Simulator()
            for step in range(5):
                sim.schedule(float(step), tick)
            sim.run()
        assert profiler.calls == 5
        assert any("tick" in key for key in profiler.stats)

    def test_uninstall_restores_bare_dispatch(self):
        with profiled(Profiler()):
            assert installed_profiler() is not None
        assert installed_profiler() is None
        sim = Simulator()
        assert sim.profiler is None

    def test_profiled_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with profiled(Profiler()):
                raise RuntimeError("boom")
        assert installed_profiler() is None

    def test_install_none_clears(self):
        install(Profiler())
        install(None)
        assert installed_profiler() is None

    def test_results_identical_with_profiler(self):
        def run(with_profiler):
            order = []
            sim = Simulator()
            for step in (3.0, 1.0, 2.0):
                sim.schedule(step, lambda step=step: order.append(step))
            if with_profiler:
                with profiled(Profiler(sample_every=2)):
                    sim2 = Simulator()
                    for step in (3.0, 1.0, 2.0):
                        sim2.schedule(step, lambda step=step: order.append(step))
                    order.clear()
                    sim2.run()
                    return order
            sim.run()
            return order

        assert run(True) == run(False) == [1.0, 2.0, 3.0]
