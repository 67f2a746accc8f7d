"""Integration tests: the paper's headline quantitative claims, end to end.

Each test exercises several packages together (hardware -> executors ->
model -> analysis) and pins one sentence from the paper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import cross_validate
from repro.experiments import fig9
from repro.hardware import PUBLISHED_TABLE2, US
from repro.model import (
    ModelParameters,
    asymptotic_speedup,
    peak_speedup,
)
from repro.rtr import compare
from repro.workloads import CallTrace, HardwareTask, task_for_data_size


class TestSection5Claims:
    def test_estimated_best_case_2x_for_data_intensive(self):
        """'In the best configuration scenario ... PRTR performance is
        bounded to twice the performance of FRTR' — tasks longer than the
        36 ms estimated full configuration."""
        p = fig9.panel("estimated")
        x = np.logspace(0.001, 2, 100)  # X_task > 1
        s = asymptotic_speedup(ModelParameters(
            x_task=x, x_prtr=p.x_prtr, hit_ratio=0.0, x_control=p.x_control
        ))
        assert np.all(s < 2.0)

    def test_estimated_7x_cap_for_light_tasks(self):
        """'For less data-intensive tasks, the PRTR can not exceed 7
        times the performance of FRTR.'"""
        p = fig9.panel("estimated")
        cap = float(peak_speedup(ModelParameters(
            x_task=1.0, x_prtr=p.x_prtr, hit_ratio=0.0,
            x_control=p.x_control,
        )))
        assert 6.0 < cap < 7.0

    def test_measured_87x_peak(self):
        """'The peak performance ... can reach up to 87x higher than the
        performance of FRTR.'"""
        p = fig9.panel("measured")
        cap = float(peak_speedup(ModelParameters(
            x_task=1.0, x_prtr=p.x_prtr, hit_ratio=0.0,
            x_control=p.x_control,
        )))
        assert 80.0 < cap < 90.0

    def test_realistic_full_config_dominates_tasks(self):
        """'In a realistic situation on Cray XD1 the full configuration
        time is much larger than the requirements for the majority of
        tasks including those that are data-intensive' — a full-SRAM
        (16 MB) image task is ~16x shorter than T_FRTR measured."""
        task = task_for_data_size("median", 16 * 1024**2)
        assert task.time < PUBLISHED_TABLE2["full"].measured_time_s / 10

    def test_reconfiguration_fraction_range(self):
        """Intro claim: applications spend 25-98.5% of execution time in
        reconfiguration under FRTR — our FRTR runs land inside it."""
        for task_time, lo, hi in (
            (5.0, 0.2, 0.5),      # long tasks: ~25%
            (0.025, 0.95, 1.0),   # short tasks: >95%
        ):
            lib = {"m": HardwareTask("m", task_time)}
            trace = CallTrace([lib["m"]] * 10, name="frac")
            from repro.rtr import FrtrExecutor, make_node

            result = FrtrExecutor(make_node(), control_time=0.0).run(trace)
            frac = result.config_overhead() / result.total_time
            assert lo < frac < hi


class TestEndToEndAgreement:
    def test_sim_model_agreement_both_panels(self):
        """'The results are in good agreement with what is predicted by
        the model' — max relative deviation below the O(1/n) bound."""
        from repro.model import speedup

        n = 90
        for which in ("estimated", "measured"):
            p = fig9.panel(which)
            x, s_sim = fig9.simulate_points(
                p, x_task_points=np.logspace(-2, 0.5, 4), n_calls=n
            )
            s_model = speedup(
                ModelParameters(
                    x_task=x, x_prtr=p.x_prtr, hit_ratio=0.0,
                    x_control=p.x_control,
                ),
                n,
            )
            np.testing.assert_allclose(s_sim, s_model, rtol=2.0 / n)

    def test_calibration_out_of_sample(self):
        assert all(c.rel_error < 1e-3 for c in cross_validate())

    def test_compare_at_peak_beats_70x(self):
        """A full pipeline run at the measured peak: >70x observed."""
        dual = PUBLISHED_TABLE2["dual_prr"]
        lib = {
            n: HardwareTask(n, dual.measured_time_s)
            for n in ("median", "sobel", "smoothing")
        }
        trace = CallTrace(
            [lib[n] for n in ("median", "sobel", "smoothing") * 200],
            name="peak",
        )
        result = compare(
            trace, force_miss=True,
            bitstream_bytes=dual.bitstream_bytes, control_time=10 * US,
        )
        assert result.speedup > 70.0


class TestDevelopmentCostClaim:
    def test_bitstream_count_scaling(self):
        """Section 5: 'All permutations among the tasks across all PRRs
        must be implemented' — module-based n vs difference-based n(n-1)
        per PRR."""
        from repro.hardware import (
            Region,
            XC2VP50,
            difference_based_bitstreams,
            module_based_bitstreams,
        )

        region = Region("prr0", 46, 58, reconfigurable=True)
        mods = [f"m{i}" for i in range(5)]
        module_count = len(module_based_bitstreams(XC2VP50, region, mods))
        sims = {
            (a, b): 0.5 for a in mods for b in mods if a != b
        }
        diff_count = len(
            difference_based_bitstreams(XC2VP50, region, sims)
        )
        assert module_count == 5
        assert diff_count == 20
