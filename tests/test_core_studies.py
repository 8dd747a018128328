"""Integration tests for the Section 3/4 study drivers and experiments."""

import pytest

from repro.core.experiments import get_experiment, list_experiments
from repro.core.logic_on_logic import (
    run_logic_study,
    run_performance_study as run_logic_perf,
    thermal_map_3d_power,
)
from repro.core.memory_on_logic import (
    MEMORY_CONFIG_NAMES,
    build_memory_configs,
    run_performance_study,
    run_thermal_study,
    stack_for_config,
)
from repro.thermal.solver import SolverConfig

FAST = SolverConfig(nx=24, ny=24)


class TestMemoryConfigs:
    def test_four_configurations(self):
        configs = build_memory_configs()
        assert [c.name for c in configs] == list(MEMORY_CONFIG_NAMES)

    def test_figure7_powers(self):
        # (a) 92 W; (b) 106 W; (c) 88+3.1; (d) 92+6.2.
        power = {c.name: c.total_power_w for c in build_memory_configs()}
        assert power["2D 4MB"] == pytest.approx(92.0)
        assert power["3D 12MB"] == pytest.approx(106.0)
        assert power["3D 64MB"] == pytest.approx(98.2)
        assert power["3D 32MB"] < power["3D 12MB"]  # "slightly lower power"

    def test_stack_objects(self):
        configs = {c.name: c for c in build_memory_configs()}
        assert stack_for_config(configs["2D 4MB"]) is None
        stack = stack_for_config(configs["3D 32MB"])
        assert stack is not None
        assert stack.die_near_bumps.kind == "dram"
        assert stack.hot_die_near_sink()
        assert stack.validate() == []

    def test_dram_configs_have_no_l2(self):
        configs = {c.name: c for c in build_memory_configs()}
        assert configs["3D 32MB"].hierarchy.l2 is None
        assert configs["3D 64MB"].hierarchy.l2 is None
        assert configs["2D 4MB"].hierarchy.l2 is not None


class TestMemoryStudy:
    @pytest.fixture(scope="class")
    def quick_result(self):
        # Two contrasting workloads at reduced length: gauss (capacity
        # winner) and ssym (fits the baseline).
        return run_performance_study(
            workloads=["gauss", "ssym"], scale=16, length_factor=0.5
        )

    def test_result_shape(self, quick_result):
        assert set(quick_result.cpma) == {"gauss", "ssym"}
        for row in quick_result.cpma.values():
            assert set(row) == set(MEMORY_CONFIG_NAMES)

    def test_gauss_wins_big_at_32mb(self, quick_result):
        gauss = quick_result.cpma["gauss"]
        assert gauss["3D 32MB"] < 0.6 * gauss["2D 4MB"]

    def test_ssym_does_not_need_capacity(self, quick_result):
        # Fits at 4 MB: no *improvement* from the bigger caches.
        ssym = quick_result.cpma["ssym"]
        assert ssym["3D 12MB"] <= ssym["2D 4MB"] * 1.05

    def test_bandwidth_falls_with_capacity(self, quick_result):
        gauss = quick_result.bandwidth["gauss"]
        assert gauss["3D 32MB"] < gauss["2D 4MB"]

    def test_bus_power_tracks_bandwidth(self, quick_result):
        gauss_bw = quick_result.bandwidth["gauss"]
        gauss_pw = quick_result.bus_power["gauss"]
        # 20 mW/Gb/s: power = BW(GB/s) * 8 * 0.02.
        for name in MEMORY_CONFIG_NAMES:
            assert gauss_pw[name] == pytest.approx(
                gauss_bw[name] * 8 * 0.020, rel=1e-6
            )

    def test_aggregates(self, quick_result):
        avg_base = quick_result.average_cpma("2D 4MB")
        avg_32 = quick_result.average_cpma("3D 32MB")
        assert avg_32 < avg_base
        assert 0.0 < quick_result.max_cpma_reduction("3D 32MB") <= 1.0


class TestMemoryThermals:
    @pytest.fixture(scope="class")
    def temps(self):
        return run_thermal_study(FAST)

    def test_all_configs_solved(self, temps):
        assert set(temps) == set(MEMORY_CONFIG_NAMES)

    def test_figure8_ordering(self, temps):
        # SRAM stack hottest; DRAM stacks near baseline (Figure 8a).
        assert temps["3D 12MB"] == max(temps.values())
        assert abs(temps["3D 32MB"] - temps["2D 4MB"]) < 3.0
        assert temps["3D 64MB"] < temps["3D 12MB"]

    def test_stacking_not_a_thermal_barrier(self, temps):
        # The headline claim: stacking memory has negligible thermal cost.
        for name in ("3D 32MB", "3D 64MB"):
            assert temps[name] - temps["2D 4MB"] < 3.0


class TestLogicStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_logic_study(solver=FAST)

    def test_performance_headlines(self, result):
        assert result.total_gain_pct == pytest.approx(15.0, abs=1.0)
        assert result.stages_eliminated_pct == pytest.approx(25.0, abs=3.0)
        assert result.power_reduction_pct == pytest.approx(15.0, abs=1.0)

    def test_per_row_gains_complete(self, result):
        assert len(result.per_row_gains) == 10
        assert max(result.per_row_gains, key=result.per_row_gains.get) == (
            "fp_wire"
        )

    def test_figure11_ordering(self, result):
        assert (
            result.peak_temp_2d
            < result.peak_temp_3d
            < result.peak_temp_worstcase
        )

    def test_density_ratios(self, result):
        assert 1.1 <= result.density_ratio_3d <= 1.6
        assert result.density_ratio_worstcase == pytest.approx(2.0, abs=0.1)

    def test_table5_rows_present(self, result):
        names = [p.name for p in result.table5]
        assert names == [
            "Baseline", "Same Pwr", "Same Freq.", "Same Temp", "Same Perf."
        ]
        for point in result.table5:
            assert point.temp_c is not None

    def test_table5_temperature_ordering(self, result):
        rows = {p.name: p for p in result.table5}
        assert rows["Same Pwr"].temp_c > rows["Same Freq."].temp_c
        assert rows["Same Perf."].temp_c < rows["Same Temp"].temp_c

    def test_thermal_map_is_linear(self):
        thermal = thermal_map_3d_power(FAST)
        ambient_rise_100 = thermal(100.0) - 40.0
        ambient_rise_50 = thermal(50.0) - 40.0
        assert ambient_rise_100 == pytest.approx(2 * ambient_rise_50)

    def test_perf_only_study_skips_thermals(self):
        result = run_logic_study(with_thermals=False)
        assert result.peak_temp_2d == 0.0
        assert result.table5 == []

    def test_solved_same_temp_point(self):
        result = run_logic_study(solver=FAST, solve_temp_point=True)
        rows = {p.name: p for p in result.table5}
        # The solved point must reproduce the baseline temperature.
        assert rows["Same Temp"].temp_c == pytest.approx(
            result.peak_temp_2d, abs=0.5
        )
        # And still deliver the headline shape: large power saving with
        # a residual performance gain.
        assert rows["Same Temp"].power_pct < 90.0
        assert rows["Same Temp"].perf_pct > 100.0


class TestExperimentRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(list_experiments()) == {
            "figure-3", "figure-5", "figure-6", "figure-8", "figure-11",
            "table-4", "table-5", "table5_dynamic", "dtm_load_spike",
            "dtm_policy_compare", "headlines",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("figure-99")

    def test_figure6_runs(self):
        result = get_experiment("figure-6").run(nx=24)
        assert 80.0 <= result["peak_c"] <= 95.0
        assert result["coolest_c"] < result["peak_c"]

    def test_table4_runs(self):
        result = get_experiment("table-4").run()
        assert result["total_gain_pct"] == pytest.approx(15.0, abs=1.0)

    def test_table5_runs(self):
        result = get_experiment("table-5").run(nx=24)
        assert len(result["rows"]) == 5

    def test_headlines_run(self):
        result = get_experiment("headlines").run()
        assert result["logic_perf_gain_pct"] > 10.0
