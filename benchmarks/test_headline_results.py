"""The paper's abstract/conclusion headline numbers, regenerated.

* Memory+Logic: a 32 MB stacked DRAM cache reduces CPMA on average and
  dramatically on the capacity winners, cuts off-die bandwidth and bus
  power by about two thirds, and raises peak temperature negligibly.
* Logic+Logic: the 3D floorplan simultaneously cuts power and lifts
  performance for a moderate thermal cost, and voltage scaling reaches
  neutral thermals with both a power cut and a performance gain.

The published values and their tolerances are the registry's targets
(``repro.core.experiments``); the run prints them beside ours.
"""

import pytest

from conftest import BENCH_GRID, accepts, assert_targets, run_once
from repro.core.experiments import get_experiment
from repro.core.logic_on_logic import run_logic_study
from repro.core.memory_on_logic import run_thermal_study

FIGURE5 = get_experiment("figure-5")
HEADLINES = get_experiment("headlines").paper_values
SAME_TEMP = get_experiment("table5_dynamic").paper_values
MAX_REDUCTION = FIGURE5.target("max CPMA reduction at 32MB (%)")


@pytest.fixture(scope="module")
def memory_result():
    # Capacity winners + two fitting workloads, reduced length.
    return FIGURE5.run(
        workloads=["gauss", "sus", "pcg", "ssym", "savdf"],
        scale=16,
        length_factor=0.5,
    )


@pytest.fixture(scope="module")
def logic_result():
    return run_logic_study(solver=BENCH_GRID)


def _logic_targets_hold(logic):
    return accepts(
        "table-4", "total gain (%)", logic.total_gain_pct
    ) and accepts(
        "headlines", "logic power reduction (%)", logic.power_reduction_pct
    )


def _same_temp_holds(same_temp):
    return 100.0 - same_temp.power_pct == pytest.approx(
        100.0 - SAME_TEMP["power_pct"], abs=1.5
    )


def test_headlines_regenerate(benchmark, memory_result):
    logic = run_once(benchmark, run_logic_study, solver=BENCH_GRID)
    temps = run_thermal_study(BENCH_GRID)
    figure8 = get_experiment("figure-8").paper_values
    figure11 = get_experiment("figure-11").paper_values
    print("\nHeadline results vs paper:")
    print(f"  memory: max CPMA reduction "
          f"{100 * memory_result['max_cpma_reduction_32mb']:5.1f}%  "
          f"(paper: up to "
          f"{100 * FIGURE5.paper_values['max_cpma_reduction_32mb']:.0f}%)")
    print(f"  memory: bus power reduction "
          f"{100 * memory_result['bus_power_reduction_32mb']:5.1f}%  "
          f"(paper: {HEADLINES['memory_bus_power_reduction_pct']:g}%)")
    delta = temps["3D 32MB"] - temps["2D 4MB"]
    print(f"  memory: 32MB thermal delta {delta:+5.2f} C  "
          f"(paper: {figure8['3D 32MB'] - figure8['2D 4MB']:+.2f} C)")
    print(f"  logic:  perf gain  {logic.total_gain_pct:5.1f}%  "
          f"(paper: {HEADLINES['logic_perf_gain_pct']:g}%)")
    print(f"  logic:  power cut  {logic.power_reduction_pct:5.1f}%  "
          f"(paper: {HEADLINES['logic_power_reduction_pct']:g}%)")
    print(f"  logic:  thermal delta "
          f"{logic.peak_temp_3d - logic.peak_temp_2d:+5.1f} C  "
          f"(paper: {figure11['3D'] - figure11['2D Baseline']:+.1f} C)")
    same_temp = {p.name: p for p in logic.table5}["Same Temp"]
    print(f"  logic:  neutral-thermal point: "
          f"{100 - same_temp.power_pct:.0f}% power cut, "
          f"+{same_temp.perf_pct - 100:.1f}% perf  "
          f"(paper: -{100 - SAME_TEMP['power_pct']:g}% / "
          f"+{SAME_TEMP['perf_pct'] - 100:g}%)")
    assert_targets(FIGURE5, memory_result, [MAX_REDUCTION])
    assert _logic_targets_hold(logic)
    assert _same_temp_holds(same_temp)


class TestMemoryHeadlines:
    def test_max_cpma_reduction(self, memory_result):
        assert_targets(FIGURE5, memory_result, [MAX_REDUCTION])

    def test_bus_power_reduction(self, memory_result):
        # Require a strong majority of the paper's reduction on the
        # subset (fitting workloads contribute zero-BW rows).
        assert memory_result["bus_power_reduction_32mb"] > 0.5

    def test_thermal_delta_negligible(self):
        temps = run_thermal_study(BENCH_GRID)
        assert abs(temps["3D 32MB"] - temps["2D 4MB"]) < 1.5


class TestLogicHeadlines:
    def test_simultaneous_15_and_15(self, logic_result):
        assert _logic_targets_hold(logic_result)

    def test_moderate_thermal_cost(self, logic_result):
        delta = logic_result.peak_temp_3d - logic_result.peak_temp_2d
        # Our repaired floorplan lands a few degrees under the paper.
        assert 5.0 <= delta <= 18.0

    def test_neutral_thermal_tradeoff(self, logic_result):
        same_temp = {p.name: p for p in logic_result.table5}["Same Temp"]
        assert _same_temp_holds(same_temp)
        assert accepts("table-5", "Same Temp perf (%)", same_temp.perf_pct)
