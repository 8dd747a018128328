"""Figure 8: peak temperatures of the four Memory+Logic configurations.

Paper: stacking SRAM costs the most (higher power density), and the
32 MB DRAM stack is thermally almost free (+0.08 C over the 2D
baseline), the Section 3 headline.  The per-configuration values and
tolerances are the registry's ``figure-8`` targets.
"""

import pytest

from conftest import BENCH_GRID, assert_targets, run_once
from repro.analysis import compare_to_paper
from repro.core.experiments import get_experiment
from repro.core.memory_on_logic import run_thermal_study

FIGURE8 = get_experiment("figure-8")


@pytest.fixture(scope="module")
def figure8_temps():
    return run_thermal_study(BENCH_GRID)


def test_fig8_regenerate(benchmark):
    temps = run_once(benchmark, run_thermal_study, BENCH_GRID)
    for name, value in temps.items():
        benchmark.extra_info[name] = value
    print("\n" + compare_to_paper(FIGURE8.paper_values, temps, unit="C",
                                  title="Figure 8a: peak temperatures"))
    assert_targets(FIGURE8, temps)
    assert abs(temps["3D 32MB"] - temps["2D 4MB"]) < 1.5


class TestFigure8Values:
    @pytest.mark.parametrize(
        "target", FIGURE8.targets, ids=lambda target: target.name
    )
    def test_target(self, figure8_temps, target):
        assert_targets(FIGURE8, figure8_temps, [target])

    def test_dram32_is_thermally_negligible(self, figure8_temps):
        # Allow +-1.5 C: "negligible" is the claim.
        delta = figure8_temps["3D 32MB"] - figure8_temps["2D 4MB"]
        assert abs(delta) < 1.5

    def test_dram64_between_baseline_and_sram(self, figure8_temps):
        assert (
            figure8_temps["2D 4MB"]
            < figure8_temps["3D 64MB"]
            < figure8_temps["3D 12MB"]
        )
