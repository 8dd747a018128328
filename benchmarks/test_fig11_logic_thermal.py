"""Figure 11: Logic+Logic thermals — baseline, repaired 3D, worst case.

Paper: the 3D floorplan (15% power saving, ~1.3x peak density after
hotspot repair) runs moderately hotter than the 2D baseline, and the
worst case (no savings, 2x density) far hotter.  The values, tolerances
and the ordering rule are the registry's ``figure-11`` targets.
"""

import pytest

from conftest import BENCH_GRID, assert_targets, run_once
from repro.analysis import compare_to_paper
from repro.core.experiments import get_experiment
from repro.core.logic_on_logic import run_thermal_study

FIGURE11 = get_experiment("figure-11")


@pytest.fixture(scope="module")
def figure11_temps():
    return run_thermal_study(BENCH_GRID)


def test_fig11_regenerate(benchmark):
    temps = run_once(benchmark, run_thermal_study, BENCH_GRID)
    for name, value in temps.items():
        benchmark.extra_info[name] = value
    print("\n" + compare_to_paper(FIGURE11.paper_values, temps, unit="C",
                                  title="Figure 11: peak temperatures"))
    assert_targets(FIGURE11, temps)


class TestFigure11Values:
    # Our repaired 3D floorplan lands a few degrees cooler than the
    # paper's (see EXPERIMENTS.md): its target passes within 3 C and
    # holds a hard bound of 6 C.
    @pytest.mark.parametrize(
        "target", FIGURE11.targets, ids=lambda target: target.name
    )
    def test_target(self, figure11_temps, target):
        assert_targets(FIGURE11, figure11_temps, [target])

    def test_worstcase_rise_dominates(self, figure11_temps):
        # Paper: the worst case rises nearly twice as far as the 3D.
        rise_3d = figure11_temps["3D"] - figure11_temps["2D Baseline"]
        rise_worst = (
            figure11_temps["3D Worstcase"] - figure11_temps["2D Baseline"]
        )
        assert rise_worst > 1.8 * rise_3d
