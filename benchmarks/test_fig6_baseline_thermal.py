"""Figure 6: the planar Core 2 Duo power map and thermal map.

Paper: the two hottest spots (FP / reservation stations / load-store
units) and the coolest on-die area, with a 92 W skew, desktop cooling,
and 40 C ambient; the values and tolerances are the registry's
``figure-6`` targets.
"""

import pytest

from conftest import BENCH_GRID, assert_targets, run_once
from repro.analysis import ascii_heatmap
from repro.core.experiments import get_experiment
from repro.floorplan import core2duo_floorplan
from repro.thermal import simulate_planar

FIGURE6 = get_experiment("figure-6")


def _result(solution):
    return {
        "peak_c": solution.peak_temperature(),
        "coolest_c": solution.coolest_on_die(),
    }


@pytest.fixture(scope="module")
def figure6_solution():
    return simulate_planar(core2duo_floorplan(), BENCH_GRID)


def test_fig6_regenerate(benchmark):
    solution = run_once(
        benchmark, simulate_planar, core2duo_floorplan(), BENCH_GRID
    )
    result = _result(solution)
    benchmark.extra_info.update(result)
    print("\nFigure 6b: baseline thermal map (active layer)")
    print(ascii_heatmap(solution.die_map("metal-1"), width=48))
    for target in FIGURE6.targets:
        paper, measured, _ = FIGURE6.grade(target, result)
        print(f"  {target.name:22} {measured:6.2f} (paper {paper:g})")
    assert_targets(FIGURE6, result)


class TestFigure6Values:
    @pytest.mark.parametrize(
        "target", FIGURE6.targets, ids=lambda target: target.name
    )
    def test_matches_paper(self, figure6_solution, target):
        assert_targets(FIGURE6, _result(figure6_solution), [target])

    def test_hotspot_in_core_region(self, figure6_solution):
        import numpy as np

        die_map = figure6_solution.die_map("metal-1")
        j, _ = np.unravel_index(np.argmax(die_map), die_map.shape)
        # Cores are the top half of the die; the L2 is the bottom half.
        assert j >= die_map.shape[0] // 2

    def test_cache_half_is_coolest(self, figure6_solution):
        import numpy as np

        die_map = figure6_solution.die_map("metal-1")
        j, _ = np.unravel_index(np.argmin(die_map), die_map.shape)
        assert j < die_map.shape[0] // 2
