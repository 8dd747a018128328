"""Figure 5: CPMA and off-die bandwidth for the RMS workloads across
last-level capacities of 4 / 12 / 32 / 64 MB.

Paper shape: gauss, pcg, sMVM, sTrans, sUS, and svm "decrease
dramatically as the last level cache increases"; the others fit in the
4 MB baseline and see no improvement.  Off-die bandwidth falls roughly
3x on average at 32 MB.  The winner and fitter rules and the headline
tolerances are the registry's ``figure-5`` targets.

The bench runs a representative half of the suite at half trace length
and scale 16 so the whole harness stays fast; the full sweep is
``examples/memory_stacking_sweep.py --full``.
"""

import pytest

from conftest import assert_targets, run_once
from repro.analysis import format_figure5
from repro.core.experiments import (
    capacity_winner,
    fits_baseline,
    get_experiment,
)

FIGURE5 = get_experiment("figure-5")
#: Benchmark subset: three capacity winners, three fitting workloads.
WINNERS = ["gauss", "sus", "pcg"]
FITTERS = ["ssym", "savdf", "svd"]
#: The registry's shape rules, applied to the benchmark subset.
SHAPE_TARGETS = (
    [capacity_winner(name) for name in WINNERS]
    + [fits_baseline(name) for name in FITTERS]
)
MAX_REDUCTION = FIGURE5.target("max CPMA reduction at 32MB (%)")


@pytest.fixture(scope="module")
def figure5_result():
    return FIGURE5.run(
        workloads=WINNERS + FITTERS, scale=16, length_factor=0.5
    )


def test_fig5_regenerate(benchmark, figure5_result):
    # Time one representative replay (gauss on the 32 MB configuration).
    from repro.core.memory_on_logic import TRACE_PLAN
    from repro.memsim import replay_trace, stacked_dram_config
    from repro.traces import generate_trace

    records = generate_trace(
        "gauss", n_records=TRACE_PLAN["gauss"][0] // 4, scale=16
    )
    stats = run_once(
        benchmark,
        replay_trace,
        records,
        stacked_dram_config(32, 16),
        warmup_fraction=0.35,
    )
    benchmark.extra_info["gauss_32mb_cpma"] = stats.cpma
    paper = FIGURE5.paper_values
    bus_paper = get_experiment("headlines").paper_values[
        "memory_bus_power_reduction_pct"]
    result = figure5_result
    print("\n" + format_figure5(result["cpma"], result["bandwidth"]))
    print(f"\n  avg CPMA reduction at 32MB: "
          f"{100 * result['avg_cpma_reduction_32mb']:.1f}% "
          f"(paper: {100 * paper['avg_cpma_reduction_32mb']:.0f}%, "
          "subset differs)")
    print(f"  max CPMA reduction at 32MB: "
          f"{100 * result['max_cpma_reduction_32mb']:.1f}% "
          f"(paper: ~{100 * paper['max_cpma_reduction_32mb']:.0f}%)")
    print(f"  bus power/BW reduction:     "
          f"{100 * result['bus_power_reduction_32mb']:.1f}% "
          f"(paper: {bus_paper:g}%)")
    # Shape: winners win dramatically; BW collapses; avg improves.
    assert_targets(FIGURE5, result, SHAPE_TARGETS[:len(WINNERS)])
    assert_targets(FIGURE5, result, [MAX_REDUCTION])
    assert result["avg_cpma_reduction_32mb"] > 0


class TestFigure5Shape:
    @pytest.mark.parametrize(
        "target", SHAPE_TARGETS, ids=lambda target: target.name
    )
    def test_winners_win_and_fitters_fit(self, figure5_result, target):
        # "The benchmarks that do not see improvement fit in the 4MB
        # baseline": no meaningful gain from 12 MB.
        assert_targets(FIGURE5, figure5_result, [target])

    def test_bandwidth_reduction_at_32mb(self, figure5_result):
        bandwidth = figure5_result["bandwidth"]
        total_base = sum(row["2D 4MB"] for row in bandwidth.values())
        total_32 = sum(row["3D 32MB"] for row in bandwidth.values())
        # Paper: ~3x average reduction; require at least 2x on the subset.
        assert total_base > 2.0 * total_32

    def test_64mb_at_least_as_good_as_32mb_on_bw(self, figure5_result):
        for name, row in figure5_result["bandwidth"].items():
            assert row["3D 64MB"] <= row["3D 32MB"] + 0.2, name

    def test_average_cpma_improves(self, figure5_result):
        assert figure5_result["avg_cpma_reduction_32mb"] > 0

    def test_headline_max_reduction(self, figure5_result):
        assert_targets(FIGURE5, figure5_result, [MAX_REDUCTION])
