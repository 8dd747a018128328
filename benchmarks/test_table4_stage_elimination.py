"""Table 4: pipe stages eliminated per functional area and the
performance gain of each, over the 650-trace suite.

Paper: FP latency is the biggest row, then store lifetime and FP load;
the rows total ~15% from ~25% of stages eliminated.  The per-row
values and tolerances are the registry's ``table-4`` targets.
"""

import pytest

from conftest import accepts, assert_targets, run_once
from repro.analysis import compare_to_paper
from repro.core.experiments import get_experiment
from repro.core.logic_on_logic import run_performance_study

TABLE4 = get_experiment("table-4")


def _result(study):
    """The study in the registry's ``table-4`` result shape."""
    return {
        "per_row_gains_pct": study.per_row_gains,
        "total_gain_pct": study.total_gain_pct,
        "stages_eliminated_pct": study.stages_eliminated_pct,
    }


@pytest.fixture(scope="module")
def table4_result():
    return run_performance_study()


def test_table4_regenerate(benchmark):
    result = run_once(benchmark, run_performance_study)
    benchmark.extra_info["total_gain_pct"] = result.total_gain_pct
    benchmark.extra_info["per_row"] = result.per_row_gains
    paper = TABLE4.paper_values
    print("\n" + compare_to_paper(
        paper, result.per_row_gains, unit="%",
        title="Table 4: per-area performance gains",
    ))
    print(f"  stages eliminated: {result.stages_eliminated_pct:.1f}% "
          f"(paper ~{paper['stages_eliminated']:g}%)")
    print(f"  total gain:        {result.total_gain_pct:.1f}% "
          f"(paper ~{paper['total']:g}%)")
    assert_targets(TABLE4, _result(result))


class TestTable4Values:
    @pytest.mark.parametrize(
        "target", TABLE4.targets, ids=lambda target: target.name
    )
    def test_target(self, table4_result, target):
        assert_targets(TABLE4, _result(table4_result), [target])

    def test_fp_latency_is_the_biggest_row(self, table4_result):
        gains = table4_result.per_row_gains
        assert max(gains, key=gains.get) == "fp_wire"

    def test_row_ordering_matches_paper(self, table4_result):
        # The big three in order: FP latency > store lifetime > FP load.
        gains = table4_result.per_row_gains
        assert gains["fp_wire"] > gains["store_lifetime"] > gains["fp_load"]

    def test_power_reduction_15_percent(self, table4_result):
        assert accepts(
            "headlines", "logic power reduction (%)",
            table4_result.power_reduction_pct,
        )
        # The stacked design runs at Table 5's Same Freq. power.
        same_freq = get_experiment("table-5").paper_values["Same Freq."]
        assert table4_result.stacked_power_w == pytest.approx(
            same_freq["power_w"], abs=1.0
        )
