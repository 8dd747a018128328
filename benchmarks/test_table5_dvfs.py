"""Table 5: frequency and voltage scaling of the Logic+Logic 3D floorplan.

The conversion equations are the paper's own (0.82% performance per 1%
frequency; 1% frequency per 1% Vcc; P ~ V^2 f), so the power and
performance columns reproduce almost exactly; temperatures come from our
thermal model.  The published rows are the registry's ``table-5``
``paper_values``; the scaled rows' power and performance tolerances are
its targets.
"""

import dataclasses

import pytest

from conftest import BENCH_GRID, accepts, run_once
from repro.analysis import format_table5
from repro.core.experiments import get_experiment
from repro.core.logic_on_logic import run_logic_study, thermal_map_3d_power
from repro.uarch.dvfs import table5_points

TABLE5 = get_experiment("table-5")
PAPER = TABLE5.paper_values
LABELS = {"power_w": "power (W)", "perf_pct": "perf (%)"}


def _column_ok(row, name, column):
    """*row*'s *column* satisfies the paper within the registry's rule.

    The Baseline row has no registry target of its own; it is held to
    the scaled rows' rule for the same column.
    """
    graded = "Same Pwr" if name == "Baseline" else name
    target = dataclasses.replace(
        TABLE5.target(f"{graded} {LABELS[column]}"),
        paper=(name, column),
        measured=lambda _result: row[column],
    )
    return TABLE5.accepts(target, {})


def _rows(points):
    return {p.name: dataclasses.asdict(p) for p in points}


@pytest.fixture(scope="module")
def table5_rows():
    return _rows(run_logic_study(solver=BENCH_GRID).table5)


def test_table5_regenerate(benchmark):
    def build():
        thermal = thermal_map_3d_power(BENCH_GRID)
        return table5_points(thermal=thermal)

    points = run_once(benchmark, build)
    rows = _rows(points)
    benchmark.extra_info["rows"] = {
        p.name: [p.power_w, p.perf_pct, p.temp_c] for p in points
    }
    print("\n" + format_table5(list(rows.values())))
    for name in PAPER:
        for column in ("power_w", "perf_pct"):
            assert _column_ok(rows[name], name, column), (name, column)


class TestTable5Values:
    @pytest.mark.parametrize("name", list(PAPER))
    def test_power_column(self, table5_rows, name):
        assert _column_ok(table5_rows[name], name, "power_w")

    @pytest.mark.parametrize("name", list(PAPER))
    def test_perf_column(self, table5_rows, name):
        assert _column_ok(table5_rows[name], name, "perf_pct")

    @pytest.mark.parametrize("name", list(PAPER))
    def test_temp_column_shape(self, table5_rows, name):
        # Temperatures come from our solver; allow a wider band but
        # require every row within 10 C of the paper's.
        assert table5_rows[name]["temp_c"] == pytest.approx(
            PAPER[name]["temp_c"], abs=10.0
        )

    def test_headline_same_temp(self, table5_rows):
        # "a simultaneous 34% power reduction and 8% performance
        # improvement" at neutral thermals: the closed-loop experiment
        # publishes the same point as a power fraction.
        row = table5_rows["Same Temp"]
        dynamic = get_experiment("table5_dynamic").paper_values
        assert row["power_pct"] == pytest.approx(
            dynamic["power_pct"], abs=1.5
        )
        assert row["perf_pct"] == pytest.approx(dynamic["perf_pct"], abs=1.0)

    def test_same_perf_halves_power(self, table5_rows):
        # "Scaling to neutral performance yields a 54% power reduction":
        # the Same Perf. power target pins the reduction to about +-1
        # point, tighter than the +-1.5 this claim needs.
        assert accepts(
            "table-5", "Same Perf. power (W)",
            table5_rows["Same Perf."]["power_w"],
        )
