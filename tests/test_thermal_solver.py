"""Physics and regression tests for the finite-volume thermal solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.floorplan.blocks import uniform_floorplan
from repro.thermal.materials import get_material
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    clear_operator_cache,
    geometry_key,
    operator_cache_stats,
    solve_steady_state,
)
from repro.thermal.stack import (
    Layer,
    ThermalStack,
    build_3d_stack,
    build_planar_stack,
)

FAST = SolverConfig(nx=24, ny=24)

UM = 1e-6
MM = 1e-3


def _bare_die_stack(power_w=60.0):
    """A minimal stack whose BOUNDARY layers are two-region (die material
    inside the footprint, epoxy fill outside) — the geometry where the
    old uniform-conductivity conservation check was wrong."""
    die = uniform_floorplan("bare", 10.0, 10.0, power_w)
    epoxy = get_material("epoxy-fillet")
    layers = [
        Layer("bulk-si-1", 750.0 * UM, get_material("bulk-si"), epoxy,
              divisions=2),
        Layer("metal-1", 12.0 * UM, get_material("cu-metal"), epoxy,
              power_plan=die),
        Layer("package", 1.2 * MM, get_material("package"),
              get_material("package")),
    ]
    return ThermalStack("bare die", 10.0 * MM, 10.0 * MM, layers)


class TestSolverPhysics:
    def test_energy_conservation(self, planar_solution):
        # Heat leaving through the boundaries equals the injected power.
        # The per-cell boundary conductances replicate the assembled
        # Robin terms exactly, so this closes to solver precision.
        out = planar_solution.boundary_heat_flow()
        assert out == pytest.approx(planar_solution.stack.total_power, rel=1e-9)

    def test_energy_conservation_3d(self, stacked_solution):
        out = stacked_solution.boundary_heat_flow()
        assert out == pytest.approx(
            stacked_solution.stack.total_power, rel=1e-9
        )

    def test_energy_conservation_two_region_boundary(self):
        """Conservation must close even when a two-region layer forms a
        boundary face (regression: the check used the in-die conductivity
        across the whole face, overstating the off-die flow ~4x here)."""
        solution = solve_steady_state(_bare_die_stack(), FAST)
        out = solution.boundary_heat_flow()
        assert out == pytest.approx(solution.stack.total_power, rel=1e-9)

    def test_per_face_breakdown_sums_to_total(self, planar_solution):
        faces = planar_solution.boundary_heat_flow(per_face=True)
        assert set(faces) == {"heatsink", "motherboard"}
        assert faces["heatsink"] + faces["motherboard"] == pytest.approx(
            planar_solution.boundary_heat_flow(), rel=1e-12
        )

    def test_heatsink_face_dominates(self, planar_solution):
        # The package exists to push heat out through the sink: the
        # forced-air face must carry the overwhelming share.
        faces = planar_solution.boundary_heat_flow(per_face=True)
        assert faces["heatsink"] > 50 * faces["motherboard"]
        assert faces["motherboard"] > 0  # but the board path is real

    def test_flipped_stack_mirrors_the_field(self):
        """Reversing the layer order while swapping the boundary h's is
        the same physical problem upside down: the temperature field must
        mirror in z (and conservation must still close on the flipped
        stack, whose two-region die layers now face the other boundary)."""
        stack = _bare_die_stack()
        flipped = ThermalStack(
            "bare die flipped",
            stack.die_width_m,
            stack.die_height_m,
            list(reversed(stack.layers)),
            stack.domain_size_m,
        )
        config = SolverConfig(
            nx=24, ny=24, heatsink_h=9000.0, motherboard_h=50.0
        )
        mirror_config = SolverConfig(
            nx=24, ny=24, heatsink_h=50.0, motherboard_h=9000.0
        )
        upright = solve_steady_state(stack, config)
        mirrored = solve_steady_state(flipped, mirror_config)
        assert np.allclose(
            upright.temperature,
            mirrored.temperature[::-1],
            rtol=1e-9,
            atol=1e-9,
        )
        out = mirrored.boundary_heat_flow()
        assert out == pytest.approx(flipped.total_power, rel=1e-9)

    def test_maximum_principle(self, planar_solution):
        # With heat sources, no temperature is below ambient.
        assert planar_solution.temperature.min() >= (
            planar_solution.config.ambient_c - 1e-6
        )

    def test_zero_power_gives_ambient_everywhere(self):
        die = uniform_floorplan("cold", 10.0, 10.0, 0.0)
        solution = solve_steady_state(build_planar_stack(die), FAST)
        assert np.allclose(solution.temperature, FAST.ambient_c, atol=1e-8)

    def test_linearity_in_power(self):
        # Steady conduction is linear: doubling power doubles the rise.
        die1 = uniform_floorplan("u", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("u", 10.0, 10.0, 100.0)
        sol1 = solve_steady_state(build_planar_stack(die1), FAST)
        sol2 = solve_steady_state(build_planar_stack(die2), FAST)
        rise1 = sol1.peak_temperature() - FAST.ambient_c
        rise2 = sol2.peak_temperature() - FAST.ambient_c
        assert rise2 == pytest.approx(2.0 * rise1, rel=1e-9)

    def test_symmetry_for_symmetric_power(self):
        # A centred uniform die must give a laterally symmetric field.
        # (Grid chosen so the rounded die region centres exactly; with
        # mismatched parity the half-cell offset breaks exact symmetry.)
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        config = SolverConfig(nx=25, ny=25)
        solution = solve_steady_state(build_planar_stack(die), config)
        field = solution.temperature[0]  # heat-sink plane
        assert np.allclose(field, field[:, ::-1], rtol=1e-9)
        assert np.allclose(field, field[::-1, :], rtol=1e-9)

    def test_better_cooling_is_cooler(self):
        die = uniform_floorplan("u", 10.0, 10.0, 80.0)
        stack = build_planar_stack(die)
        weak = solve_steady_state(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=2000.0)
        )
        strong = solve_steady_state(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=8000.0)
        )
        assert strong.peak_temperature() < weak.peak_temperature()

    def test_hotspot_is_over_the_hot_block(self, planar_solution):
        # The hotspot must sit in a core, not in the (cool) L2 half.
        die_map = planar_solution.die_map("metal-1")
        j, i = np.unravel_index(np.argmax(die_map), die_map.shape)
        # Cores occupy the top half of the die (y > 6 mm).
        assert j >= die_map.shape[0] // 2

    def test_temperature_decreases_away_from_die(self, planar_solution):
        # The die runs hotter than the heat-sink top surface.
        die_peak = planar_solution.layer_peak("metal-1")
        sink = planar_solution.layer_temperature("heat-sink")[0].max()
        assert die_peak > sink

    @given(power=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=8, deadline=None)
    def test_rise_scales_linearly_property(self, power):
        die = uniform_floorplan("u", 10.0, 10.0, power)
        tiny = SolverConfig(nx=12, ny=12)
        solution = solve_steady_state(build_planar_stack(die), tiny)
        rise = solution.peak_temperature() - tiny.ambient_c
        # Rise per watt is a constant of the geometry.
        assert rise / power == pytest.approx(0.3732, rel=0.02)


class TestOperatorCache:
    """The assembled operator + LU factorisation depend only on geometry,
    so solves that share a stack geometry must share one cached operator
    — with bit-identical results to a cold assembly."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_operator_cache()
        yield
        clear_operator_cache()

    def test_cached_solve_is_bit_identical_to_cold(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        cold = solve_steady_state(stack, FAST)
        warm = solve_steady_state(stack, FAST)
        assert np.array_equal(cold.temperature, warm.temperature)
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_power_plans_share_one_operator(self):
        # Same geometry, different power maps: one assembly, one hit —
        # and the very same matrix object on both systems.
        die1 = uniform_floorplan("a", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("b", 10.0, 10.0, 125.0)
        sys1 = assemble_system(build_planar_stack(die1), FAST)
        sys2 = assemble_system(build_planar_stack(die2), FAST)
        assert sys1.matrix is sys2.matrix
        assert not np.array_equal(sys1.rhs, sys2.rhs)
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_geometry_key_ignores_power(self):
        die1 = uniform_floorplan("a", 10.0, 10.0, 50.0)
        die2 = uniform_floorplan("b", 10.0, 10.0, 125.0)
        assert geometry_key(build_planar_stack(die1), FAST) == geometry_key(
            build_planar_stack(die2), FAST
        )

    def test_conductivity_change_is_a_new_key(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        swept = stack.replace_layer(
            stack.layer("metal-1").with_conductivity(24.0)
        )
        assert geometry_key(stack, FAST) != geometry_key(swept, FAST)
        assemble_system(stack, FAST)
        assemble_system(swept, FAST)
        stats = operator_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_config_change_is_a_new_key(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        assemble_system(stack, FAST)
        assemble_system(
            stack, SolverConfig(nx=24, ny=24, heatsink_h=5000.0)
        )
        stats = operator_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_reuse_can_be_disabled(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        assemble_system(stack, FAST, reuse_operator=False)
        assemble_system(stack, FAST, reuse_operator=False)
        stats = operator_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["size"] == 0

    def test_cache_is_bounded(self):
        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        for ambient in range(30, 40):  # 10 distinct geometries
            assemble_system(
                stack, SolverConfig(nx=12, ny=12, ambient_c=float(ambient))
            )
        stats = operator_cache_stats()
        assert stats["size"] == stats["max_size"] < 10
        # The most recent geometry is still resident.
        assemble_system(stack, SolverConfig(nx=12, ny=12, ambient_c=39.0))
        assert operator_cache_stats()["hits"] == 1

    def test_transient_repeat_is_identical(self):
        from repro.thermal.transient import solve_transient

        die = uniform_floorplan("u", 10.0, 10.0, 60.0)
        stack = build_planar_stack(die)
        tiny = SolverConfig(nx=12, ny=12)
        first = solve_transient(stack, tiny, duration_s=0.5, dt_s=0.05)
        again = solve_transient(stack, tiny, duration_s=0.5, dt_s=0.05)
        assert first.peak_c == again.peak_c
        # One assembly; the steady + transient LUs hang off that operator.
        stats = operator_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1

    def test_lu_bytes_counts_cached_factors(self):
        from repro.thermal.transient import solve_transient

        stack = build_planar_stack(uniform_floorplan("u", 10.0, 10.0, 60.0))
        tiny = SolverConfig(nx=12, ny=12)
        assert operator_cache_stats()["lu_bytes"] == 0
        solve_steady_state(stack, tiny)
        steady_bytes = operator_cache_stats()["lu_bytes"]
        assert steady_bytes > 0
        solve_transient(stack, tiny, duration_s=0.1, dt_s=0.05)
        assert operator_cache_stats()["lu_bytes"] > steady_bytes
        # Equal to the CSC bytes of the materialised L and U factors.
        operator = assemble_system(stack, tiny).operator
        factors = [operator.steady_lu, *operator.transient_lus.values()]
        assert operator_cache_stats()["lu_bytes"] == sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for lu in factors
            for m in (lu.L, lu.U)
        )
        clear_operator_cache()
        assert operator_cache_stats()["lu_bytes"] == 0


class TestSolverConfigValidation:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(nx=2, ny=2)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            SolverConfig(heatsink_h=0.0)


class TestSolutionQueries:
    def test_layer_planes_cover_all_layers(self, planar_solution):
        stack = planar_solution.stack
        planes = planar_solution.layer_planes
        assert set(planes) == {layer.name for layer in stack.layers}
        total = sum(z1 - z0 for z0, z1 in planes.values())
        assert total == planar_solution.temperature.shape[0]

    def test_die_layers_detected(self, stacked_solution):
        names = stacked_solution.die_layer_names
        assert "bulk-si-1" in names
        assert "metal-1" in names
        assert "bond" in names
        assert "metal-2" in names
        assert "heat-sink" not in names
        assert "package" not in names

    def test_die_map_shape_matches_region(self, planar_solution):
        j0, j1, i0, i1 = planar_solution.die_region
        die_map = planar_solution.die_map("metal-1")
        assert die_map.shape == (j1 - j0, i1 - i0)

    def test_coolest_on_die_below_peak(self, planar_solution):
        assert (
            planar_solution.coolest_on_die()
            < planar_solution.peak_temperature()
        )

    def test_hottest_layer_is_an_active_layer(self, stacked_solution):
        assert stacked_solution.hottest_layer() in (
            "metal-1", "metal-2", "bond", "bulk-si-1", "bulk-si-2"
        )


class TestPaperOperatingPoints:
    """Coarse-grid sanity on the calibrated operating points; the
    benchmarks check the fine-grid values against the paper."""

    def test_baseline_near_88c(self, planar_solution):
        assert 82.0 <= planar_solution.peak_temperature() <= 95.0

    def test_sram_stack_hotter_than_baseline(
        self, planar_solution, stacked_solution
    ):
        # Figure 8: the 12 MB SRAM option is the hottest stack.
        assert (
            stacked_solution.peak_temperature()
            > planar_solution.peak_temperature()
        )

    def test_dram32_cooler_than_sram12(self, baseline_die, stacked_solution):
        nol2 = core2duo_floorplan(with_l2=False)
        dram = stacked_cache_die("dram-32mb", nol2)
        sol32 = solve_steady_state(
            build_3d_stack(nol2, dram, die2_metal="al"), FAST
        )
        assert sol32.peak_temperature() < stacked_solution.peak_temperature()
