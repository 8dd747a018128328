"""Steady-state finite-volume solver for the stacked-die heat equation.

Solves the steady form of the paper's Equation (1),

    div( K(x) grad T ) + Q(x) = 0,

on a structured grid over the full package cross-section, with Equation
(2)'s convective (Robin) boundary conditions on the heat-sink and
motherboard faces and adiabatic side walls.  The domain is the lateral
package extent; each :class:`~repro.thermal.stack.Layer` contributes one or
more grid planes with its own (two-region) conductivity, and power maps are
injected into the layers that carry floorplans.

The discrete system is symmetric positive definite and is solved directly
with a sparse LU factorization, :func:`factorize`, the one factorization
every steady and backward-Euler solve uses.  It runs SuperLU in symmetric
mode: a minimum-degree ordering of ``A^T + A`` applied to rows and
columns alike, with diagonal pivots (``diag_pivot_thresh=0``) and no pivot
search.  That is valid because every thermal system, the conductance
matrix ``A`` and the backward-Euler ``A + M/dt`` alike, is symmetric and
diagonally dominant with a positive diagonal, so diagonal pivots are
stable; :func:`factorize` checks the diagonal and rejects any system that
violates it.  Should the factorization fail anyway, or its solve return a
non-finite field, :func:`solve_steady_state` falls back to
Jacobi-preconditioned conjugate gradients on the same system and reports
``method="cg"``.

Assembly and factorization depend only on the stack *geometry* (layers,
materials, grid, boundary coefficients) — never on the power maps, which
enter through the right-hand side alone.  Both are therefore cached per
geometry key (see :func:`geometry_key`): sweeping power maps over a fixed
stack, the dominant use in the paper's studies, re-solves with a cached
factorization and only rebuilds the cheap power vector.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.oracles.config import get_oracle_config
from repro.oracles.integrity import crc32_of_arrays
from repro.oracles.invariants import (
    check_energy_conservation,
    check_temperature_bounds,
)
from repro.oracles.report import record_check, record_violation
from repro.resilience.errors import GuardViolation, SolverDivergenceError
from repro.thermal.materials import AMBIENT_C, HEATSINK_H_EFF, MOTHERBOARD_H
from repro.thermal.stack import ThermalStack


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and boundary parameters.

    Attributes:
        nx: Lateral grid cells in x (the domain is square; ny = nx unless
            overridden).
        ny: Lateral grid cells in y.
        ambient_c: Ambient temperature, Celsius (Equation 2's T_amb).
        heatsink_h: Effective heat-transfer coefficient on the heat-sink
            face, W/(m^2 K) — lumps the fin array and forced airflow.
        motherboard_h: Natural-convection coefficient on the board back.
    """

    nx: int = 48
    ny: int = 48
    ambient_c: float = AMBIENT_C
    heatsink_h: float = HEATSINK_H_EFF
    motherboard_h: float = MOTHERBOARD_H

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid must be at least 4x4")
        if self.heatsink_h <= 0 or self.motherboard_h <= 0:
            raise ValueError("heat-transfer coefficients must be positive")


@dataclass
class ThermalSolution:
    """Result of a steady-state solve.

    Attributes:
        temperature: Temperatures in Celsius, shape ``(nz, ny, nx)``, plane
            0 at the heat-sink face.
        stack: The solved configuration.
        config: Solver configuration used.
        layer_planes: Maps layer name to its ``(z_start, z_end)`` plane
            range (end exclusive).
        die_region: ``(j0, j1, i0, i1)`` cell bounds of the die footprint.
        residual: Relative residual ``||Ax - b|| / ||b||`` of the linear
            solve that produced this field.
        method: Solver that produced it: ``"lu"``, or ``"cg"`` when
            :func:`solve_steady_state` fell back from a failed LU.
        degraded: True if an online oracle flagged the field (residual,
            energy conservation or temperature bounds).
    """

    temperature: np.ndarray
    stack: ThermalStack
    config: SolverConfig
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    _die_layer_names: List[str] = field(default_factory=list)
    residual: float = 0.0
    method: str = "lu"
    degraded: bool = False

    # -- queries -----------------------------------------------------------

    def solver_info(self) -> Dict[str, Any]:
        """How this field was produced: residual, method, degraded flag.

        Experiment results embed this dict so a CG-fallback solve or an
        oracle-flagged field stays visible in campaign reports instead of
        silently blending with direct solves.
        """
        return {
            "residual": float(self.residual),
            "method": self.method,
            "degraded": bool(self.degraded),
        }

    def layer_temperature(self, name: str) -> np.ndarray:
        """Full-domain temperature slab of a layer, shape (planes, ny, nx)."""
        z0, z1 = self.layer_planes[name]
        return self.temperature[z0:z1]

    def die_map(self, name: str) -> np.ndarray:
        """Die-footprint temperature map of a layer (averaged over planes)."""
        j0, j1, i0, i1 = self.die_region
        return self.layer_temperature(name)[:, j0:j1, i0:i1].mean(axis=0)

    def layer_peak(self, name: str) -> float:
        """Hottest cell in a layer (die region only), Celsius."""
        return float(self.die_map(name).max())

    @property
    def die_layer_names(self) -> List[str]:
        """Names of layers belonging to the silicon die stack."""
        return list(self._die_layer_names)

    def peak_temperature(self) -> float:
        """Hottest on-die temperature across all die-stack layers, Celsius."""
        return max(self.layer_peak(name) for name in self._die_layer_names)

    def coolest_on_die(self) -> float:
        """Coldest temperature within the die footprint, Celsius."""
        return min(
            float(self.die_map(name).min()) for name in self._die_layer_names
        )

    def hottest_layer(self) -> str:
        """Name of the die-stack layer containing the global hotspot."""
        peaks = {name: self.layer_peak(name) for name in self._die_layer_names}
        return max(peaks, key=peaks.get)

    def boundary_heat_flow(self, per_face: bool = False):
        """Heat leaving through the convective boundaries, W.

        Conservation check: at steady state the total equals the injected
        power.  The per-cell conductance uses the same two-region
        conductivity map as the assembly (die material inside the
        footprint, fill material outside) — using the in-die conductivity
        uniformly, as an earlier version did, misstates the flow whenever
        a two-region layer sits on a boundary face (e.g. a flipped stack
        with a die layer at the board side).

        Args:
            per_face: If True, return ``{"heatsink": W, "motherboard": W}``
                instead of the total.
        """
        nz, ny, nx = self.temperature.shape
        dx = self.stack.domain_size_m / nx
        dy = self.stack.domain_size_m / ny
        area = dx * dy
        j0, j1, i0, i1 = self.die_region
        flows: Dict[str, float] = {}
        for face, z, layer, h in (
            ("heatsink", 0, self.stack.layers[0], self.config.heatsink_h),
            (
                "motherboard",
                nz - 1,
                self.stack.layers[-1],
                self.config.motherboard_h,
            ),
        ):
            dz = layer.thickness_m / layer.divisions
            k = np.full((ny, nx), layer.material_out.conductivity)
            k[j0:j1, i0:i1] = layer.material_in.conductivity
            # Series conductance: half-cell conduction + surface convection
            # (identical to the assembled Robin term, so the check closes
            # to solver precision).
            g = area / (dz / (2.0 * k) + 1.0 / h)
            flows[face] = float(
                np.sum(g * (self.temperature[z] - self.config.ambient_c))
            )
        if per_face:
            return flows
        return flows["heatsink"] + flows["motherboard"]


def _die_region_cells(
    stack: ThermalStack, nx: int, ny: int
) -> Tuple[int, int, int, int]:
    """Cell index bounds (j0, j1, i0, i1) of the centred die footprint."""
    dx = stack.domain_size_m / nx
    dy = stack.domain_size_m / ny
    ncx = max(2, int(round(stack.die_width_m / dx)))
    ncy = max(2, int(round(stack.die_height_m / dy)))
    ncx = min(ncx, nx)
    ncy = min(ncy, ny)
    i0 = (nx - ncx) // 2
    j0 = (ny - ncy) // 2
    return j0, j0 + ncy, i0, i0 + ncx


_DIE_LAYER_PREFIXES = ("bulk-si", "metal", "bond")


def geometry_key(
    stack: ThermalStack, config: SolverConfig
) -> Tuple[Any, ...]:
    """Hashable key capturing everything the operator depends on.

    Two (stack, config) pairs with equal keys assemble the *same* matrix,
    mass vector, and ambient boundary vector — power plans are explicitly
    excluded because they only shape the power part of the right-hand
    side.  Anything that feeds the assembly MUST appear here: layer
    names/thicknesses/divisions, both region materials (name alone is not
    enough — :meth:`Layer.with_conductivity` synthesizes materials, so
    the numeric properties are keyed too), die and domain extents, grid
    size, and the three boundary parameters.
    """
    layers = tuple(
        (
            layer.name,
            layer.thickness_m,
            layer.divisions,
            layer.material_in.name,
            layer.material_in.conductivity,
            layer.material_in.volumetric_heat_capacity,
            layer.material_out.name,
            layer.material_out.conductivity,
            layer.material_out.volumetric_heat_capacity,
        )
        for layer in stack.layers
    )
    return (
        layers,
        stack.die_width_m,
        stack.die_height_m,
        stack.domain_size_m,
        config.nx,
        config.ny,
        config.ambient_c,
        config.heatsink_h,
        config.motherboard_h,
    )


@dataclass
class ThermalOperator:
    """The geometry-dependent (power-independent) part of one system.

    Everything here is a pure function of :func:`geometry_key`, so one
    operator is shared by every solve over the same stack geometry.  The
    steady LU factorization and backward-Euler factorizations (one per
    time step) are attached lazily the first time a solver needs them.

    Cached operators are shared: callers must treat ``matrix``, ``mass``,
    and ``boundary_rhs`` as read-only.
    """

    key: Tuple[Any, ...]
    matrix: sp.csc_matrix
    mass: np.ndarray
    boundary_rhs: np.ndarray
    shape: Tuple[int, int, int]
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    die_layers: List[str]
    steady_lu: Optional[Any] = None
    transient_lus: Dict[float, Any] = field(default_factory=dict)
    #: crc32 over the geometry arrays at cache-insertion time; the
    #: operator-integrity oracle rechecks it on reuse (every reuse in
    #: strict mode) to catch in-memory corruption of the cached entry.
    crc: int = 0
    #: Number of times this entry was served from the cache.
    reuse_count: int = 0
    #: True once a differential re-assembly confirmed the cached entry
    #: matches a from-scratch build for its key (done once per geometry).
    assembly_verified: bool = False


#: Geometry-keyed operator cache, LRU over :data:`_OPERATOR_CACHE_MAX`
#: distinct geometries.  Entries are immutable w.r.t. power sweeps; the
#: cache must only be cleared when memory pressure matters: an nx-48
#: geometry's LU holds about 11-16 M factor nonzeros (136-191 MB; see
#: ``lu_bytes`` in :func:`operator_cache_stats`).
_OPERATOR_CACHE: "OrderedDict[Tuple[Any, ...], ThermalOperator]" = OrderedDict()
_OPERATOR_CACHE_MAX = 8
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Backward-Euler factorizations kept per operator (one per distinct dt).
_TRANSIENT_LU_MAX = 4

#: CG fallback: relative-residual target and iteration cap.  Jacobi-CG at
#: rtol 1e-10 matched the LU peak to within 3e-10 C on the nx-48 and
#: nx-64 stacks and converges far below the cap.
_CG_RTOL = 1e-10
_CG_MAXITER = 20_000


def relative_residual(matrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """Relative residual ``||Ax - b|| / ||b||`` of a candidate solution.

    A non-finite *x* is ``inf``; with ``b = 0`` the absolute ``||Ax||``.
    """
    x = np.asarray(x, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(x)):
        return float("inf")
    norm_b = float(np.linalg.norm(rhs))
    if norm_b == 0.0:
        return float(np.linalg.norm(matrix @ x))
    return float(np.linalg.norm(matrix @ x - rhs) / norm_b)


def _positive_diagonal(matrix: sp.spmatrix, method: str) -> np.ndarray:
    """The system diagonal; raises unless it is positive and finite.

    Both solvers rely on it: LU for stable diagonal pivots, CG for its
    Jacobi preconditioner.
    """
    diagonal = matrix.diagonal()
    if not (np.all(diagonal > 0) and np.all(np.isfinite(diagonal))):
        raise SolverDivergenceError(
            f"{method.upper()} solve refused: system diagonal is not "
            "positive and finite",
            method=method,
        )
    return diagonal


def factorize(matrix: sp.spmatrix) -> Any:
    """Sparse LU of a thermal system in SuperLU's symmetric mode.

    Diagonal pivoting is valid here; see the module docstring.

    Raises:
        SolverDivergenceError: the diagonal is not positive and finite,
            or SuperLU found the factor singular.
    """
    _positive_diagonal(matrix, "lu")
    # Symmetric mode takes SuperLU's gstrf from 2.1-4.8 s (general mode,
    # partial pivoting) to 1.6-3.1 s per nx-48 geometry: the seven
    # figure-8/figure-11 systems, 2-core x86-64, Python 3.11, scipy 1.17.
    try:
        return spla.splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverDivergenceError(
            f"LU factorization failed: {exc}", method="lu"
        ) from exc


def _lu_bytes(lu: Any) -> int:
    """Bytes of a factor's L and U as CSC: data, indices and indptr.

    Counted from SuperLU's stored nonzeros rather than by materialising
    ``lu.L``/``lu.U``, which would copy the whole factor.
    """
    n = lu.shape[0]
    value, index = np.dtype(np.float64).itemsize, np.dtype(np.int32).itemsize
    return lu.nnz * (value + index) + 2 * (n + 1) * index


def operator_cache_stats() -> Dict[str, int]:
    """Cache effectiveness counters (for benchmarks and tests).

    ``lu_bytes`` sums the factor memory of every cached steady and
    backward-Euler LU; the entry cap counts geometries, not bytes.
    """
    lu_bytes = sum(
        _lu_bytes(lu)
        for operator in _OPERATOR_CACHE.values()
        for lu in (operator.steady_lu, *operator.transient_lus.values())
        if lu is not None
    )
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "size": len(_OPERATOR_CACHE),
        "max_size": _OPERATOR_CACHE_MAX,
        "lu_bytes": lu_bytes,
    }


def clear_operator_cache() -> None:
    """Drop all cached operators and factorizations, and zero the stats."""
    _OPERATOR_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


#: One-shot corruption hook consumed on the next operator-cache hit
#: (chaos testing: models a bit flip landing in a cached array while it
#: sat in memory).  Armed via :func:`arm_operator_corruption`.
_CORRUPTION_HOOK: Optional[Any] = None


def arm_operator_corruption(hook: Any) -> None:
    """Arm a one-shot hook(operator) fired on the next cache hit.

    Fault-injection only: the campaign chaos mode ``flip-operator`` uses
    this to flip bits inside a cached operator's arrays and prove the
    operator-integrity oracle detects them.  The hook runs *before* the
    oracle checks, exactly like real silent corruption would.
    """
    global _CORRUPTION_HOOK
    _CORRUPTION_HOOK = hook


def _operator_crc(operator: ThermalOperator) -> int:
    """Integrity fingerprint over the geometry-dependent arrays."""
    return crc32_of_arrays(
        (
            operator.matrix.data,
            operator.matrix.indices,
            operator.matrix.indptr,
            operator.mass,
            operator.boundary_rhs,
        )
    )


def _operator_arrays_equal(a: ThermalOperator, b: ThermalOperator) -> bool:
    """Bitwise equality of two operators' geometry arrays."""
    return (
        np.array_equal(a.matrix.data, b.matrix.data)
        and np.array_equal(a.matrix.indices, b.matrix.indices)
        and np.array_equal(a.matrix.indptr, b.matrix.indptr)
        and np.array_equal(a.mass, b.mass)
        and np.array_equal(a.boundary_rhs, b.boundary_rhs)
    )


def _quarantine_operator(
    stack: ThermalStack,
    config: SolverConfig,
    key: Tuple[Any, ...],
    detail: str,
    oracle: str,
) -> ThermalOperator:
    """Drop a corrupt cached entry, record the violation, rebuild fresh."""
    record_violation(oracle, "thermal", detail, action="quarantined-entry")
    _OPERATOR_CACHE.pop(key, None)
    fresh = _assemble_operator(stack, config, key)
    fresh.crc = _operator_crc(fresh)
    fresh.assembly_verified = True  # it IS the from-scratch build
    _OPERATOR_CACHE[key] = fresh
    return fresh


def _verify_cached_operator(
    stack: ThermalStack,
    config: SolverConfig,
    key: Tuple[Any, ...],
    operator: ThermalOperator,
) -> ThermalOperator:
    """Oracle pass over a cache hit; returns the (possibly fresh) operator.

    Two checks, never raising:

    * **Integrity** — recompute the crc32 stored at insertion.  Checked
      on the first reuse, then every ``sample_stride``-th reuse (every
      reuse in strict mode).  A mismatch means the cached arrays were
      corrupted in memory: the entry is quarantined and reassembled.
    * **Differential** — once per geometry, re-run the full assembly
      and compare bitwise, catching a stale/colliding cache entry.
    """
    global _CORRUPTION_HOOK
    if _CORRUPTION_HOOK is not None:
        hook, _CORRUPTION_HOOK = _CORRUPTION_HOOK, None
        hook(operator)
    cfg = get_oracle_config()
    if not cfg.enabled:
        return operator
    operator.reuse_count += 1
    check_crc = (
        cfg.strict
        or operator.reuse_count == 1
        or operator.reuse_count % cfg.sample_stride == 0
    )
    if check_crc:
        record_check("thermal.operator-crc")
        if _operator_crc(operator) != operator.crc:
            return _quarantine_operator(
                stack,
                config,
                key,
                "cached thermal operator failed its crc32 integrity "
                f"recheck on reuse {operator.reuse_count}",
                "thermal.operator-crc",
            )
    if not operator.assembly_verified:
        record_check("thermal.operator-differential")
        fresh = _assemble_operator(stack, config, key)
        if not _operator_arrays_equal(operator, fresh):
            return _quarantine_operator(
                stack,
                config,
                key,
                "cached thermal operator differs from a from-scratch "
                "assembly for the same geometry key",
                "thermal.operator-differential",
            )
        operator.assembly_verified = True
    return operator


@dataclass
class DiscreteSystem:
    """The assembled finite-volume system of one stack/config pair.

    ``matrix @ T = rhs`` is the steady-state balance; *mass* holds each
    cell's heat capacity (rho c V, J/K) for the transient solver.  The
    rhs is the exact element-wise sum ``power_rhs + boundary_rhs`` — the
    power injection and the ambient (Robin) terms never overlap in a
    single cell's contribution order, so the split is bitwise equal to
    assembling them together.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    mass: np.ndarray
    shape: Tuple[int, int, int]
    layer_planes: Dict[str, Tuple[int, int]]
    die_region: Tuple[int, int, int, int]
    die_layers: List[str]
    stack: ThermalStack
    config: SolverConfig
    power_rhs: Optional[np.ndarray] = None
    boundary_rhs: Optional[np.ndarray] = None
    operator: Optional[ThermalOperator] = None

    def solution_from(self, temperature_flat: np.ndarray) -> ThermalSolution:
        """Wrap a flat temperature vector as a :class:`ThermalSolution`."""
        return ThermalSolution(
            temperature=temperature_flat.reshape(self.shape),
            stack=self.stack,
            config=self.config,
            layer_planes=self.layer_planes,
            die_region=self.die_region,
            _die_layer_names=list(self.die_layers),
        )


def _assemble_operator(
    stack: ThermalStack, config: SolverConfig, key: Tuple[Any, ...]
) -> ThermalOperator:
    """Build the geometry-dependent operator: matrix, mass, ambient rhs."""
    nx, ny = config.nx, config.ny
    j0, j1, i0, i1 = _die_region_cells(stack, nx, ny)

    # Expand layers into grid planes.
    plane_k: List[np.ndarray] = []   # conductivity per plane, (ny, nx)
    plane_c: List[np.ndarray] = []   # volumetric heat capacity, (ny, nx)
    plane_dz: List[float] = []
    layer_planes: Dict[str, Tuple[int, int]] = {}
    die_layers: List[str] = []
    z = 0
    for layer in stack.layers:
        k_map = np.full((ny, nx), layer.material_out.conductivity)
        k_map[j0:j1, i0:i1] = layer.material_in.conductivity
        c_map = np.full(
            (ny, nx), layer.material_out.volumetric_heat_capacity
        )
        c_map[j0:j1, i0:i1] = layer.material_in.volumetric_heat_capacity
        layer_planes[layer.name] = (z, z + layer.divisions)
        if layer.name.startswith(_DIE_LAYER_PREFIXES):
            die_layers.append(layer.name)
        for _ in range(layer.divisions):
            plane_k.append(k_map)
            plane_c.append(c_map)
            plane_dz.append(layer.thickness_m / layer.divisions)
        z += layer.divisions

    nz = z
    k = np.stack(plane_k)          # (nz, ny, nx)
    c = np.stack(plane_c)          # (nz, ny, nx)
    dz = np.asarray(plane_dz)      # (nz,)

    dx = stack.domain_size_m / nx
    dy = stack.domain_size_m / ny

    def index(zz: np.ndarray, jj: np.ndarray, ii: np.ndarray) -> np.ndarray:
        return (zz * ny + jj) * nx + ii

    n_cells = nz * ny * nx
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    diag = np.zeros(n_cells)
    boundary_rhs = np.zeros(n_cells)

    zz, jj, ii = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )

    def couple(g: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray) -> None:
        """Add a symmetric conductive coupling g between cell pairs."""
        rows.append(idx_a)
        cols.append(idx_b)
        vals.append(-g)
        rows.append(idx_b)
        cols.append(idx_a)
        vals.append(-g)
        np.add.at(diag, idx_a, g)
        np.add.at(diag, idx_b, g)

    # X-direction faces.
    ka = k[:, :, :-1]
    kb = k[:, :, 1:]
    g_x = (dz[:, None, None] * dy) / (dx / (2 * ka) + dx / (2 * kb))
    couple(
        g_x.ravel(),
        index(zz[:, :, :-1], jj[:, :, :-1], ii[:, :, :-1]).ravel(),
        index(zz[:, :, 1:], jj[:, :, 1:], ii[:, :, 1:]).ravel(),
    )

    # Y-direction faces.
    ka = k[:, :-1, :]
    kb = k[:, 1:, :]
    g_y = (dz[:, None, None] * dx) / (dy / (2 * ka) + dy / (2 * kb))
    couple(
        g_y.ravel(),
        index(zz[:, :-1, :], jj[:, :-1, :], ii[:, :-1, :]).ravel(),
        index(zz[:, 1:, :], jj[:, 1:, :], ii[:, 1:, :]).ravel(),
    )

    # Z-direction faces.
    ka = k[:-1]
    kb = k[1:]
    dza = dz[:-1, None, None]
    dzb = dz[1:, None, None]
    g_z = (dx * dy) / (dza / (2 * ka) + dzb / (2 * kb))
    couple(
        g_z.ravel(),
        index(zz[:-1], jj[:-1], ii[:-1]).ravel(),
        index(zz[1:], jj[1:], ii[1:]).ravel(),
    )

    # Convective boundaries (Robin): half-cell conduction in series with h.
    area = dx * dy
    for plane, h in ((0, config.heatsink_h), (nz - 1, config.motherboard_h)):
        g_b = area / (dz[plane] / (2 * k[plane]) + 1.0 / h)
        idx = index(
            np.full((ny, nx), plane), jj[0], ii[0]
        ).ravel()
        np.add.at(diag, idx, g_b.ravel())
        np.add.at(boundary_rhs, idx, (g_b * config.ambient_c).ravel())

    all_rows = np.concatenate(rows + [np.arange(n_cells)])
    all_cols = np.concatenate(cols + [np.arange(n_cells)])
    all_vals = np.concatenate(vals + [diag])
    matrix = sp.csc_matrix(
        (all_vals, (all_rows, all_cols)), shape=(n_cells, n_cells)
    )

    mass = (c * (dx * dy) * dz[:, None, None]).ravel()  # rho c V, J/K
    return ThermalOperator(
        key=key,
        matrix=matrix,
        mass=mass,
        boundary_rhs=boundary_rhs,
        shape=(nz, ny, nx),
        layer_planes=layer_planes,
        die_region=(j0, j1, i0, i1),
        die_layers=die_layers,
    )


def _power_rhs(stack: ThermalStack, operator: ThermalOperator) -> np.ndarray:
    """The injected-power part of the right-hand side, W per cell.

    Rebuilt on every assembly (it is cheap and carries everything the
    cached operator deliberately excludes), including the power-map
    validity guard.
    """
    nz, ny, nx = operator.shape
    j0, j1, i0, i1 = operator.die_region
    plane_q: List[np.ndarray] = []
    for layer in stack.layers:
        q_map = np.zeros((ny, nx))
        if layer.power_plan is not None:
            raster = layer.power_plan.rasterize(i1 - i0, j1 - j0)
            total = layer.power_plan.total_power
            # Guard: NaN power used to vanish silently here (NaN > 0 is
            # False), solving an unpowered stack without complaint.
            # Negative power cannot reach this point: Block rejects it.
            if not (np.all(np.isfinite(raster)) and np.isfinite(total)):
                raise GuardViolation(
                    f"layer {layer.name!r} has a non-finite power map",
                    guard="power-map",
                )
            if raster.sum() > 0:
                q_map[j0:j1, i0:i1] = raster / raster.sum() * total
        for _ in range(layer.divisions):
            plane_q.append(q_map / layer.divisions)
    return np.stack(plane_q).ravel()


def assemble_system(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    reuse_operator: bool = True,
) -> DiscreteSystem:
    """Discretize a stack into its finite-volume system.

    The geometry-dependent operator (matrix, mass, ambient boundary rhs)
    is served from the per-geometry LRU cache when available; only the
    power vector is rebuilt.  Pass ``reuse_operator=False`` to force a
    from-scratch assembly that bypasses the cache entirely (benchmarks
    use this to time the cold path).
    """
    config = config or SolverConfig()
    key = geometry_key(stack, config)
    operator = _OPERATOR_CACHE.get(key) if reuse_operator else None
    if operator is not None:
        _OPERATOR_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        operator = _verify_cached_operator(stack, config, key, operator)
    else:
        operator = _assemble_operator(stack, config, key)
        if reuse_operator:
            _CACHE_STATS["misses"] += 1
            operator.crc = _operator_crc(operator)
            _OPERATOR_CACHE[key] = operator
            while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_MAX:
                _OPERATOR_CACHE.popitem(last=False)

    power_rhs = _power_rhs(stack, operator)
    # Bitwise equal to assembling power and boundary into one vector: a
    # boundary cell's rhs is exactly one ambient term added to its power.
    rhs = power_rhs + operator.boundary_rhs
    return DiscreteSystem(
        matrix=operator.matrix,
        rhs=rhs,
        mass=operator.mass,
        shape=operator.shape,
        layer_planes=dict(operator.layer_planes),
        die_region=operator.die_region,
        die_layers=list(operator.die_layers),
        stack=stack,
        config=config,
        power_rhs=power_rhs,
        boundary_rhs=operator.boundary_rhs,
        operator=operator,
    )


def _solve_lu(system: DiscreteSystem) -> np.ndarray:
    """Steady solve with the operator's cached LU, factorizing on a miss."""
    operator = system.operator
    lu = operator.steady_lu if operator is not None else None
    if lu is None:
        lu = factorize(system.matrix)
        if operator is not None:
            operator.steady_lu = lu
    flat = lu.solve(system.rhs)
    if not np.all(np.isfinite(flat)):
        if operator is not None:
            operator.steady_lu = None  # refactorize next time, not re-run
        raise SolverDivergenceError(
            "LU solve produced non-finite temperatures", method="lu"
        )
    return flat


def _solve_cg(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on an SPD system."""
    diagonal = _positive_diagonal(matrix, "cg")
    flat, info = spla.cg(
        matrix,
        rhs,
        rtol=_CG_RTOL,
        atol=0.0,
        maxiter=_CG_MAXITER,
        M=sp.diags(1.0 / diagonal),
    )
    if info != 0 or not np.all(np.isfinite(flat)):
        raise SolverDivergenceError(
            f"CG did not converge (info={info})",
            residual=relative_residual(matrix, flat, rhs),
            method="cg",
        )
    return flat


def solve_steady_state(
    stack: ThermalStack, config: Optional[SolverConfig] = None
) -> ThermalSolution:
    """Solve a stack for its steady-state temperature field.

    The geometry's cached symmetric-mode LU does the solve.  Only if the
    factorization fails or its solve returns a non-finite field does the
    same assembled system go to Jacobi-preconditioned CG instead; the
    result then carries ``method="cg"``.

    Args:
        stack: The configuration to solve.
        config: Discretization/boundary parameters (defaults are calibrated
            for the paper's desktop package).

    Returns:
        A :class:`ThermalSolution` with its :attr:`~ThermalSolution.residual`
        and :attr:`~ThermalSolution.method` populated.

    Raises:
        GuardViolation: a layer's power map is non-finite.
        SolverDivergenceError: LU failed and the CG fallback did not
            converge (``method="cg"``; the LU error is its context).
    """
    system = assemble_system(stack, config)
    try:
        flat, method = _solve_lu(system), "lu"
    except SolverDivergenceError:
        flat, method = _solve_cg(system.matrix, system.rhs), "cg"
    solution = system.solution_from(flat)
    solution.method = method
    solution.residual = relative_residual(system.matrix, flat, system.rhs)
    _steady_solution_oracles(system, solution)
    return solution


def _steady_solution_oracles(
    system: DiscreteSystem, solution: "ThermalSolution"
) -> None:
    """Online invariant oracles over a steady solve (never raise).

    Three cheap checks (Section 2.3 physics): the linear residual is
    within tolerance, every watt injected leaves through the boundary
    faces, and no cell sits below ambient or above the damage ceiling.
    A trip records a violation and marks the solution degraded; the
    numbers are still returned so a campaign completes degraded instead
    of crashing.
    """
    cfg = get_oracle_config()
    if not cfg.enabled:
        return
    problems: List[str] = []
    record_check("thermal.residual")
    if not (solution.residual <= cfg.residual_tol):
        problems.append(
            f"steady residual {solution.residual:.3g} above "
            f"tolerance {cfg.residual_tol:.3g}"
        )
    record_check("thermal.conservation")
    power_w = float(system.power_rhs.sum()) if system.power_rhs is not None \
        else float("nan")
    problems += check_energy_conservation(
        solution.boundary_heat_flow(), power_w, cfg.conservation_rtol
    )
    record_check("thermal.bounds")
    problems += check_temperature_bounds(
        float(solution.temperature.min()),
        float(solution.temperature.max()),
        system.config.ambient_c,
        cfg.temp_slack_c,
    )
    for problem in problems:
        record_violation("thermal.steady", "thermal", problem)
    if problems:
        solution.degraded = True
