"""Closed-loop thermal/DVFS co-simulation (ROADMAP item 4).

CoMeT-style periodic feedback between the uarch side (interval CPI/IPC
model + block-level power roll-up at the current V/f point) and the
thermal side (the backward-Euler transient solver advancing one control
epoch under that power), with a DTM policy choosing the next V/f point
from the observed peak temperature.
"""

from repro.coupled.drivers import (
    LoadSchedule,
    bursty_load_spikes,
    constant_load,
    step_load,
)
from repro.coupled.dtm import (
    DtmObservation,
    DtmPolicy,
    NoDtm,
    PidDtm,
    PredictiveDtm,
    ThresholdDtm,
    dtm_policies,
    make_policy,
)
from repro.coupled.engine import (
    CoupledConfig,
    CoupledResult,
    EpochTrace,
    build_coupled_stack,
    planar_baseline_peak_c,
    run_coupled_loop,
)

__all__ = [
    "LoadSchedule",
    "bursty_load_spikes",
    "constant_load",
    "step_load",
    "DtmObservation",
    "DtmPolicy",
    "NoDtm",
    "PidDtm",
    "PredictiveDtm",
    "ThresholdDtm",
    "dtm_policies",
    "make_policy",
    "CoupledConfig",
    "CoupledResult",
    "EpochTrace",
    "build_coupled_stack",
    "planar_baseline_peak_c",
    "run_coupled_loop",
]
