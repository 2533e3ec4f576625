"""Eigenstate preparation on open XX chains: adiabatic bond ramps fused
with rodeo purification, plus the cost accounting to compare them."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DegenerateGapError,
    PropagationError,
    PurificationError,
    RampSearchError,
    RodeoAnnihilationError,
    SimulationError,
    StepRefinementError,
)
from .fusion import (
    METHODS,
    FusionConfig,
    FusionStep,
    StepRecord,
    compare_methods,
    expected_cost,
    fuse_step,
    half_ground,
    run_fusion,
)
from .propagate import (
    RampContext,
    RampResult,
    RampSchedule,
    adiabatic_ramp,
    converged_ramp,
    default_step_tol,
    expmv,
    ramp_time_for_infidelity,
)
from .rodeo import (
    energy_scan,
    make_schedule,
    rodeo_cycle,
    rodeo_cycles,
    run_rodeo,
)
from .spectral import (
    SpectralPair,
    chain_pair,
    infidelity,
    lowest_two,
)
from .spin_model import (
    BondCouplings,
    SectorBasis,
    SparseHamiltonian,
    StateVector,
    basis_state,
    build_hamiltonian,
    embed_product,
    enumerate_sector,
    middle_bond,
    sector_occupancy,
)

__all__ = [
    "__version__",
    "BondCouplings", "SectorBasis", "SparseHamiltonian", "StateVector",
    "basis_state", "build_hamiltonian", "embed_product",
    "enumerate_sector", "middle_bond", "sector_occupancy",
    "SpectralPair", "chain_pair", "infidelity", "lowest_two",
    "RampContext", "RampResult", "RampSchedule", "adiabatic_ramp",
    "converged_ramp", "default_step_tol", "expmv", "ramp_time_for_infidelity",
    "energy_scan", "make_schedule", "rodeo_cycle", "rodeo_cycles", "run_rodeo",
    "METHODS", "FusionConfig", "FusionStep", "StepRecord", "compare_methods",
    "expected_cost", "fuse_step", "half_ground", "run_fusion",
    "SimulationError", "CapacityError", "DegenerateGapError",
    "PropagationError", "PurificationError", "RampSearchError",
    "RodeoAnnihilationError", "StepRefinementError",
]
