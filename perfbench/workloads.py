"""The benchmark's workloads: fixed sequences of ``xxfusion`` invocations.

Each workload is one closed-loop client running its invocations in order
in one process.  The inputs are fully determined by the invocations (the
program seeds its own Lanczos start vector), so the benchmark seed does
not enter them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sector dimensions of the adiabatic ramps in ``fusion-costs``: dense
#: ``eigh`` per step (6, 70), Krylov with its basis inside L2 (1820) and
#: Krylov spilling L2 (12870).
RAMP_DIMS = (6, 70, 1820, 12870)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    #: Functions the traced run must see called at least once.
    required: tuple[str, ...]
    #: Sector dimensions the adiabatic ramp must be seen integrating.
    ramp_dims: tuple[int, ...] = ()


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fusion-costs",
            (
                _argv("compare --L 8 --filling 1/2 --targets 1e-3,1e-4"),
                _argv("compare --L 16 --filling 1/4 --targets 1e-3,1e-4"),
                _argv("fuse --L-final 16 --L-base 2 --filling 1/2 --method hybrid --target 1e-3"),
            ),
            required=(
                "cli.main", "spin_model.enumerate_sector", "spin_model.build_hamiltonian",
                "spin_model.embed_product", "spectral.lowest_two", "spectral.infidelity",
                "propagate.ramp_time_for_infidelity", "propagate.converged_ramp",
                "propagate.adiabatic_ramp", "propagate.expmv", "rodeo.make_schedule",
                "rodeo.rodeo_cycle", "fusion.compare_methods", "fusion.fuse_step",
                "fusion.run_fusion", "fusion.expected_cost",
            ),
            ramp_dims=RAMP_DIMS,
        ),
        Workload(
            "energy-scan",
            (
                _argv("scan --L 14 --n-up 6 --initial product --e-min -9 --e-max 9 "
                      "--points 81 --depth 8 --superiterations 2"),
            ),
            required=(
                "cli.main", "spin_model.enumerate_sector", "spin_model.build_hamiltonian",
                "spin_model.embed_product", "spectral.lowest_two", "rodeo.make_schedule",
                "propagate.expmv", "rodeo.rodeo_cycle", "rodeo.run_rodeo",
                "rodeo.energy_scan",
            ),
        ),
        Workload(
            "large-sector",
            (_argv("gap --L 22 --filling 1/2"),),
            required=(
                "cli.main", "spin_model.enumerate_sector", "spin_model.build_hamiltonian",
                "spectral.lowest_two",
            ),
        ),
    )
}
