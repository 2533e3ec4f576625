"""Experiment driver: gap, compare, scan, converge, and fuse commands.

Every command reads an optional flat config file of ``key = value``
lines ('#' starts a comment); any flag passed on the command line
overrides the file.  Unknown keys are rejected.  CSV output starts with
one provenance comment carrying the tool version and the fully resolved
configuration, floats are printed with 12 significant digits, and a
trailing ``status`` column marks per-cell failures, so a repeated run
with the same configuration is byte-identical.

Exit codes: 0 success, 1 computation failure (including any FAILED
cell), 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import CapacityError, SimulationError
from .fusion import (
    METHODS,
    FusionConfig,
    FusionStep,
    compare_methods,
    half_ground,
    run_fusion,
)
from .propagate import check_expmv_tol
from .rodeo import energy_scan, make_schedule
from .spectral import chain_pair
from .spin_model import basis_state, embed_product, sector_occupancy


class ConfigError(Exception):
    pass


def _p_fraction(text: str) -> Fraction:
    aliases = {"half": Fraction(1, 2), "quarter": Fraction(1, 4)}
    if text in aliases:
        return aliases[text]
    return Fraction(text)


def _p_targets(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of infidelities")
    return tuple(float(p) for p in parts)


def _p_method(text: str) -> str:
    if text not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}")
    return text


def _p_purifier(text: str) -> str:
    if text not in ("rodeo", "hybrid"):
        raise ValueError("method must be rodeo or hybrid")
    return text


def _p_step_tol(text: str):
    if text == "auto":
        return None
    return float(text)


@dataclass(frozen=True)
class Opt:
    key: str
    parse: object
    default: object
    help: str


_DEFAULTS = FusionConfig()

_SEARCH_OPTS = [
    Opt("t_start", float, _DEFAULTS.T_start, "first ramp duration probed (1/J)"),
    Opt("t_cap", float, _DEFAULTS.T_cap, "largest ramp duration probed (1/J)"),
    Opt("bisections", int, _DEFAULTS.bisections,
        "bisection rounds after the doubling bracket"),
    Opt("expmv_tol", float, _DEFAULTS.expmv_tol,
        "propagator tolerance per application"),
    Opt("step_tol", _p_step_tol, _DEFAULTS.step_tol,
        "ramp step-doubling stall tolerance; 'auto' ties it to the target"),
]

_RODEO_OPTS = [
    Opt("depth", int, _DEFAULTS.depth, "cycle times per superiteration"),
    Opt("ratio", float, _DEFAULTS.ratio,
        "geometric ratio between successive cycle times"),
    Opt("precondition", float, _DEFAULTS.precondition_infidelity,
        "hybrid preconditioning infidelity"),
]

OPTIONS = {
    "gap": [
        Opt("L", int, 4, "chain length"),
        Opt("filling", _p_fraction, Fraction(1, 2), "up-spin fraction (e.g. 1/2)"),
        Opt("n_up", int, None, "up-spin count; overrides filling"),
        Opt("J", float, 1.0, "bond coupling"),
    ],
    "compare": [
        Opt("L", int, 8, "fused chain length"),
        Opt("filling", _p_fraction, Fraction(1, 2), "up-spin fraction"),
        Opt("targets", _p_targets, (1e-3, 1e-4), "comma-separated infidelity targets"),
        Opt("J", float, 1.0, "bond coupling"),
        *_RODEO_OPTS,
        Opt("max_superiterations", int, _DEFAULTS.max_superiterations,
            "superiteration sweep cap"),
        *_SEARCH_OPTS,
        Opt("output", str, "-", "CSV path, or - for stdout"),
    ],
    "scan": [
        Opt("L", int, 2, "chain length"),
        Opt("filling", _p_fraction, Fraction(1, 2), "up-spin fraction"),
        Opt("n_up", int, None, "up-spin count; overrides filling"),
        Opt("J", float, 1.0, "bond coupling"),
        Opt("e_min", float, -2.0, "lowest target energy"),
        Opt("e_max", float, 2.0, "highest target energy"),
        Opt("points", int, 81, "grid points (inclusive endpoints)"),
        Opt("depth", int, 3, "cycle times per superiteration"),
        Opt("superiterations", int, 2, "superiteration count"),
        Opt("ratio", float, 0.5, "geometric ratio between successive cycle times"),
        Opt("initial", str, "neel",
            "input state: neel, ground, product, or config:<bits>"),
        Opt("expmv_tol", float, 1e-10, "propagator tolerance per application"),
        Opt("output", str, "-", "CSV path, or - for stdout"),
    ],
    "converge": [
        Opt("L", int, 8, "fused chain length"),
        Opt("filling", _p_fraction, Fraction(1, 2), "up-spin fraction"),
        Opt("method", _p_purifier, "hybrid", "rodeo or hybrid"),
        Opt("J", float, 1.0, "bond coupling"),
        *_RODEO_OPTS,
        Opt("m_max", int, 8, "largest superiteration count reported"),
        *_SEARCH_OPTS,
        Opt("output", str, "-", "CSV path, or - for stdout"),
    ],
    "fuse": [
        Opt("L_final", int, 8, "target chain length"),
        Opt("L_base", int, 2, "exactly prepared base chain length"),
        Opt("filling", _p_fraction, Fraction(1, 2), "up-spin fraction"),
        Opt("method", _p_method, "hybrid", "adiabatic, rodeo, or hybrid"),
        Opt("target", float, 1e-3, "per-level infidelity target"),
        Opt("level_policy", str, "uniform",
            "uniform: every level gets the target; budget: target split across levels"),
        Opt("J", float, 1.0, "bond coupling"),
        *_RODEO_OPTS,
        Opt("max_superiterations", int, _DEFAULTS.max_superiterations,
            "superiteration sweep cap"),
        *_SEARCH_OPTS,
        Opt("output", str, "-", "CSV path, or - for stdout"),
    ],
}


def _load_config_file(path: str) -> dict:
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = stripped.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return raw


def _resolve(command: str, args: argparse.Namespace) -> dict:
    opts = OPTIONS[command]
    known = {o.key: o for o in opts}
    values = {o.key: o.default for o in opts}
    if args.config is not None:
        for key, text in _load_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} for command {command}")
            try:
                values[key] = known[key].parse(text)
            except (ValueError, ZeroDivisionError) as err:
                raise ConfigError(f"bad value for {key!r}: {err}") from err
    for o in opts:
        text = getattr(args, o.key)
        if text is not None:
            try:
                values[o.key] = o.parse(text)
            except (ValueError, ZeroDivisionError) as err:
                raise ConfigError(f"bad value for --{o.key.replace('_', '-')}: {err}") from err
    return values


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return "auto"
    return str(value)


def _provenance(command: str, values: dict) -> str:
    parts = " ".join(f"{k}={_fmt(values[k])}" for k in sorted(values))
    return f"xxfusion {__version__} {command} {parts}"


def _write_csv(path: str, comments: list, header: str, rows: list) -> None:
    lines = [f"# {c}" for c in comments[:1]] + [header] + rows + [f"# {c}" for c in comments[1:]]
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _chain_pair(values: dict):
    """(H, lowest pair) of the gap and scan sector; ``n_up`` overrides ``filling``."""
    n_up = values["n_up"]
    if n_up is None:
        n_up = sector_occupancy(values["L"], values["filling"])
    return chain_pair(values["L"], n_up, values["J"])


#: CSV header of the columns :func:`_cost_columns` writes.
_COST_HEADER = "target_infidelity,achieved_infidelity,t_A,t_R,p,J_kappa,status"


def _cost_columns(r) -> list:
    """CSV columns from the target on of one :class:`StepRecord`."""
    costs = (r.target_infidelity, r.achieved_infidelity, r.t_A, r.t_R, r.p, r.J_kappa)
    return [*map(_fmt, costs), r.status]


def _fusion_config(v: dict, **per_command) -> FusionConfig:
    """FusionConfig from the settings every fusion command has, plus
    ``per_command`` fields (sweep cap, level policy)."""
    return FusionConfig(
        J=v["J"],
        depth=v["depth"],
        ratio=v["ratio"],
        precondition_infidelity=v["precondition"],
        T_start=v["t_start"],
        T_cap=v["t_cap"],
        bisections=v["bisections"],
        expmv_tol=v["expmv_tol"],
        step_tol=v["step_tol"],
        **per_command,
    )


def cmd_gap(values: dict) -> int:
    _, pair = _chain_pair(values)
    t1 = float(np.pi) / pair.gap
    for name, value in (("E0", pair.E0), ("E1", pair.E1), ("gap", pair.gap), ("t1", t1)):
        print(f"{name} = {_fmt(value)}")
    return 0


def cmd_compare(values: dict) -> int:
    config = _fusion_config(values, max_superiterations=values["max_superiterations"])
    records = compare_methods(values["L"], values["filling"], values["targets"], config=config)
    out = []
    failed = False
    for r in records:
        if r.status == "FAILED":
            failed = True
            print(f"FAILED {r.method} target={_fmt(r.target_infidelity)}: {r.message}",
                  file=sys.stderr)
        out.append(",".join([r.method, str(r.L), _fmt(values["filling"]), *_cost_columns(r)]))
    header = f"method,L,filling,{_COST_HEADER}"
    _write_csv(values["output"], [_provenance("compare", values)], header, out)
    return 1 if failed else 0


def _scan_initial(kind: str, basis, pair, J: float):
    if kind == "neel":
        config = sum(1 << i for i in range(0, basis.L, 2))
        try:
            return basis_state(basis, config)
        except ValueError as err:
            raise ConfigError(
                f"the alternating pattern has {bin(config).count('1')} up spins, "
                f"not n_up={basis.n_up}; choose initial=config:<bits>"
            ) from err
    if kind == "ground":
        return pair.ground
    if kind == "product":
        g = half_ground(basis.L, Fraction(basis.n_up, basis.L), J)
        return embed_product(g, g, basis=basis)
    if kind.startswith("config:"):
        bits = kind[len("config:"):]
        if len(bits) != basis.L or set(bits) - {"0", "1"}:
            raise ConfigError(f"config bits must be {basis.L} characters of 0/1")
        try:
            return basis_state(basis, int(bits, 2))
        except ValueError as err:
            raise ConfigError(f"configuration {bits} is not in the sector") from err
    raise ConfigError(f"unknown initial state {kind!r}")


def cmd_scan(values: dict) -> int:
    check_expmv_tol(values["expmv_tol"])
    if values["points"] < 2:
        raise ConfigError("need at least two grid points")
    if not np.isfinite([values["e_min"], values["e_max"]]).all():
        raise ConfigError(f"energy bounds must be finite, got {values['e_min']} "
                          f"and {values['e_max']}")
    H, pair = _chain_pair(values)
    times = make_schedule(
        pair.gap,
        depth=values["depth"],
        superiterations=values["superiterations"],
        ratio=values["ratio"],
    )
    v0 = _scan_initial(values["initial"], H.basis, pair, values["J"])
    try:
        grid = np.linspace(values["e_min"], values["e_max"], values["points"])
    except MemoryError as err:
        raise CapacityError(f"an energy grid of {values['points']} points does not fit "
                            f"in memory") from err
    results = energy_scan(v0, H, grid, times, tol=values["expmv_tol"])
    rows = [f"{_fmt(E)},{_fmt(p)},OK" for E, p in results]
    _write_csv(values["output"], [_provenance("scan", values)], "E_t,p_total,status", rows)
    return 0


def cmd_converge(values: dict) -> int:
    if values["m_max"] < 0:
        raise ConfigError(f"m_max={values['m_max']} must be nonnegative")
    config = _fusion_config(values, max_superiterations=values["m_max"])
    step = FusionStep.exact_halves(values["L"], values["filling"], config)
    start, t_A, _ = step.start(values["method"])
    rows = []
    for m, _, fid, p_total, t_R in step.sweep(start):
        J_kappa = config.J_kappa(values["method"], t_A, t_R, p_total)
        rows.append(f"{m},{_fmt(fid)},{_fmt(p_total)},{_fmt(J_kappa)},OK")
    header = "M,infidelity,p_total,J_kappa,status"
    _write_csv(values["output"], [_provenance("converge", values)], header, rows)
    return 0


def cmd_fuse(values: dict) -> int:
    config = _fusion_config(values, max_superiterations=values["max_superiterations"],
                            level_policy=values["level_policy"])
    _, records = run_fusion(values["L_final"], values["L_base"], values["filling"],
                            values["method"], values["target"], config=config)
    header = f"step,L,method,{_COST_HEADER}"
    comments = [_provenance("fuse", values)]
    failed = bool(records) and records[-1].status == "FAILED"
    if failed:
        print(f"FAILED: {records[-1].message}", file=sys.stderr)
    elif records:
        comments.append(f"cumulative_J_kappa = {_fmt(sum(r.J_kappa for r in records))}")
        comments.append(f"final_infidelity = {_fmt(records[-1].achieved_infidelity)}")
    rows = [",".join([str(i), str(r.L), r.method, *_cost_columns(r)])
            for i, r in enumerate(records, 1)]
    _write_csv(values["output"], comments, header, rows)
    return 1 if failed else 0


_COMMANDS = {
    "gap": (cmd_gap, "lowest two sector energies and the seeded cycle time"),
    "compare": (cmd_compare, "cost table across methods and infidelity targets"),
    "scan": (cmd_scan, "rodeo success probability over a target-energy grid"),
    "converge": (cmd_converge, "infidelity and cost versus superiteration count"),
    "fuse": (cmd_fuse, "multi-level fusion from exact base chains"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxfusion",
        description="Eigenstate preparation experiments on open XX chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for o in OPTIONS[name]:
            p.add_argument(
                f"--{o.key.replace('_', '-')}", dest=o.key, default=None,
                metavar="V", help=f"{o.help} (default {_fmt(o.default)})",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    impl = _COMMANDS[args.command][0]
    try:
        values = _resolve(args.command, args)
        return impl(values)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
