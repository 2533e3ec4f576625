"""Command-line driver: config resolution, CSV output, exit codes."""

import ast
import contextlib
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.propagate as propagate
import xxfusion.spectral as spectral
import xxfusion.spin_model as spin_model
from xxfusion import BondCouplings, CapacityError, build_hamiltonian, cli, enumerate_sector


def run(argv):
    return cli.main(argv)


def csv_body(text):
    """(provenance, header, data rows, trailing comments) of a CSV dump."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("# xxfusion ")
    data = [l for l in lines[1:] if not l.startswith("#")]
    trailing = [l for l in lines[1:] if l.startswith("#")]
    return lines[0], data[0], data[1:], trailing


# ------------------------------------------------------------------- gap


def test_gap_prints_spectral_numbers(capsys):
    assert run(["gap"]) == 0  # defaults: L=4, half filling
    got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(got["E0"]) == pytest.approx(-math.sqrt(5.0), rel=1e-11)
    assert float(got["E1"]) == pytest.approx(-1.0, rel=1e-11)
    assert float(got["gap"]) == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-11)
    assert float(got["t1"]) == pytest.approx(math.pi / (math.sqrt(5.0) - 1.0), rel=1e-11)


def test_gap_on_the_lanczos_route_matches_free_fermions(capsys):
    # dim 184,756: the energies are sums of single-particle levels
    assert run(["gap", "--L", "20"]) == 0
    got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    E0 = oracles.sector_ground_energy(20, 10)
    E1 = oracles.sector_first_excited_energy(20, 10)
    want = {"E0": E0, "E1": E1, "gap": E1 - E0, "t1": math.pi / (E1 - E0)}
    for name, value in want.items():
        assert float(got[name]) == pytest.approx(value, abs=1e-9), name


def test_gap_n_up_overrides_filling(capsys):
    assert run(["gap", "--L", "6", "--n-up", "1"]) == 0
    got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(got["E0"]) == pytest.approx(2.0 * math.cos(6.0 * math.pi / 7.0), rel=1e-11)


def test_gap_rejects_gapless_sector(capsys):
    assert run(["gap", "--L", "4", "--n-up", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_gap_is_not_refused_for_memory_it_never_allocates(monkeypatch, capsys):
    # gap --L 22 holds the 705,432 configurations and its levels, well
    # inside 16 MiB; the ground it never reads would need about 32 bytes a
    # configuration for its determinant fill, and only that read is refused
    assert run(["gap", "--L", "22"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: 16 * 2**20)
    assert run(["gap", "--L", "22"]) == 0
    assert capsys.readouterr().out == expected

    def no_det(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(np.linalg, "det", no_det)
    H = build_hamiltonian(enumerate_sector(22, 11), BondCouplings.uniform(22))
    pair = spectral.lowest_two(H)
    with pytest.raises(CapacityError, match="physical memory"):
        pair.ground


@pytest.mark.parametrize("argv", [["gap"], ["scan", "--initial", "product"]])
def test_zero_coupling_on_the_lanczos_route_is_a_degenerate_gap(argv, capsys):
    # dim 924
    assert run([*argv, "--L", "12", "--J", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: E1 - E0 = 0.000e+00 is degenerate at coupling scale 1.000e+00 (L=12, n_up=6)\n"
    )
    assert captured.out == ""


# ---------------------------------------------------------------- config


def test_config_file_sets_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 6  # six sites\nn_up = 1\n\n")
    assert run(["gap", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert run(["gap", "--config", str(cfg), "--n-up", "2"]) == 0
    second = capsys.readouterr().out
    assert first != second  # the flag overrode the file's n_up


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 4\nbogus = 1\n")
    assert run(["gap", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("L 4", "run.cfg:2: expected key = value"),
    ("L = four", "bad value for 'L'"),
])
def test_config_file_malformed_line(line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n{line}\n")
    assert run(["gap", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.out == ""


def test_config_file_missing(capsys):
    assert run(["gap", "--config", "/no/such/file.cfg"]) == 2


def test_bad_flag_value(capsys):
    assert run(["gap", "--L", "four"]) == 2
    assert "config error" in capsys.readouterr().err


def test_fraction_aliases(capsys):
    assert run(["gap", "--L", "8", "--filling", "quarter"]) == 0
    quarter = capsys.readouterr().out
    assert run(["gap", "--L", "8", "--filling", "1/4"]) == 0
    assert capsys.readouterr().out == quarter


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


# --------------------------------------------------------------- compare


def test_compare_csv_golden_L4(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--L", "4", "--output", str(out)]) == 0
    prov, header, rows, _ = csv_body(out.read_text())
    assert "compare" in prov and "L=4" in prov and "targets=0.001,0.0001" in prov
    assert header == (
        "method,L,filling,target_infidelity,achieved_infidelity,"
        "t_A,t_R,p,J_kappa,status"
    )
    assert len(rows) == 6
    cells = [r.split(",") for r in rows]
    assert [c[0] for c in cells] == ["adiabatic"] * 2 + ["rodeo"] * 2 + ["hybrid"] * 2
    assert all(c[-1] == "OK" for c in cells)
    assert [float(c[3]) for c in cells] == [1e-3, 1e-4] * 3  # loosest target first
    by_cell = {(c[0], float(c[3])): c for c in cells}
    assert float(by_cell[("adiabatic", 1e-3)][8]) == 9.0
    assert float(by_cell[("adiabatic", 1e-4)][8]) == 24.0
    assert float(by_cell[("rodeo", 1e-3)][8]) == pytest.approx(11.28670305305099, rel=1e-9)
    assert float(by_cell[("hybrid", 1e-3)][8]) == pytest.approx(7.600752346721518, rel=1e-9)


def test_compare_reruns_byte_identical(tmp_path):
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--L", "4", "--targets", "1e-2", "--output", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_compare_failed_cells_exit_1(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run(["compare", "--L", "4", "--targets", "1e-3", "--t-cap", "1", "--output", str(out)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    _, _, rows, _ = csv_body(out.read_text())
    status = {r.split(",")[0]: r.split(",")[-1] for r in rows}
    assert status == {"adiabatic": "FAILED", "rodeo": "OK", "hybrid": "FAILED"}
    failed = [r for r in rows if r.endswith("FAILED")]
    assert all(",nan," in r for r in failed)


# ------------------------------------------------------------------ scan


def test_scan_csv_stdout_golden(capsys):
    assert run(["scan"]) == 0  # defaults: L=2 neel input, 81 points on [-2, 2]
    prov, header, rows, _ = csv_body(capsys.readouterr().out)
    assert header == "E_t,p_total,status"
    assert len(rows) == 81
    table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert table[-1.0] == pytest.approx(0.5, abs=1e-12)
    assert table[1.0] == pytest.approx(0.5, abs=1e-12)
    assert max(table.values()) == pytest.approx(0.5, abs=1e-12)
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in table.values())


def test_scan_ground_input_is_transparent_at_E0(capsys):
    rc = run(["scan", "--initial", "ground", "--e-min", "-1", "--e-max", "1",
              "--points", "3"])
    assert rc == 0
    _, _, rows, _ = csv_body(capsys.readouterr().out)
    table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert table[-1.0] == pytest.approx(1.0, abs=1e-12)  # E_t = E0 exactly


def test_scan_explicit_configuration_input(capsys):
    rc = run(["scan", "--L", "4", "--n-up", "2", "--initial", "config:0110",
              "--points", "5"])
    assert rc == 0
    _, _, rows, _ = csv_body(capsys.readouterr().out)
    assert len(rows) == 5


def test_scan_product_input(capsys):
    assert run(["scan", "--L", "4", "--initial", "product", "--points", "3"]) == 0


@pytest.mark.parametrize(
    "argv", [["gap", "--L", "64", "--filling", "1/32"], ["scan", "--L", "64", "--n-up", "1"]]
)
def test_chain_longer_than_63_sites_exits_1(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: L=64 exceeds 63 sites")
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("sector", [["--L", "4"], ["--L", "12", "--n-up", "6"]])
def test_scan_rejects_nonpositive_expmv_tol(sector, tol, capsys):
    # below and above the dense cutoff alike
    assert run(["scan", *sector, "--initial", "product", "--expmv-tol", tol]) == 2
    captured = capsys.readouterr()
    assert "config error: expmv tolerance must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bound", [["--e-min", "nan"], ["--e-max", "inf"], ["--e-min=-inf"]])
def test_scan_rejects_nonfinite_energy_bounds(bound, capsys):
    assert run(["scan", "--L", "4", "--points", "3", *bound]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: energy bounds must be finite")
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["compare", "--L", "4", "--max-superiterations", "100000000000"], "rodeo schedule of"),
    (["converge", "--L", "4", "--m-max", "100000000000"], "rodeo schedule of"),
    (["scan", "--L", "4", "--superiterations", "100000000000"], "rodeo schedule of"),
    (["scan", "--L", "4", "--points", "100000000000"], "energy grid of 100000000000 points"),
])
def test_oversized_sizes_fail_typed_before_allocating(argv, message, capsys):
    # terabytes of cycle times or grid points: refused, not a MemoryError
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    if argv[0] == "compare":  # the adiabatic cells still run; the swept cells fail
        assert err.count("FAILED") == 4
    else:
        assert err.startswith("error: ")


def test_scan_ground_input_solves_the_sector_once(monkeypatch, capsys):
    argv = ["scan", "--L", "6", "--initial", "ground", "--points", "5"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    calls = []
    lowest_two = spectral.lowest_two

    def counted(H):
        calls.append(H.dim)
        return lowest_two(H)

    monkeypatch.setattr(spectral, "lowest_two", counted)
    assert run(argv) == 0
    assert calls == [20]
    assert capsys.readouterr().out == expected


def test_scan_initial_errors(capsys):
    assert run(["scan", "--L", "4", "--n-up", "1", "--initial", "neel"]) == 2
    assert run(["scan", "--initial", "config:01x"]) == 2
    assert run(["scan", "--initial", "plasma"]) == 2
    assert run(["scan", "--points", "1"]) == 2


# -------------------------------------------------------------- converge


def test_converge_csv_golden(capsys):
    assert run(["converge", "--m-max", "3"]) == 0  # L=8 hybrid defaults
    prov, header, rows, _ = csv_body(capsys.readouterr().out)
    assert header == "M,infidelity,p_total,J_kappa,status"
    cells = [r.split(",") for r in rows]
    assert [int(c[0]) for c in cells] == [0, 1, 2, 3]
    fid = [float(c[1]) for c in cells]
    # abs=0: approx's default absolute 1e-12 would pass any value this small
    assert fid[0] == pytest.approx(0.00915368550611, rel=1e-9, abs=0.0)
    assert fid[1] == pytest.approx(1.29877716518e-05, rel=1e-9, abs=0.0)
    assert fid[2] == pytest.approx(3.49170403039e-08, rel=1e-9, abs=0.0)
    assert fid[3] == pytest.approx(1.60682699403e-10, rel=1e-9, abs=0.0)
    # preconditioned start costs the ramp time only
    assert float(cells[0][3]) == 4.0
    assert float(cells[1][3]) == pytest.approx(13.1305440417, rel=1e-9)


def test_converge_rodeo_starts_from_raw_product(capsys):
    assert run(["converge", "--L", "4", "--method", "rodeo", "--m-max", "2"]) == 0
    _, _, rows, _ = csv_body(capsys.readouterr().out)
    cells = [r.split(",") for r in rows]
    assert float(cells[0][1]) == pytest.approx(0.1027864045000435, rel=1e-9)
    assert float(cells[0][3]) == 0.0  # no ramp, no cycles yet


def test_converge_validates_sector(capsys):
    assert run(["converge", "--L", "5"]) == 2
    assert run(["converge", "--L", "4", "--filling", "1/4"]) == 2


def test_converge_m_max_above_default_sweep_cap(capsys):
    # more rows than the fusion default of 64 superiterations
    assert run(["converge", "--L", "4", "--method", "rodeo", "--m-max", "70"]) == 0
    _, _, rows, _ = csv_body(capsys.readouterr().out)
    assert [int(r.split(",")[0]) for r in rows] == list(range(71))


def test_converge_m_max_zero_emits_only_the_start_row(capsys):
    assert run(["converge", "--L", "4", "--method", "rodeo", "--m-max", "0"]) == 0
    _, _, rows, _ = csv_body(capsys.readouterr().out)
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert cells[0] == "0"
    assert float(cells[1]) == pytest.approx(0.1027864045000435, rel=1e-9)


def test_converge_negative_m_max_is_a_config_error(capsys):
    assert run(["converge", "--m-max", "-1"]) == 2
    assert "m_max=-1" in capsys.readouterr().err


# ------------------------------------------------------------------ fuse


def test_fuse_csv_golden(capsys):
    assert run(["fuse"]) == 0  # hybrid ladder 2 -> 4 -> 8 at 1e-3
    prov, header, rows, trailing = csv_body(capsys.readouterr().out)
    assert header == ("step,L,method,target_infidelity,achieved_infidelity,"
                      "t_A,t_R,p,J_kappa,status")
    cells = [r.split(",") for r in rows]
    assert [(int(c[0]), int(c[1])) for c in cells] == [(1, 4), (2, 8)]
    assert all(c[-1] == "OK" for c in cells)
    assert float(cells[0][8]) == pytest.approx(7.60075234672, rel=1e-9)
    assert float(cells[1][8]) == pytest.approx(13.1284354666, rel=1e-9)
    comments = dict(
        c.lstrip("# ").split(" = ") for c in trailing
    )
    assert float(comments["cumulative_J_kappa"]) == pytest.approx(
        20.729187813285577, rel=1e-9
    )
    assert float(comments["final_infidelity"]) == pytest.approx(1.39914857759e-05, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["compare", "--L", "4"],
    ["fuse", "--L-final", "8"],
    ["converge", "--L", "4", "--m-max", "2"],
])
def test_negative_coupling_reports_the_same_costs(argv, capsys):
    # costs are |J| kappa: the sign of J changes no time and no probability
    out = {}
    for J in ("1", "-1"):
        assert run([*argv, "--J", J]) == 0
        _, header, rows, trailing = csv_body(capsys.readouterr().out)
        col = header.split(",").index("J_kappa")
        cumulative = [c for c in trailing if "J_kappa" in c]
        out[J] = [r.split(",")[col] for r in rows], cumulative
    assert out["-1"] == out["1"]
    assert all(float(k) >= 0.0 for k in out["1"][0])


@pytest.mark.parametrize("J", ["2", "0.25"])
@pytest.mark.parametrize("argv", [
    ["compare", "--L", "4"],
    ["fuse", "--L-final", "8"],
    ["converge", "--L", "8", "--m-max", "3"],
])
def test_power_of_two_coupling_scales_only_the_times(argv, J, capsys):
    # times run in units of 1/|J|, and a power of two scales them exactly:
    # t_A and t_R shrink by |J|, every other column and comment is unchanged
    out = {}
    for value in ("1", J):
        assert run([*argv, "--J", value]) == 0
        _, header, rows, trailing = csv_body(capsys.readouterr().out)
        out[value] = header.split(","), [r.split(",") for r in rows], trailing
    names, unit, unit_trailing = out["1"]
    _, scaled, scaled_trailing = out[J]
    assert scaled_trailing == unit_trailing
    assert len(scaled) == len(unit)
    for a, b in zip(unit, scaled):
        for name, x, y in zip(names, a, b, strict=True):
            if name in ("t_A", "t_R"):
                assert float(y) == pytest.approx(float(x) / float(J), rel=1e-11, abs=0)
            else:
                assert y == x, name


def test_fuse_failed_level_row_carries_its_own_target(capsys):
    # the budget policy splits 1e-3 over three levels; the L=8 level fails
    rc = run(["fuse", "--L-final", "16", "--L-base", "2", "--method", "adiabatic",
              "--target", "1e-3", "--level-policy", "budget", "--t-cap", "16"])
    assert rc == 1
    captured = capsys.readouterr()
    _, _, rows, trailing = csv_body(captured.out)
    assert rows[0].startswith("1,4,adiabatic,0.000333333333333,") and rows[0].endswith(",OK")
    assert rows[1].startswith("2,8,adiabatic,0.000333333333333,")
    assert rows[1].endswith(",nan,nan,nan,nan,FAILED")
    best = float(rows[1].split(",")[4])  # the best infidelity of the failed search
    assert "infidelity 3.333e-04" in captured.err and f"best {best:.3e}" in captured.err
    assert trailing == []


def test_fuse_failure_writes_partial_rows(tmp_path, capsys):
    out = tmp_path / "fuse.csv"
    rc = run(["fuse", "--method", "adiabatic", "--target", "3e-3",
              "--t-cap", "8", "--output", str(out)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    _, _, rows, trailing = csv_body(out.read_text())
    assert rows[0].split(",")[1] == "4" and rows[0].endswith("OK")
    assert rows[1].split(",")[1] == "8" and rows[1].endswith("FAILED")
    assert trailing == []  # no cumulative cost for a failed ladder


def test_fuse_failed_base_ground_without_steps_is_recorded_at_L_final(capsys):
    # L_final = L_base: no fusion step, and the 64-site chain is refused
    assert run(["fuse", "--L-final", "64", "--L-base", "64"]) == 1
    captured = capsys.readouterr()
    _, _, rows, trailing = csv_body(captured.out)
    assert rows == ["1,64,hybrid,0.001,nan,nan,nan,nan,nan,FAILED"]
    assert captured.err == "FAILED: L=64 exceeds 63 sites, the most a 64-bit configuration holds\n"
    assert trailing == []


def test_fuse_plan_validation_exit_codes(capsys):
    assert run(["fuse", "--L-final", "12", "--L-base", "2"]) == 2
    assert run(["fuse", "--L-final", "8", "--filling", "1/3"]) == 2


@pytest.mark.parametrize("target", ["nan", "5", "-1"])
@pytest.mark.parametrize("L_final", ["4", "8"], ids=["no-step", "one-step"])
def test_fuse_target_outside_unit_interval_is_a_config_error(L_final, target, capsys):
    # checked before the ladder, so also when it has no fusion step
    assert run(["fuse", "--L-final", L_final, "--L-base", "4", "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: target infidelity")
    assert "outside (0, 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["fuse", "--L-final", "4", "--method", "adiabatic", "--depth", "0", "--ratio", "7"],
     ["compare", "--L", "8", "--depth", "0"]],
)
def test_bad_rodeo_settings_exit_2_before_any_ramp(argv, monkeypatch, capsys):
    def no_ramp(*args, **kwargs):
        raise AssertionError("a ramp ran before the settings were checked")

    monkeypatch.setattr(propagate, "converged_ramp", no_ramp)
    assert run(argv) == 2
    assert "depth must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1", "1e300", "inf"])
@pytest.mark.parametrize("command", [["scan", "--L", "4"], ["compare", "--L", "4"],
                                     ["converge", "--L", "4"], ["fuse", "--L-final", "4"]])
def test_expmv_tol_of_one_or_more_is_a_config_error(command, tol, capsys):
    # a relative tolerance of 1 or more accepts the zero vector
    assert run([*command, "--expmv-tol", tol]) == 2
    captured = capsys.readouterr()
    assert "config error: expmv tolerance must be positive and below 1" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------- fuzz gate

#: Values every flag is also drawn from: zero, negative, nan, infinities,
#: huge, empty and malformed.
EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "100000000000", "", "x", "1/0"]

#: Edge values left out because their runs take seconds each: a huge
#: bisection count stops once the bracket has shrunk to one float, but
#: the fifty or so real halvings before that are each a ramp probe.
#: Targets and step tolerances are drawn only from ranges whose step
#: doubling converges in time (see CHANGES.md).
SLOW_EDGES = {"bisections": {"100000000000"}}

#: In-range values of each option, at chain lengths up to 8.  ``fuse``
#: always gets ``--L-final`` and goes to 4 sites at most: on a longer
#: adiabatic ladder, a level that barely meets its target leaves the next
#: level's ramps a floor above that target, and the search then runs to
#: the duration cap (minutes; see CHANGES.md).
SANE_VALUES = {
    "L": ["2", "3", "4", "6", "8"],
    "L_final": ["2", "4"],
    "L_base": ["1", "2", "4"],
    "filling": ["1/2", "1/4", "half", "quarter", "1/3"],
    "n_up": ["1", "2", "3"],
    "J": ["1", "-0.5", "2"],
    "targets": ["1e-2", "1e-3,1e-4", "0.5,1e-2", ","],
    "target": ["1e-2", "1e-3"],
    "method": ["adiabatic", "rodeo", "hybrid"],
    "level_policy": ["uniform", "budget"],
    "depth": ["1", "3", "8"],
    "ratio": ["0.25", "0.5", "1"],
    "precondition": ["0.1", "1e-2"],
    "max_superiterations": ["1", "4"],
    "m_max": ["0", "2"],
    "superiterations": ["0", "1", "2"],
    "t_start": ["0.5", "2"],
    "t_cap": ["1", "16", "1024"],
    "bisections": ["0", "2"],
    "expmv_tol": ["1e-8", "1e-10"],
    "step_tol": ["auto", "1e-3", "1e-4"],
    "e_min": ["-3", "0"],
    "e_max": ["0", "3"],
    "points": ["2", "5"],
    "initial": ["neel", "ground", "product", "config:0101", "config:1110", "config:01"],
}


@st.composite
def cli_argv(draw):
    """argv of one command with up to three of its flags set, each to an
    in-range value or an edge value with equal chance."""
    command = draw(st.sampled_from(sorted(cli.OPTIONS)))
    keys = [o.key for o in cli.OPTIONS[command] if o.key != "output"]
    argv = [command]
    flags = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    if command == "fuse" and "L_final" not in flags:
        flags.append("L_final")
    for key in flags:
        edges = [v for v in EDGE_VALUES if v not in SLOW_EDGES.get(key, ())]
        value = draw(st.sampled_from(SANE_VALUES[key]) | st.sampled_from(edges))
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def captured_run(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse's own
    exit is returned as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(cli_argv())
def test_every_outcome_is_a_documented_exit(argv):
    code, out, err = captured_run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code != 0:
        last = (err.splitlines() or [""])[-1]
        assert last.startswith(("config error:", "error:", "FAILED")), (argv, err)
    assert captured_run(argv)[1] == out, argv


def golden_config_errors():
    """The invocations ``scripts/golden_outputs.py`` lists under exit 2."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INVOCATIONS[2]


@pytest.mark.parametrize("text", golden_config_errors())
def test_golden_config_errors_exit_2(text):
    code, _, err = captured_run(text.split())
    assert code == 2
    assert err.splitlines()[-1].startswith("config error:")


# ------------------------------------------------------------- structure


def test_cli_import_leaves_out_scipy_sparse_linalg():
    # a fresh interpreter, so no other test's imports count
    code = "import sys, xxfusion.cli; print('scipy.sparse.linalg' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "xxfusion")
        for alias in node.names
        # dunders such as __version__ are public by convention
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
