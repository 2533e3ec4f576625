"""Command-line driver: config resolution, CSV output, exit codes."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import xxfusion.propagate as propagate
import xxfusion.spectral as spectral
from xxfusion import cli


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


def test_gap_n_up_overrides_filling(capsys):
    assert run(["gap", "--L", "6", "--n-up", "1"]) == 0
    got = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(got["E0"]) == pytest.approx(2.0 * math.cos(6.0 * math.pi / 7.0), rel=1e-11)


def test_gap_rejects_gapless_sector(capsys):
    assert run(["gap", "--L", "4", "--n-up", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_gap_lanczos_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "eigsh", functools.partial(spectral.eigsh, maxiter=1))
    assert run(["gap", "--L", "12"]) == 1  # dim 924 goes through Lanczos
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Lanczos did not converge")
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


def test_scan_ground_input_solves_the_sector_once(monkeypatch, capsys):
    argv = ["scan", "--L", "6", "--initial", "ground", "--points", "5"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    calls = []

    def counted(H):
        calls.append(H.dim)
        return spectral.lowest_two(H)

    monkeypatch.setattr(cli, "lowest_two", counted)
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
    assert fid[0] == pytest.approx(0.00915368550611, rel=1e-9)
    assert fid[1] == pytest.approx(1.29877716518e-05, rel=1e-9)
    assert fid[2] == pytest.approx(3.49170407032e-08, rel=1e-9)
    assert fid[3] == pytest.approx(1.60683244488e-10, rel=1e-6)
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


def test_fuse_plan_validation_exit_codes(capsys):
    assert run(["fuse", "--L-final", "12", "--L-base", "2"]) == 2
    assert run(["fuse", "--L-final", "8", "--filling", "1/3"]) == 2


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


# ------------------------------------------------------------- structure


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
