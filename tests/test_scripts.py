"""Smoke runs of the experiment scripts at their smallest sizes."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from xxfusion.cli import OPTIONS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, monkeypatch, module=None):
    module = module or load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_ramp_scaling_smallest_chain(monkeypatch, capsys):
    argv = ["--L", "4", "--targets", "1e-2,1e-3"]
    assert run_script("ramp_scaling", argv, monkeypatch) == 0
    lines = [l.split() for l in capsys.readouterr().out.splitlines()
             if not l.startswith("#")]
    assert lines[0] == ["target", "T_A", "achieved", "steps"]
    found = {float(c[0]): (float(c[1]), c[2]) for c in lines[1:]}
    assert found == {1e-2: (2.5, "4.970262e-03"), 1e-3: (9.0, "3.714411e-05")}


def test_compare_costs_smallest_grid(tmp_path, monkeypatch):
    argv = ["--sizes", "4", "--fillings", "1/2", "--outdir", str(tmp_path)]
    assert run_script("compare_costs", argv, monkeypatch) == 0
    (out,) = tmp_path.iterdir()
    assert out.name == "compare_L4_f1of2.csv"
    assert out.read_text().startswith("# xxfusion ")


def test_fusion_ladder_smallest_ladder(tmp_path, monkeypatch):
    argv = ["--L-final", "4", "--outdir", str(tmp_path)]
    assert run_script("fusion_ladder", argv, monkeypatch) == 0
    outs = sorted(tmp_path.iterdir())
    assert [p.name for p in outs] == [
        "fuse_L4_adiabatic.csv", "fuse_L4_hybrid.csv", "fuse_L4_rodeo.csv",
    ]
    assert all(p.read_text().startswith("# xxfusion ") for p in outs)


def test_golden_outputs_one_short_invocation(tmp_path, monkeypatch):
    module = load_script("golden_outputs")
    monkeypatch.setattr(module, "INVOCATIONS", {0: ["gap --L 4"], 2: ["gap --L 4 --n-up 0"]})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert run_script("golden_outputs", [str(tmp_path)], monkeypatch, module) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gap_L_4", "gap_L_4_n-up_0", "settings"]
    settings = dict(line.split("=") for line in (tmp_path / "settings").read_text().splitlines())
    assert settings["OPENBLAS_NUM_THREADS"] == "1" and settings["OMP_NUM_THREADS"] == "unset"
    assert set(settings) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "numpy", "scipy"}
    assert settings["numpy"] == np.__version__ and settings["scipy"] == scipy.__version__
    ok, bad = tmp_path / "gap_L_4", tmp_path / "gap_L_4_n-up_0"
    assert (ok / "stdout").read_text().startswith("E0 = -2.2360679775")
    assert (ok / "stderr").read_text() == ""
    assert (ok / "exit_code").read_text() == "0\n"
    assert (bad / "stdout").read_text() == ""
    assert (bad / "stderr").read_text().startswith("config error: ")
    assert (bad / "exit_code").read_text() == "2\n"


def test_golden_outputs_cover_every_command_and_exit_code():
    invocations = load_script("golden_outputs").INVOCATIONS
    assert set(invocations) == {0, 1, 2}
    assert {text.split()[0] for texts in invocations.values() for text in texts} == set(OPTIONS)


def test_golden_outputs_flag_an_unexpected_exit_code(tmp_path, monkeypatch, capsys):
    module = load_script("golden_outputs")
    monkeypatch.setattr(module, "INVOCATIONS", {0: ["gap --L 4 --n-up 0"]})
    assert run_script("golden_outputs", [str(tmp_path)], monkeypatch, module) == 1
    assert "(exit 2, expected 0)" in capsys.readouterr().out
    assert (tmp_path / "gap_L_4_n-up_0" / "exit_code").read_text() == "2\n"


def golden_tree(root, stdout, code="0\n"):
    run_dir = root / "compare_L_4"
    run_dir.mkdir(parents=True)
    (root / "settings").write_text("OPENBLAS_NUM_THREADS=1\n")
    (run_dir / "stdout").write_text(stdout)
    (run_dir / "stderr").write_text("")
    (run_dir / "exit_code").write_text(code)
    return root


ROWS = ("# xxfusion 0.1.0 compare L=4\nmethod,L,achieved_infidelity,t_A,status\n"
        "adiabatic,4,{},{},{}\n# final_infidelity = {}\n")


@pytest.mark.parametrize("after, code, status, moved", [
    (("4.25575855398e-05", 2.5, "OK", "1e-3"), "0\n", 0, "achieved_infidelity"),
    (("4.25575855403e-05", 2.5, "FAILED", "1e-3"), "0\n", 1, "status"),
    (("4.25575855403e-05", 2.5, "OK", "1e-3"), "1\n", 1, "exit_code"),
    (("4.25575855403e-05", 2.75, "OK", "1e-3"), "0\n", 1, "t_A"),
    (("4.25575855403e-05", 2.5, "OK", "1.1e-3"), "0\n", 1, "final_infidelity"),
    (("nan", 2.5, "OK", "1e-3"), "0\n", 1, "achieved_infidelity"),
], ids=["roundoff", "status", "exit-code", "t_A", "comment-value", "nan"])
def test_golden_diff_passes_only_small_numeric_moves(tmp_path, monkeypatch, capsys,
                                                      after, code, status, moved):
    before = golden_tree(tmp_path / "before", ROWS.format("4.25575855403e-05", 2.5, "OK", "1e-3"))
    changed = golden_tree(tmp_path / "after", ROWS.format(*after), code)
    assert run_script("golden_diff", [str(before), str(changed)], monkeypatch) == status
    (line, summary) = capsys.readouterr().out.splitlines()
    assert moved in line and summary.startswith(f"[golden_diff] {status} difference")
    if status == 0:
        assert line.endswith("achieved_infidelity: 4.25575855403e-05 -> "
                             "4.25575855398e-05 (rel 1.17e-11)")


def test_golden_diff_flags_a_missing_file(tmp_path, monkeypatch, capsys):
    before = golden_tree(tmp_path / "before", "E0 = -1\n")
    after = golden_tree(tmp_path / "after", "E0 = -1\n")
    (after / "compare_L_4" / "stderr").unlink()
    assert run_script("golden_diff", [str(before), str(after)], monkeypatch) == 1
    assert "compare_L_4/stderr: only in" in capsys.readouterr().out
