"""Examples stay runnable: syntax/compile checks for all, plus execution
of the fast ones (the slow synthesis demos are exercised by benchmarks)."""

import pathlib
import py_compile
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 5


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


def test_abr_example_runs(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "abr_streaming.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "STALLS" in out
    assert "provably stall-free: True" in out


def test_fairness_example_runs(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "fairness_analysis.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "PROVED" in out
    assert "starvation trace found" in out


def test_simulate_example_runs(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "simulate_synthesized.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "rocc" in out
    assert "max_waste" in out


def test_conditional_example_runs(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "conditional_synthesis.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "REFUTED" in out
    assert "PROVED correct" in out
    assert "synthesized:" in out
