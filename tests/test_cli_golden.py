"""Golden stdout: CLI output must stay byte-identical across refactors.

The files under tests/data/ hold the stdout and exit code of each run below.
Regenerate them only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from tribessel.cli import main

DATA = pathlib.Path(__file__).with_name("data")

GOLDEN_RUNS = {
    "compare_damped": [
        "compare", "--n", "0,1", "--m", "1", "--h", "0,4,8", "--k", "0,8",
        "--l", "0,8", "--alpha", "1.2", "--beta", "0.8", "--mu", "2"],
    "compare_undamped": [
        "compare", "--n", "0,0.5,1", "--m", "0", "--h", "0,1", "--k", "0",
        "--l", "2", "--alpha", "1", "--beta", "0.8", "--mu", "1.5",
        "--format", "json"],
    "compare_interval": [
        "compare", "--n", "0,1,2", "--m", "1", "--h", "8", "--k", "8",
        "--l", "8", "--alpha", "1.2", "--beta", "0.8", "--mu", "2",
        "--x-lo", "4", "--x-hi", "9", "--format", "json"],
    "compare_exponential_bound": [
        "compare", "--n", "0,0.5", "--m", "0", "--h", "0", "--k", "0,1",
        "--l", "0", "--alpha", "1.3", "--beta", "1.1", "--mu", "1.5",
        "--tail-policy", "exponential_bound", "--format", "json"],
    "errata": ["errata"],
    "sweep_definite": [
        "sweep", "--n", "0,0.5,1,2,2.5", "--m", "0,1", "--h", "2", "--k", "1",
        "--l", "3", "--alpha", "1.2", "--beta", "0.8", "--mu", "2",
        "--definite", "--format", "csv"],
    "sweep_imaginary": [
        "sweep", "--n", "0,1,2", "--m", "0", "--m-imaginary", "--h", "1",
        "--k", "2", "--l", "0", "--alpha", "1.2", "--beta", "0.8", "--mu", "2",
        "--x", "3", "--format", "json"],
    "sweep_many_shapes": [
        "sweep", "--n", "0,1", "--m", "1", "--h", "0:8:9", "--k", "0,8",
        "--l", "3", "--alpha", "1.2", "--beta", "0.8", "--mu", "2",
        "--x", "2.5"],
    "errata_json": ["errata", "--format", "json"],
    "eval_imaginary_json": [
        "eval", "--n", "1", "--m", "0", "--m-imaginary", "--h", "1",
        "--k", "2", "--l", "0", "--alpha", "1.2", "--beta", "0.8", "--mu", "2",
        "--x", "3", "--format", "json"],
    "eval_csv": [
        "eval", "--n", "1", "--m", "1", "--h", "2", "--k", "1", "--l", "3",
        "--alpha", "1.2", "--beta", "0.8", "--mu", "2", "--definite",
        "--format", "csv"],
    "ei_table_json": [
        "ei-table", "--x-min", "-8", "--x-max", "8", "--count", "9",
        "--format", "json"],
    "errata_csv": ["errata", "--format", "csv"],
    "compare_failing": [
        "compare", "--n", "0,1", "--m", "1", "--h", "0", "--k", "0",
        "--l", "0,2", "--alpha", "1", "--beta", "1", "--mu", "1",
        "--pass-abs-tol", "1e-18", "--pass-rel-tol", "1e-17"],
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_stdout_matches_golden(name):
    want = (DATA / f"cli_{name}.txt").read_text()
    assert _run(GOLDEN_RUNS[name]) == want


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, argv in GOLDEN_RUNS.items():
        (DATA / f"cli_{name}.txt").write_text(_run(argv))
