import csv
import dataclasses
import io
import json
import math

import pytest

from tribessel.cli import _SPEC_HEADER, main
from tribessel.triple import IntegralSpec, eval_definite, eval_indefinite

THREE_PI_8 = "1.178097245096"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SINC3 = ["--n", "0", "--m", "0", "--h", "0", "--k", "0", "--l", "0",
         "--alpha", "1", "--beta", "1", "--mu", "1"]


# --- eval -----------------------------------------------------------------

def test_eval_definite_benchmark(capsys):
    code, out, _ = run(capsys, ["eval", *SINC3, "--definite"])
    assert code == 0
    assert THREE_PI_8 in out
    assert "method" in out and "err_estimate" in out


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, ["eval", *SINC3, "--definite",
                                "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"spec", "value", "method", "err_estimate", "status"}
    assert row["spec"]["alpha"] == 1.0
    assert math.isclose(row["value"], 3 * math.pi / 8, rel_tol=1e-10)
    assert row["status"] == "ok"


def test_eval_zero_frequency_exits_2(capsys):
    code, _, err = run(capsys, ["eval", "--n", "0", "--m", "1", "--h", "0",
                                "--k", "0", "--l", "0", "--alpha", "0",
                                "--beta", "1", "--mu", "1", "--definite"])
    assert code == 2
    assert "nonzero" in err


def test_eval_divergent_exits_2(capsys):
    code, _, err = run(capsys, ["eval", "--n", "2", "--m", "0", "--h", "0",
                                "--k", "0", "--l", "0", "--alpha", "1",
                                "--beta", "1", "--mu", "1", "--definite"])
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--x", "1e-300"],
    ["sweep", "--x", "1e-300"],
    ["compare", "--x-lo", "1e-300", "--x-hi", "1"],
])
def test_overflow_exits_2_with_one_line(capsys, argv):
    # the reduced x^-11 term's antiderivative x^-10 overflows at x = 1e-300:
    # eval exits 2 with one line; sweep and compare report the row instead
    code, out, err = run(capsys, [*argv, "--n", "0", "--m", "0", "--h", "0",
                                  "--k", "0", "--l", "8", "--alpha", "1",
                                  "--beta", "1", "--mu", "1",
                                  "--format", "json"])
    if argv[0] == "eval":
        assert code == 2
        assert out == ""
        assert err.startswith("tribessel: cannot evaluate: ")
        assert err.count("\n") == 1
    else:
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert row["status"] == "cannot-evaluate"
        assert [v for key, v in row.items()
                if key not in ("spec", "status")] == [None, None, None]


@pytest.mark.parametrize("argv", [
    ["sweep", "--x", "1e-300"],
    ["compare", "--x-lo", "1e-300", "--x-hi", "1"],
])
def test_overflow_in_one_row_keeps_the_grid(capsys, argv):
    # at x = 1e-300 only the l = 8 row overflows (its x^-8 antiderivative)
    code, out, err = run(capsys, [*argv, "--n", "2", "--m", "1", "--h", "0",
                                  "--k", "0", "--l", "0,8", "--alpha", "1",
                                  "--beta", "1", "--mu", "1",
                                  "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [r["spec"]["l"] for r in rows] == [0, 8]
    assert [r["status"] for r in rows] == [
        "ok" if argv[0] == "sweep" else "pass", "cannot-evaluate"]


@pytest.mark.parametrize("order", ["nan", "inf", "-inf"])
def test_non_finite_order_is_usage_error(capsys, order):
    with pytest.raises(SystemExit) as exc:
        main(["eval", f"--h={order}", "--k", "0", "--l", "0", "--n", "0",
              "--m", "1", "--alpha", "1", "--beta", "1", "--mu", "1",
              "--x", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.endswith(f"--h takes integer orders, got {order}\n")


def test_eval_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", *SINC3])  # neither --x nor --definite
    capsys.readouterr()
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_x_and_definite_together_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *SINC3, "--x", "2", "--definite"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.endswith("--x and --definite are mutually exclusive\n")


def test_eval_interval_matches_compare(capsys):
    base = ["--n", "3", "--m", "1", "--h", "1", "--k", "0", "--l", "0",
            "--alpha", "1", "--beta", "1", "--mu", "1"]
    _, hi, _ = run(capsys, ["eval", *base, "--x", "2"])
    _, lo, _ = run(capsys, ["eval", *base, "--x", "1"])
    diff = float(hi.splitlines()[0].split()[1]) - \
        float(lo.splitlines()[0].split()[1])
    code, out, _ = run(capsys, ["compare", *base, "--x-lo", "1", "--x-hi", "2",
                                "--format", "csv"])
    assert code == 0
    closed = float(out.splitlines()[1].split(",")[9])
    assert math.isclose(diff, closed, rel_tol=1e-12)


# --- compare ----------------------------------------------------------------

def test_compare_grid_passes(capsys):
    code, out, _ = run(capsys, ["compare", "--n", "0,1,2", "--m", "1",
                                "--h", "0", "--k", "0", "--l", "0",
                                "--alpha", "1", "--beta", "1", "--mu", "1",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("closed_form,oracle,abs_diff,status")
    assert len(lines) == 4
    assert all(line.endswith(",pass") for line in lines[1:])


def test_compare_divergent_row_is_status_not_crash(capsys):
    code, out, _ = run(capsys, ["compare", "--n", "2", "--m", "0,1",
                                "--h", "0", "--k", "0", "--l", "0",
                                "--alpha", "1", "--beta", "1.1", "--mu", "0.9",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.endswith("divergent-precondition") for line in lines[1:])
    assert any(line.endswith(",pass") for line in lines[1:])


def test_compare_rejected_spec_is_status_row(capsys):
    # m = 1 with --m-imaginary is no valid spec; the m = 0 row still runs
    code, out, _ = run(capsys, ["compare", "--n", "0", "--m", "0,1",
                                "--m-imaginary", "--h", "0", "--k", "0",
                                "--l", "0", "--alpha", "1", "--beta", "1.1",
                                "--mu", "0.9", "--x-lo", "1", "--x-hi", "2",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith(",pass")
    assert lines[2] == ("0.000000000000e+00,1.000000000000e+00,0,0,0,"
                        "1.000000000000e+00,1.100000000000e+00,"
                        "9.000000000000e-01,true,,,,divergent-precondition")


def test_compare_interval_imaginary_weight_keeps_imaginary_part(
        capsys, monkeypatch):
    argv = ["compare", "--n", "1", "--m", "0", "--m-imaginary", "--h", "1",
            "--k", "0", "--l", "0", "--alpha", "1.2", "--beta", "0.8",
            "--mu", "2", "--x-lo", "1", "--x-hi", "2", "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    # both sides are 0.0238945...-0.0200391...j
    assert row[9].startswith("2.389454124") and row[9].endswith("j")
    assert "-2.003912767" in row[9]
    assert row[10].startswith("2.389454124") and "-2.003912767" in row[10]
    assert float(row[11]) < 1e-12 and row[12] == "pass"

    # a closed form with the wrong sign of its imaginary part must fail
    def conjugated(spec, x):
        res = eval_indefinite(spec, x)
        return dataclasses.replace(res, value=res.value.conjugate())

    monkeypatch.setattr("tribessel.cli.eval_indefinite", conjugated)
    code, out, _ = run(capsys, argv)
    assert code == 3
    row = out.strip().splitlines()[1].split(",")
    assert math.isclose(float(row[11]), 2 * 0.0200391276706696, rel_tol=1e-9)
    assert row[12] == "fail"


def test_compare_empty_grid_header_only(capsys):
    code, out, _ = run(capsys, ["compare", "--n", "", "--m", "1", "--h", "0",
                                "--k", "0", "--l", "0", "--alpha", "1",
                                "--beta", "1", "--mu", "1", "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_compare_failing_row_exits_3(capsys):
    code, out, _ = run(capsys, ["compare", "--n", "0", "--m", "1", "--h", "0",
                                "--k", "0", "--l", "0", "--alpha", "1",
                                "--beta", "1", "--mu", "1",
                                "--pass-abs-tol", "1e-18",
                                "--pass-rel-tol", "1e-17", "--format", "csv"])
    assert code == 3
    assert out.strip().splitlines()[-1].endswith(",fail")


@pytest.mark.parametrize("x_hi", ["1", "2", "inf"])
def test_compare_interval_needs_finite_x_hi_above_x_lo(capsys, x_hi):
    with pytest.raises(SystemExit) as exc:
        main(["compare", *SINC3, "--x-lo", "2", "--x-hi", x_hi])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.endswith("--x-hi must be finite and > --x-lo\n")


def test_compare_damped_tail_past_the_cap_is_cannot_evaluate(capsys):
    code, out, _ = run(capsys, ["compare", "--n", "0", "--m", "1e-9,1e-300,1",
                                "--h", "0", "--k", "0", "--l", "0",
                                "--alpha", "1", "--beta", "1", "--mu", "1",
                                "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [
        "cannot-evaluate", "cannot-evaluate", "pass"]


# --- sweep ------------------------------------------------------------------

def test_sweep_grid_and_range_syntax(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "1:3:3", "--m", "0.5",
                                "--h", "0,1", "--k", "0", "--l", "0",
                                "--alpha", "1", "--beta", "1", "--mu", "1",
                                "--definite", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 2
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_marks_divergent_rows(capsys):
    # leading dash needs the --flag=value spelling
    code, out, _ = run(capsys, ["sweep", "--n=-2,1", "--m", "1",
                                "--h", "0", "--k", "0", "--l", "0",
                                "--alpha", "1", "--beta", "1", "--mu", "1",
                                "--definite", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("divergent-precondition")
    assert lines[2].endswith(",ok")


def test_sweep_rejected_spec_is_status_row(capsys):
    # alpha = 0 is no valid spec; its row keeps the grid values it was given
    code, out, _ = run(capsys, ["sweep", "--n", "0", "--m", "1",
                                "--h", "0", "--k", "0", "--l", "0",
                                "--alpha", "0,1", "--beta", "1", "--mu", "1",
                                "--definite", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1] == ("0.000000000000e+00,1.000000000000e+00,0,0,0,"
                        "0.000000000000e+00,1.000000000000e+00,"
                        "1.000000000000e+00,false,,,,divergent-precondition")
    assert lines[2].endswith(",ok")


OVERFLOW_ARGS = ["--n", "0", "--m", "1e308", "--h", "0", "--k", "0",
                 "--l", "0", "--alpha", "1", "--beta", "1", "--mu", "1",
                 "--x", "1e308"]


def test_sweep_overflow_is_cannot_evaluate(capsys):
    # every input is valid; -c*x overflows inside the antiderivative
    code, out, _ = run(capsys, ["sweep", *OVERFLOW_ARGS, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",false,,,,cannot-evaluate")


def test_eval_overflow_exits_2_cannot_evaluate(capsys):
    code, _, err = run(capsys, ["eval", *OVERFLOW_ARGS])
    assert code == 2
    assert err.startswith("tribessel: cannot evaluate: ")
    assert "exceeds double-precision range" in err


def test_eval_non_finite_definite_exits_2(capsys):
    # frequencies of 1e-120 overflow the reduction's coefficients to NaN
    code, out, err = run(capsys, [
        "eval", "--n", "0.5", "--m", "1", "--h", "0", "--k", "0", "--l", "0",
        "--alpha", "1e-120", "--beta", "1e-120", "--mu", "1e-120",
        "--definite"])
    assert (code, out) == (2, "")
    assert err.startswith("tribessel: cannot evaluate: closed-form terms overflow")


def test_sweep_non_finite_row_is_cannot_evaluate(capsys):
    # Gamma(p+1) w^-(p+1) overflows to inf at n = 170.5; the n = 0.5 row stays
    code, out, err = run(capsys, [
        "sweep", "--n", "0.5,170.5", "--m", "0.5", "--h", "0", "--k", "0",
        "--l", "0", "--alpha", "1", "--beta", "1.2", "--mu", "0.7",
        "--definite", "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [r["status"] for r in rows] == ["ok", "cannot-evaluate"]
    assert [rows[1][key] for key in ("value", "method", "err_estimate")] == [
        None, None, None]


@pytest.mark.parametrize("mode,fmt", [
    (["--definite", "--m", "0,1", "--n", "0,0.5,1"], "csv"),
    (["--x", "2.5", "--m", "1", "--n", "0,1"], "csv"),
    (["--x", "3", "--m", "0", "--m-imaginary", "--n", "0,1,2"], "json"),
], ids=["definite", "antiderivative", "imaginary"])
def test_sweep_err_estimate_covers_printed_digits(capsys, mode, fmt):
    """Each row's err_estimate bounds the library's own bar plus the
    distance from the library value to the printed one."""
    code, out, _ = run(capsys, ["sweep", *mode, "--h", "0:8:5", "--k", "1,8",
                                "--l", "3", "--alpha", "1.2", "--beta", "0.8",
                                "--mu", "2", "--format", fmt])
    assert code == 0
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        specs = [{k: row[k] for k in _SPEC_HEADER} for row in rows]
    else:
        rows = json.loads(out)
        specs = [row["spec"] for row in rows]
    checked = 0
    for row, sp in zip(rows, specs):
        if row["status"] != "ok":
            continue
        spec = IntegralSpec(
            **{k: int(sp[k]) if k in "hkl" else float(sp[k])
               for k in ("n", "m", "h", "k", "l", "alpha", "beta", "mu")},
            m_imaginary=str(sp["m_imaginary"]).lower() == "true")
        res = (eval_definite(spec) if "--definite" in mode
               else eval_indefinite(spec, float(mode[1])))
        printed = complex(row["value"])
        assert abs(res.value - printed) + res.err_estimate <= float(
            row["err_estimate"])
        checked += 1
    assert checked >= 20


# --- ei-table ----------------------------------------------------------------

def test_ei_table_default_grid(capsys):
    code, out, _ = run(capsys, ["ei-table", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,ei"
    assert len(lines) == 1 + 160  # x = 0 excluded from the 161-point grid
    row_x1 = [ln for ln in lines if ln.startswith("1.000000000000e+00,")]
    assert row_x1 == ["1.000000000000e+00,1.895117816356e+00"]
    for line in lines[1:]:
        x, v = (float(c) for c in line.split(","))
        if x < 0:
            assert v < 0


def test_ei_table_rejects_empty_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ei-table", "--x-min", "0", "--x-max", "0", "--count", "1"])
    capsys.readouterr()
    assert exc.value.code == 1


# --- errata -------------------------------------------------------------------

def test_errata_text_report(capsys):
    code, out, _ = run(capsys, ["errata"])
    assert code == 0
    assert "entries" in out.splitlines()[0]
    assert out.count("printed value") >= 8


def test_errata_json(capsys):
    code, out, _ = run(capsys, ["errata", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 8
    assert all("ident" in r and "printed_abs_err" in r for r in rows)


# --- output plumbing ------------------------------------------------------------

def test_byte_identical_reruns(capsys):
    _, a, _ = run(capsys, ["compare", "--n", "0,1", "--m", "1", "--h", "0",
                           "--k", "0", "--l", "0", "--alpha", "1",
                           "--beta", "1", "--mu", "1", "--format", "json"])
    _, b, _ = run(capsys, ["compare", "--n", "0,1", "--m", "1", "--h", "0",
                           "--k", "0", "--l", "0", "--alpha", "1",
                           "--beta", "1", "--mu", "1", "--format", "json"])
    assert a == b


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=0\nm=0\nh=0\nk=0\nl=0\nalpha=1\nbeta=1\nmu=1\n"
                   "definite=true\n")
    code, out, _ = run(capsys, ["eval", "--config", str(cfg)])
    assert code == 0
    assert THREE_PI_8 in out
    code, out2, _ = run(capsys, ["eval", "--config", str(cfg), "--m", "1"])
    assert code == 0
    assert THREE_PI_8 not in out2


def test_config_value_may_start_with_dash(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = -0.5,1\nm = 1\nh = 0\nk = 1\nl = 0\nalpha = 1.2\n"
                   "beta = 0.8\nmu = 2\ndefinite = true\n")
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0, err
    _, want, _ = run(capsys, ["sweep", "--n=-0.5,1", "--m", "1", "--h", "0",
                              "--k", "1", "--l", "0", "--alpha", "1.2",
                              "--beta", "0.8", "--mu", "2", "--definite"])
    assert out == want
    assert len(out.splitlines()) == 3


def test_config_equals_form_reads_the_file(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n=0\nm=1\nh=0\nk=0\nl=0\nalpha=1\nbeta=1\nmu=1\n"
                   "definite = true\n")
    code, want, _ = run(capsys, ["eval", "--config", str(cfg)])
    assert code == 0
    code, out, err = run(capsys, ["eval", f"--config={cfg}"])
    assert code == 0, err
    assert out == want


def test_output_file_resolves_against_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TRIBESSEL_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, ["ei-table", "--count", "3", "--format", "csv",
                                "--output", "table.csv"])
    assert code == 0
    assert out == ""
    text = (tmp_path / "table.csv").read_text()
    assert text.startswith("x,ei")
