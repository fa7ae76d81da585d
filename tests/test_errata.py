import os
import subprocess
import sys
from pathlib import Path

import tribessel
from tribessel.errata import build_errata


def test_enough_entries():
    assert len(build_errata()) >= 8


def test_every_entry_is_a_valid_demonstration():
    # corrected form must match the reference, printed form must miss it
    for e in build_errata():
        assert e.corrected_abs_err <= e.demo_tol, e.ident
        assert e.printed_abs_err > e.demo_tol, e.ident


def test_printed_misses_by_a_clear_margin():
    for e in build_errata():
        assert e.printed_abs_err > 3 * e.demo_tol, e.ident


def test_deterministic_order_and_unique_idents():
    a = [e.ident for e in build_errata()]
    b = [e.ident for e in build_errata()]
    assert a == b
    assert len(set(a)) == len(a)


def test_contains_the_flagship_entries():
    idents = {e.ident for e in build_errata()}
    assert "triple-sine-identity" in idents
    assert "neumann-zero-sign" in idents
    assert "ode-centrifugal-sign" in idents
    assert "semi-infinite-arctan-argument" in idents
    assert "semi-infinite-missing-quarter" in idents


def test_sine_identity_order_unity_residual():
    entry = next(e for e in build_errata() if e.ident == "triple-sine-identity")
    # the printed identity misses the product by an order-unity amount
    assert entry.printed_abs_err > 0.5
    assert entry.corrected_abs_err < 1e-12


def test_entries_fully_populated():
    for e in build_errata():
        assert e.ident and e.context and e.printed and e.corrected and e.point


def test_package_and_cli_import_leave_errata_unloaded():
    src = str(Path(tribessel.__file__).resolve().parents[1])
    code = (
        "import sys, tribessel, tribessel.cli\n"
        "assert 'tribessel.errata' not in sys.modules, 'loaded eagerly'\n"
        "from tribessel import ErrataEntry, build_errata\n"
        "assert build_errata.__module__ == 'tribessel.errata'\n"
        "assert ErrataEntry.__module__ == 'tribessel.errata'\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
