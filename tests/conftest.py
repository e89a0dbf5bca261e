import faulthandler
import itertools
import os
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from polycrt import Polynomial, PrimeField, analyze_pair, encode, parse_polynomial

# A test still running after this many seconds is taken to hang: every
# thread's traceback is dumped and the run exits.  The slowest test takes
# about a second.
HANG_TIMEOUT_S = 60

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is off here, so fd 2 is still the terminal; the copy
    # lets the traceback of a hang reach it from inside a captured test.
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def hang_watchdog(request):
    fd = request.config.stash[_STDERR_FD]
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def f2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f13():
    return PrimeField(13)


def poly(field, text):
    return parse_polynomial(text, field)


def enumerate_polynomials(field, max_deg_exclusive):
    """All ``p**max_deg_exclusive`` polynomials of degree below the bound, coefficient 0 varying fastest."""
    for c in itertools.product(range(field.p), repeat=max_deg_exclusive):
        yield Polynomial(field, c[::-1])


def difference_window_violations(analysis, level):
    """Every ``a`` in the level's range whose clean residues break the difference window.

    Residues that differ while ``deg(a2) < deg(m1)`` must have
    ``deg(m) + deg(sigma_level) <= deg(a1 - a2) < deg(m1)``; the list is
    expected empty.
    """
    spec = analysis.level_spec(level)
    lo, hi = spec.error_bound_exclusive, analysis.m1.degree
    violations = []
    for a in enumerate_polynomials(analysis.field, spec.dynamic_range_exclusive):
        residues, _ = encode(a, analysis)
        a1, a2 = residues.a1, residues.a2
        if a1 != a2 and a2.degree < hi and not lo <= (a1 - a2).degree < hi:
            violations.append(a)
    return violations


# Reference instance over F_2 used for golden tests throughout:
# m1 = (x^2+1)(x^6+x^3+1), m2 = (x^2+1)(x^9+x^7+x+1).
REF_M1 = "x^8+x^6+x^5+x^3+x^2+1"
REF_M2 = "x^11+x^7+x^3+x^2+x+1"
REF_A = "x^15+x^11+x^7+x^6+x+1"


@pytest.fixture(scope="session")
def reference_pair(f2):
    m1 = poly(f2, "x^2+1") * poly(f2, "x^6+x^3+1")
    m2 = poly(f2, "x^2+1") * poly(f2, "x^9+x^7+x+1")
    return analyze_pair(m1, m2)


# Small pair with one level: m1 = x^2(x+1), m2 = x^2(x^2+x+1);
# gcd x^2, lcm degree 5, K = 0, level 1 bounds: tau < 2, deg(a) < 5.
@pytest.fixture(scope="session")
def micro_pair(f2):
    m = poly(f2, "x^2")
    return analyze_pair(m * poly(f2, "x+1"), m * poly(f2, "x^2+x+1"))
