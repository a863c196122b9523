"""Input refusals and internal consistency checks across the modules."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ncmatch
from ncmatch.chains import best_arc_size, growth_factor
from ncmatch.corners import corner_coefficients, extract_band
from ncmatch.geometry import make_rchain, make_zigzag
from ncmatch.quadfield import QuadNumber

Q = QuadNumber.from_rational

# each check is made to fail once in a fresh interpreter; prints the messages
_BROKEN_CHECKS = """
import json
from ncmatch import chains, spectral, zigzag

def message(call):
    try:
        call()
    except AssertionError as exc:
        return str(exc)
    return None

half = (spectral._Q(1) / 2,) * 2
chains._runner_operator = lambda r: chains.ChainOperator(r, (((1, 2, 3),),), (((),),))
zigzag._QUARTIC = (zigzag._QUARTIC[0], zigzag._QUARTIC[1], [1, *zigzag._QUARTIC[2][1:]],
                   *zigzag._QUARTIC[3:])
print(json.dumps([__debug__,
                  message(lambda: spectral._check_eigen(((1, 1), (1, 1)), 3, half, half)),
                  message(lambda: zigzag.closed_form_coeffs(3)),
                  message(lambda: chains.excursion_moments(1)),
                  message(lambda: chains.runner_counts(1, 2))]))
"""


def test_checks_survive_optimized_mode():
    # python -O strips assert statements; these checks are explicit raises
    src = str(Path(ncmatch.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-B", "-c", _BROKEN_CHECKS], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True)
    assert json.loads(done.stdout) == [
        False,
        "left eigenvector equations fail",
        "the quartic must read 1 - C at x = 0",
        "the stabilized band must be palindromic",
        "the stabilized band must be palindromic",
    ]


def _assign(q):
    q.a = 2


_NEEDS_RC = r"r-chain needs r >= 1 and k >= 1"
_RADICAND = "radicand must be nonnegative"
_OPERAND = r"unsupported operand type\(s\) for "
_REFUSALS = {
    "growth_factor(0)": (lambda: growth_factor(0), ValueError, "r must be positive"),
    "best_arc_size(0)": (lambda: best_arc_size(0), ValueError, "limit must be positive"),
    "corner_coefficients(0)": (lambda: corner_coefficients(0), ValueError, "r must be positive"),
    "extract_band(3, probe=5)": (
        lambda: extract_band(3, probe=5), ValueError, "probe index must sit in the stabilized"),
    "make_zigzag(0)": (lambda: make_zigzag(0), ValueError, "zigzag chain needs at least one"),
    "make_rchain(0, 2)": (lambda: make_rchain(0, 2), ValueError, _NEEDS_RC),
    "make_rchain(2, 0)": (lambda: make_rchain(2, 0), ValueError, _NEEDS_RC),
    "QuadNumber(1, 0, 0)": (lambda: QuadNumber(1, 0, 0), ZeroDivisionError, "denominator is zero"),
    "QuadNumber(0, 1, 1, -1)": (lambda: QuadNumber(0, 1, 1, -1), ValueError, _RADICAND),
    "sqrt_of(-1)": (lambda: QuadNumber.sqrt_of(-1), ValueError, _RADICAND),
    "q.a = 2": (lambda: _assign(Q(1)), AttributeError, "QuadNumber is immutable"),
    "q + 0.5": (lambda: Q(1) + 0.5, TypeError, _OPERAND + r"\+"),
    "q * 0.5": (lambda: Q(1) * 0.5, TypeError, _OPERAND + r"\*"),
    "q < 0.5": (lambda: Q(1) < 0.5, TypeError, "'<' not supported"),
    "q / 0.5": (lambda: Q(1) / 0.5, TypeError, _OPERAND + "/"),
    "q + '1'": (lambda: Q(1) + "1", TypeError, _OPERAND + r"\+"),
    "q * '1'": (lambda: Q(1) * "1", TypeError, "can't multiply sequence"),
    "q < '1'": (lambda: Q(1) < "1", TypeError, "'<' not supported"),
    "q / '1'": (lambda: Q(1) / "1", TypeError, _OPERAND + "/"),
    "from_rational(0.1)": (lambda: Q(0.1), TypeError, "takes an int or a Fraction, not float"),
    "from_rational('1/3')": (lambda: Q("1/3"), TypeError, "takes an int or a Fraction, not str"),
    "root_float of -2": (lambda: Q(-2).root_float(2), ValueError, "negative value has no real"),
    "0 ** -1": (lambda: Q(0) ** -1, ZeroDivisionError, "division by zero"),
}


@pytest.mark.parametrize("call,error,message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_input_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_negative_power_and_float():
    assert (QuadNumber(2) ** -1).as_tuple() == (1, 0, 2, 1)
    assert float(QuadNumber(1, 0, 2)) == 0.5
