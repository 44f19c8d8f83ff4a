"""The float-screened quadratic search gives exactly the full mpmath scan.

``detect_cm`` and ``recognize_quadratic`` share ``periods._quadratic_rows``;
``oracles`` keeps the O(bound^2) mpmath loops they replaced.  Every value and
error must agree, certificate residuals included.
"""

import random

import mpmath as mp
import pytest

from zpscan.analytic import PrecisionContext
from zpscan.isogeny import cyclic_sublattices, make_witness, recognize_quadratic
from zpscan.periods import Lattice, detect_cm

from conftest import random_tau
from oracles import detect_cm_scan, recognize_quadratic_scan

BITS = (64, 256, 1024)
BOUNDS = (10, 20, 60)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error must come out of both
        return type(exc), str(exc)


def _special_values(bits):
    """Rationals, quadratic irrationals, CM points, generic and extreme magnitudes."""
    rng = random.Random(bits)
    with mp.workprec(bits + 32):
        sqrt3, sqrt5, sqrt7 = mp.sqrt(3), mp.sqrt(5), mp.sqrt(7)
        vals = [
            mp.mpc(0),
            mp.mpc(2),
            mp.mpc(-7),
            mp.mpc(mp.mpf(3) / 7),
            mp.mpc(mp.mpf(-5) / 12),
            mp.mpc((1 + sqrt5) / 2),
            mp.mpc(0, 1),
            mp.mpc(-mp.mpf(1) / 2, sqrt3 / 2),
            mp.mpc(mp.mpf(1) / 2, sqrt7 / 2),
            mp.mpc(0, mp.sqrt(2)),
            mp.mpc(mp.mpf(1) / 3, sqrt5),
            mp.mpc(mp.mpf(13) / 17),
            mp.mpc(mp.mpf(-19) / 23),
            mp.mpc(mp.mpf(100001) / 3),
            mp.mpc((3 + mp.sqrt(11)) / 5),
            mp.mpc((1 + sqrt3) / 4),
            mp.mpc(0, mp.sqrt(2) / 3),
            mp.mpc(-mp.mpf(1) / 2, mp.sqrt(23) / 2),
            mp.mpc(mp.mpf(1) / 4, mp.sqrt(15) / 4),
            mp.mpc(mp.mpf(3) / 10, mp.sqrt(11) / 10),
            mp.mpc(mp.mpf(7) / 3, 2 * sqrt5 / 3),
            mp.mpc(mp.pi, mp.e),
            mp.mpc(mp.mpf(123456789) / 1000, mp.mpf(1) / 7),
            mp.mpc("1e-320", "1e-320"),
            mp.mpc(0, "1e-320"),
            mp.mpc("1e-200", "3e-200"),
            mp.mpc("1e200", "1e200"),
            mp.mpc(0, "1e200"),
            mp.mpc("1e400", "1e400"),
            mp.mpc(0, "1e400"),
        ]
        vals += [random_tau(rng, bits + 32) for _ in range(3)]
    return vals


# each value meets every bound once over the three precisions
@pytest.mark.parametrize("shift, bits", enumerate(BITS))
def test_detect_cm_matches_full_scan(shift, bits):
    ctx = PrecisionContext(bits=bits)
    for i, tau in enumerate(_special_values(bits)):
        bound = BOUNDS[(i + shift) % 3]
        got = _outcome(detect_cm, tau, bound, ctx)
        assert got == _outcome(detect_cm_scan, tau, bound, ctx), (tau, bound)


@pytest.mark.parametrize("shift, bits", enumerate(BITS))
def test_recognize_quadratic_matches_full_scan(shift, bits):
    ctx = PrecisionContext(bits=bits)
    for i, z in enumerate(_special_values(bits)):
        bound = BOUNDS[(i + shift) % 3]
        # inside workprec, as the CLI calls it: the oracle coerces z before it enters workprec
        with ctx.workprec():
            got = _outcome(recognize_quadratic, z, bound, ctx)
            assert got == _outcome(recognize_quadratic_scan, z, bound, ctx), (z, bound)


def test_recognize_quadratic_keeps_input_precision():
    # called outside workprec, a 288-bit input must not be re-rounded at the
    # ambient 53 bits before the 256-bit search
    ctx = PrecisionContext(bits=256)
    with mp.workprec(288):
        golden = (1 + mp.sqrt(5)) / 2
        values = (golden, mp.mpc(golden))
    for z in values:
        assert recognize_quadratic(z, 10, ctx) == (1, -1, -1)


# degrees 2..30 split over the three precisions, the entries a, b, c over the bounds
@pytest.mark.parametrize("shift, bits", enumerate(BITS))
def test_recognize_quadratic_matches_full_scan_on_de_rham_entries(shift, bits):
    ctx = PrecisionContext(bits=bits)
    rng = random.Random(3000 + bits)
    lattices = [Lattice.from_tau(mp.mpc(0, 1)), Lattice.from_tau(random_tau(rng, bits + 32))]
    for M in range(2 + shift, 31, 3):
        sub = rng.choice(cyclic_sublattices(M))
        w, _, _, _ = make_witness(lattices[M % 2], sub, ctx)
        for bound, val in zip(BOUNDS, w.de_rham):
            with ctx.workprec():
                got = recognize_quadratic(val, bound, ctx)
                assert got == recognize_quadratic_scan(val, bound, ctx), (M, sub, val, bound)
