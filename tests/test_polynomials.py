import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import quiverbundles
from quiverbundles import polynomials
from quiverbundles.polynomials import (
    HomogPoly,
    factor_binary_form,
    format_factored,
    generic_rank,
    poly_det,
    poly_gcd,
    poly_matmul,
)

from _builders import poly_mat

S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)


def _random_form(rng, degree):
    return HomogPoly.of(degree, [Fraction(rng.randint(-4, 4)) for _ in range(degree + 1)])


def test_arithmetic_basics():
    st = S * T
    assert st == HomogPoly.of(2, [0, 1, 0])
    assert (st + st).coeffs == (0, 2, 0)
    assert st.evaluate(1, 1) == 1
    assert st.evaluate(1, 0) == 0
    assert (st - st).is_zero()
    assert HomogPoly.zero() * st == HomogPoly.zero()


def test_degree_mismatch_rejected():
    try:
        S + S * T
    except ValueError as e:
        assert "degree" in str(e)
    else:
        raise AssertionError("expected degree mismatch error")


def test_gcd_of_coprime_forms_is_constant():
    g = poly_gcd(S, T)
    assert g.degree == 0


def test_gcd_known_common_factor():
    # (s t) and (s^2 t + s t^2) share s t
    p = S * T
    q = S * S * T + S * T * T
    g = poly_gcd(p, q)
    assert g == S * T


def test_gcd_random_products_recover_common_factor_degree():
    rng = random.Random(5)
    for _ in range(30):
        common = _random_form(rng, rng.randint(1, 3))
        if common.is_zero():
            continue
        a = common * _random_form(rng, rng.randint(0, 2))
        b = common * _random_form(rng, rng.randint(0, 2))
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        # gcd divides both and is divisible by the common factor
        assert g.degree >= common.degree


def _divides(d, p):
    """d | p for nonzero forms: the s- and t-powers of d are at most p's
    (`_split`), and d's core divides p's with zero remainder in Q[t]; both
    cores are prime to s and t, so this is divisibility of forms."""
    (ad, bd, core_d), (ap, bp, core_p) = polynomials._split(d), polynomials._split(p)
    return ad <= ap and bd <= bp and polynomials._univ_divmod(core_p, core_d)[1] == ()


def test_gcd_of_random_products_is_checked_by_exact_division():
    rng = random.Random(31)

    def draw(degree):
        return HomogPoly.of(
            degree, [rng.randint(-5, 5) if rng.random() < 0.8 else 0 for _ in range(degree + 1)]
        )

    checked = 0
    for _ in range(300):
        a, b, c = draw(rng.randint(0, 4)), draw(rng.randint(0, 4)), draw(rng.randint(1, 3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        ac, bc = a * c, b * c
        g = poly_gcd(ac, bc)
        assert _divides(c, g) and _divides(g, ac) and _divides(g, bc)
        checked += 1
    assert checked > 150
    # the check refuses non-divisors by each of its three parts
    assert not _divides(T, S * S + T * T) and not _divides(S * S, S * T)
    assert not _divides(S + T, S * S + T * T) and _divides(S + T, S * S - T * T)


def test_poly_det_two_by_two():
    m = poly_mat([[S, T], [T, S]])
    assert poly_det(m) == S * S - T * T


def test_poly_det_matches_evaluation():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = poly_mat([[_random_form(rng, 1) for _ in range(n)] for _ in range(n)])
        d = poly_det(m)
        for pt in [(1, 0), (1, 1), (2, 3)]:
            num = [[e.evaluate(*pt) for e in row] for row in m]
            det_num = _dense_det(num)
            assert d.evaluate(*pt) == det_num


def _dense_det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return a[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += sign * a[0][j] * _dense_det(minor)
        sign = -sign
    return total


def test_generic_rank_detects_rank_drop():
    m = poly_mat([[S, T], [S, T]])
    assert generic_rank(m) == 1
    m2 = poly_mat([[S, T], [T, S]])
    assert generic_rank(m2) == 2


def test_factor_binary_form_exact_product():
    p = S * T * (T - S) * (T - S) * (S * S + T * T)
    const, factors = factor_binary_form(p.scaled(3))
    rebuilt = HomogPoly.constant(const)
    for f, mult in factors:
        for _ in range(mult):
            rebuilt = rebuilt * f
    assert rebuilt == p.scaled(3)
    assert ("s", 1) in [(str(f), m) for f, m in factors]


def test_format_factored_deterministic():
    p = S * T * T
    assert format_factored(p) == format_factored(HomogPoly.of(3, [0, 0, 1, 0]))
    assert format_factored(HomogPoly.zero()) == "0"


def test_invariant_checks_survive_optimize_flag():
    # synthetic division of t^2 + 1 by t - 1 leaves remainder 2; the check
    # is an explicit raise, so `python -O`, which strips asserts, keeps it
    probe = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from quiverbundles import InvariantError\n"
        "from quiverbundles.polynomials import _deflate\n"
        "assert sys.flags.optimize == 0, 'unreachable under -O'\n"
        "try:\n"
        "    _deflate([Fraction(1), Fraction(0), Fraction(1)], Fraction(1))\n"
        "except InvariantError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    src = str(Path(quiverbundles.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 1 is not a root: remainder 2\n"


def _dense_poly_matmul(a, b):
    # the dense triple loop poly_matmul replaced, kept verbatim as its oracle
    if (a and b) and len(a[0]) != len(b):
        raise ValueError("form matrix shape mismatch")
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(n):
            acc = HomogPoly.zero()
            for k, e in enumerate(row):
                if not e.is_zero() and not b[k][j].is_zero():
                    acc = acc + e * b[k][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def test_poly_matmul_matches_dense_loop():
    # entry degrees x_i + y_k and w_j + 2 - y_k make every product
    # homogeneous; about half the entries and some whole rows are zero
    rng = random.Random(7)
    zero = HomogPoly.zero()
    for m in range(4):
        for inner in range(4):
            for n in range(4):
                x = [rng.randint(0, 2) for _ in range(m)]
                y = [rng.randint(0, 2) for _ in range(inner)]
                w = [rng.randint(0, 2) for _ in range(n)]
                a = tuple(
                    tuple(
                        _random_form(rng, x[i] + y[k]) if rng.random() < 0.5 and i != 1 else zero
                        for k in range(inner)
                    )
                    for i in range(m)
                )
                b = tuple(
                    tuple(
                        _random_form(rng, w[j] + 2 - y[k]) if rng.random() < 0.5 and k != 0 else zero
                        for j in range(n)
                    )
                    for k in range(inner)
                )
                assert poly_matmul(a, b) == _dense_poly_matmul(a, b)
    for a, b in [(((S, T),), ((S,),)), (((S,),), ((S,), (T,)))]:
        for mul in (poly_matmul, _dense_poly_matmul):
            try:
                mul(a, b)
            except ValueError as e:
                assert str(e) == "form matrix shape mismatch"
            else:
                raise AssertionError("shape mismatch accepted")


# ---------------------------------------------------------------------------
# the integer kernels against the `Fraction` kernels they replaced, kept
# verbatim as references


_ZERO = Fraction(0)


def _ref_add(self, other):
    if self.is_zero():
        return other
    if other.is_zero():
        return self
    if self.degree != other.degree:
        raise ValueError(f"degree mismatch {self.degree} + {other.degree}")
    return HomogPoly.of(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


def _ref_mul(self, other):
    if self.is_zero() or other.is_zero():
        return HomogPoly.zero()
    d = self.degree + other.degree
    out = [_ZERO] * (d + 1)
    for i, a in enumerate(self.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(other.coeffs):
            if b != 0:
                out[i + j] += a * b
    return HomogPoly.of(d, out)


def _ref_evaluate(self, s0, t0):
    if self.is_zero():
        return _ZERO
    s0, t0 = Fraction(s0), Fraction(t0)
    d = self.degree
    total = _ZERO
    for k, c in enumerate(self.coeffs):
        if c != 0:
            total += c * s0 ** (d - k) * t0**k
    return total


def _kernel_form(rng, degree):
    """A form with denominators 1, 2, 3 or 7, zero one time in eight."""
    if rng.random() < 0.125:
        return HomogPoly.zero()
    den = rng.choice((1, 2, 3, 7))
    return HomogPoly.of(
        degree, [Fraction(rng.randint(-9, 9), den) for _ in range(degree + 1)]
    )


_POINTS = [
    (s0, t0)
    for s0 in (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3))
    for t0 in (0, 1, -2, 5, Fraction(3, 7), Fraction(-5, 2))
]


def _all_fractions(p):
    return all(type(c) is Fraction for c in p.coeffs)


def test_integer_kernels_match_fraction_kernels():
    rng = random.Random(2024)
    zeros = 0
    for _ in range(2000):
        d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
        p, q, r = _kernel_form(rng, d1), _kernel_form(rng, d2), _kernel_form(rng, d1)
        if rng.random() < 0.1:
            r = -p  # a sum that cancels to zero
        zeros += p.is_zero()
        product = p * q
        assert product == _ref_mul(p, q) and _all_fractions(product)
        total = p + r
        assert total == _ref_add(p, r) and _all_fractions(total)
        for s0, t0 in rng.sample(_POINTS, 4) + [(0, 0), (1, 0), (0, 1)]:
            value = p.evaluate(s0, t0)
            assert type(value) is Fraction
            assert value == _ref_evaluate(p, s0, t0)
    assert zeros > 150


# ---------------------------------------------------------------------------
# root search: the divisor-pair loop over `Fraction` Horner it replaced


def _ref_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def ref_rational_root(core):
    """The first root p/q over divisor pairs, p of a_0 and q of a_n, in
    increasing p, then q, + before -, by `Fraction` Horner."""
    ints = [int(c) for c in core]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return Fraction(0)
    for pn in sorted(_ref_divisors(abs(a0))):
        for qn in sorted(_ref_divisors(abs(an))):
            for sgn in (1, -1):
                cand = Fraction(sgn * pn, qn)
                acc = Fraction(0)
                for c in reversed(core):
                    acc = acc * cand + c
                if acc == 0:
                    return cand
    return None


def test_root_search_matches_divisor_pair_loop(monkeypatch):
    rng = random.Random(41)
    cases = []
    for _ in range(200):
        p = HomogPoly.constant(rng.choice([1, 2, -3, 6]))
        for _ in range(rng.randint(0, 4)):
            q, r = rng.randint(1, 6), rng.randint(-6, 6)
            p = p * HomogPoly.of(1, [Fraction(-r), Fraction(q)])  # q t - r s
        if rng.random() < 0.5:
            p = p * HomogPoly.of(2, [rng.choice([1, 2, 5]), rng.randint(-1, 1), rng.choice([1, 3])])
        if not p.is_zero() and p.degree > 0:
            cases.append(p)
    want = {}
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_rational_root", ref_rational_root)
        for p in cases:
            want[p] = format_factored(p)
    linear = 0
    for p in cases:
        assert format_factored(p) == want[p]
        linear += any(f.degree == 1 and all(f.coeffs) for f, _ in factor_binary_form(p)[1])
    assert len(cases) > 170 and linear > 100


@pytest.mark.parametrize(
    "p, want",
    [
        # a_0 = 10^14 + 31 is prime: its divisors are found by trial
        # division up to 10^7, and no candidate is a root
        (HomogPoly.of(2, [10**14 + 31, 0, 1]), "(100000000000031*s^2 + t^2)"),
        # a = 2^6 3^4 5^3 7^2 11 13 has 1680 divisors: the divisor pairs of
        # a_0 and a_2 took 98 s when a_2's divisors were found per divisor
        # of a_0, and Cauchy's bounds leave only p / q near 1
        (
            HomogPoly.of(2, [4540536000, 1, 4540536000]),
            "(4540536000*s^2 + s*t + 4540536000*t^2)",
        ),
    ],
)
def test_root_search_within_budget(p, want):
    start = time.perf_counter()
    text = format_factored(p)
    elapsed = time.perf_counter() - start
    assert text == want
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_at_without_s_matches_at_s_one_and_evaluate():
    # `at` has a loop of its own for s = 1, the case of every fiber
    rng = random.Random(25)
    for _ in range(2000):
        p = tuple(rng.randint(-10**rng.randint(1, 25), 10**rng.randint(1, 25))
                  for _ in range(rng.randint(0, 7)))
        t = rng.randint(-40, 40)
        value = polynomials.at(p, t)
        assert value == polynomials.at(p, t, 1)
        form = polynomials.form(p)
        assert value == form.evaluate(1, t)
        s = rng.choice((-3, -1, 0, 2, 5))
        assert polynomials.at(p, t, s) == form.evaluate(s, t)
    assert polynomials.at((), 7) == polynomials.at((), 7, 1) == 0
