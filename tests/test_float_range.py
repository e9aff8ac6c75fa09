"""Closed forms and their CLI commands over the whole float range.

Covariances and noise variances are drawn log-uniform over [1e-300, 1e300],
on and near the Heisenberg boundary, and E up to 1.7e308.  Every public
closed-form entry point returns finite numbers or raises NumericsError; the
CLI exits 0 with finite JSON or 3.  Values are compared with 60-digit mpmath,
and the entropy terms with the product-log expression whose bits they keep
wherever alpha + beta is a float.
"""

import json
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscap.capacity import (
    Regime,
    _noisy_position_ratio,
    capacity_alpha,
    capacity_energy,
    classify_regime,
    critical_squeezing,
    e_closure,
    ensemble_objective,
    optimal_squeezing,
    squeezing_interval,
    threshold_energy,
    upper_bound,
)
from gausscap.cli import main
from gausscap.core import NumericsError, make_covariance, make_noise, output_entropy_term
from gausscap.duality import accessible_info_sharp_position, dual_ensemble, kappa_matrix

INF = math.inf
E_MAX = 1.7e308
mp = mpmath.MPContext()  # 60 digits, apart from the precision other tests set
mp.dps = 60


def log_uniform(lo=-300.0, hi=300.0):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def partners(draw, first, boundary=True):
    """A second variance with first * second >= 1/4: on or near that boundary, or
    log-uniform above it."""
    floor = 0.25 / first
    if boundary and draw(st.booleans()):
        return floor * (1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0])))
    return max(10.0 ** draw(st.floats(max(math.log10(floor), -300.0), 300.0)), floor)


@st.composite
def covariances(draw, boundary=True):
    aq = draw(log_uniform())
    return aq, draw(partners(aq, boundary))


@st.composite
def noises(draw, types=(1, 2, 3), boundary=True):
    noise_type = draw(st.sampled_from(types))
    if noise_type == 3:
        return 0.0, INF
    bq = draw(log_uniform())
    return bq, INF if noise_type == 2 else draw(partners(bq, boundary))


ENERGIES = st.one_of(log_uniform(math.log10(0.5), math.log10(E_MAX)),
                     st.floats(0.5, E_MAX),
                     log_uniform(-16.0, 0.0).map(lambda x: 0.5 + x))


def floats_in(value):
    """The float fields of a result, records and tuples flattened."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, tuple):
        return [x for item in value for x in floats_in(item)]
    return []


def assert_finite_or_numerics_error(call, *args, **kwargs):
    try:
        value = call(*args, **kwargs)
    except NumericsError:
        return None
    assert all(math.isfinite(x) for x in floats_in(value)), (call.__name__, args, value)
    return value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(alpha=covariances(), beta=noises(), e=ENERGIES, cross_check=st.booleans())
def test_every_closed_form_is_finite_or_a_numerics_error(alpha, beta, e, cross_check):
    # No ValidationError on valid input and no bare exception: either escapes.
    a, b = make_covariance(*alpha), make_noise(*beta)
    lo, hi = squeezing_interval(a)
    for call, args in [(critical_squeezing, (b,)), (squeezing_interval, (a,)),
                       (optimal_squeezing, (a, b)), (e_closure, (a, b)),
                       (capacity_alpha, (a, b)), (output_entropy_term, (a, b)),
                       (ensemble_objective, (lo, a, b)), (ensemble_objective, (hi, a, b)),
                       (upper_bound, (b.beta_q, e))]:
        assert_finite_or_numerics_error(call, *args)
    assert classify_regime(a, b) in Regime
    res = assert_finite_or_numerics_error(capacity_energy, b, e, cross_check=cross_check)
    if res is not None:
        assert res.capacity_nats >= 0.0
    if b.noise_type == 1:
        assert_finite_or_numerics_error(threshold_energy, *beta)
        assert_finite_or_numerics_error(threshold_energy, *reversed(beta))
    if b.noise_type != 3:
        assert_finite_or_numerics_error(kappa_matrix, a)
        dual = assert_finite_or_numerics_error(dual_ensemble, a, b)
        info = assert_finite_or_numerics_error(accessible_info_sharp_position, dual, b)
        assert dual.alpha_prime_q > 0.0 and info >= 0.0


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the output")


def _number(x):
    return "inf" if x == INF else repr(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=covariances(), beta=noises(), e=ENERGIES)
def test_cli_exits_0_with_finite_json_or_3(alpha, beta, e):
    runner = CliRunner()
    noise = ["--beta-q", _number(beta[0]), "--beta-p", _number(beta[1])]
    cov = ["--alpha-q", _number(alpha[0]), "--alpha-p", _number(alpha[1])]
    commands = [["capacity", *noise, "-e", _number(e)], ["regime", *cov, *noise],
                ["bound", "--beta-q", _number(beta[0]), "-e", _number(e)]]
    if beta[1] < INF or beta[0] > 0.0:
        commands.append(["dual", *cov, *noise])
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 3), (args, res.output, res.exception)
        if res.exit_code == 0:
            json.loads(res.stdout, parse_constant=_reject_constant)
        else:
            assert res.stderr.startswith("numeric failure: NumericsError"), (args, res.stderr)


# --- 60-digit references ----------------------------------------------------

def center_capacity(bq, bp, e):
    bq, bp, e = mp.mpf(bq), mp.mpf(bp), mp.mpf(e)
    return mp.log((e + (bq + bp) / 2) / (mp.sqrt(bq * bp) + mp.mpf(0.5)))


def noisy_position_ratio(e, bq):
    e, bq = mp.mpf(e), mp.mpf(bq)
    root = mp.sqrt(1 + 8 * e * bq + 4 * bq * bq)
    return (4 * e + 2 * bq) / (root + 1), (4 * e - 2) / (root + 2 * bq + 1)


def bound(bq, e):
    return mp.log1p((mp.mpf(e) - mp.mpf(0.5)) / (mp.mpf(bq) + mp.mpf(0.5)))


def assert_close(value, exact, rel):
    # Below 1e-300 the value itself may be subnormal; past the float range it is inf.
    if abs(exact) > sys.float_info.max:
        assert value == math.copysign(INF, exact)
    elif abs(exact) > 1e-300:
        assert abs(value - exact) <= rel * abs(exact), (value, float(exact))


def center_covariance(bq, bp, e):
    """E -+ (bq - bp)/2, correctly rounded (60 digits may round twice)."""
    half = (Fraction(bq) - Fraction(bp)) / 2
    return float(Fraction(e) - half), float(Fraction(e) + half)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(beta=noises(types=(1,)), above=log_uniform(-14.0, 2.0))
def test_center_capacity_and_covariance_match_mpmath(beta, above):
    bq, bp = beta
    e = max(threshold_energy(bq, bp), threshold_energy(bp, bq), 0.5) * (1.0 + above)
    if e > E_MAX:
        return
    try:
        res = capacity_energy(make_noise(bq, bp), e, cross_check=False)
    except NumericsError as exc:  # an entry of E -+ (bq - bp)/2 is no float
        assert "float range" in str(exc)
        return
    assert res.regime is Regime.C
    assert_close(res.capacity_nats, center_capacity(bq, bp, e), 5e-16)
    assert res.optimal_alpha == center_covariance(bq, bp, e)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(e=ENERGIES, bq=st.one_of(st.just(0.0), log_uniform()))
def test_ratio_excess_and_bound_match_mpmath(e, bq):
    ratio, excess = _noisy_position_ratio(e, bq)
    exact_ratio, exact_excess = noisy_position_ratio(e, bq)
    assert_close(ratio, exact_ratio, 5e-16)
    assert_close(excess, exact_excess, 5e-16)
    assert_close(upper_bound(bq, e), bound(bq, e), 5e-16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alpha=covariances(boundary=False), beta=noises(types=(1, 2), boundary=False))
def test_dual_quantities_match_mpmath(alpha, beta):
    # Off the boundary: near alpha_q alpha_p = 1/4, kappa's 1 - 1/(4 alpha_q alpha_p)
    # cancels, and gamma' with it.
    aq, ap = alpha
    if aq * ap < 0.5:
        return
    a, b = make_covariance(aq, ap), make_noise(*beta)
    dual = dual_ensemble(a, b)
    info = accessible_info_sharp_position(dual, b)
    for x, other, noise, prime, gamma in [
            (aq, ap, beta[0], dual.alpha_prime_q, dual.gamma_prime_q),
            (ap, aq, beta[1], dual.alpha_prime_p, dual.gamma_prime_p)]:
        if noise == INF:
            assert (prime, gamma) == (x, 0.0)
            continue
        x, c, noise = mp.mpf(x), 1 / (4 * mp.mpf(other)), mp.mpf(noise)
        assert_close(prime, x * (noise + c) / (x + noise), 1e-13)
        if gamma >= sys.float_info.min:
            assert_close(gamma, x * (x - c) / (x + noise), 1e-13)
    # (alpha'_q + gamma'_q)/alpha'_q, to the resolution of gamma'_q as a float
    x, c, noise = mp.mpf(aq), 1 / (4 * mp.mpf(ap)), mp.mpf(beta[0])
    exact = mp.log1p((x - c) / (noise + c)) / 2
    assert abs(info - exact) <= 1e-13 * exact + sys.float_info.min / dual.alpha_prime_q


# --- bits kept where alpha + beta is a float -----------------------------------

def product_log(aq, ap, beta):
    """The output entropy term as written before sums past the float range were handled."""
    vq = aq + beta.beta_q
    if beta.noise_type == 1:
        vp = ap + beta.beta_p
        return 0.5 * (math.log(vq * vp) if vq * vp < INF else math.log(vq) + math.log(vp))
    return 0.5 * math.log(vq)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(alpha=covariances(), beta=noises())
def test_entropy_terms_keep_the_product_log_bits(alpha, beta):
    a, b = make_covariance(*alpha), make_noise(*beta)
    d = optimal_squeezing(a, b)
    lo, _ = squeezing_interval(a)
    points = [alpha, (d, 0.25 / d), (lo, 0.25 / lo)]
    if not all(x + b.beta_q < INF and (b.noise_type != 1 or y + b.beta_p < INF)
               for x, y in points):
        return
    term, closure = product_log(*alpha, b), product_log(d, 0.25 / d, b)
    assert output_entropy_term(a, b) == term
    assert e_closure(a, b) == closure
    assert capacity_alpha(a, b) == term - closure
    assert ensemble_objective(lo, a, b) == product_log(lo, 0.25 / lo, b)


# --- regressions: valid inputs that failed -------------------------------------

@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("b", ["1e300", "1e307"])
def test_center_cross_check_at_the_float_limit(runner, b):
    # alpha + beta overflowed in the entropy term: the shell maximum was inf
    # or 1.6e-3 off, and the command exited 3.
    res = runner.invoke(main, ["capacity", "--beta-q", b, "--beta-p", b, "-e", "1.7e308"])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["regime"] == "C"
    assert payload["capacity_nats"] == pytest.approx(
        float(center_capacity(float(b), float(b), 1.7e308)), rel=5e-16, abs=0.0)
    assert payload["optimizer_check_nats"] == pytest.approx(payload["capacity_nats"], abs=1e-9)


def test_regime_at_the_float_limit_prints_finite_json(runner):
    # capacity_alpha was inf, printed as the non-JSON constant Infinity.
    res = runner.invoke(main, ["regime", "--alpha-q", "1.7e308", "--alpha-p", "1.7e308",
                               "--beta-q", "1e307", "--beta-p", "1e307"])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout, parse_constant=_reject_constant)
    # ln 18 less ulps of two entropy terms near 709
    assert payload["capacity_alpha_nats"] == pytest.approx(math.log(18.0), abs=1e-12)


def test_noisy_position_covariance_past_the_float_range_exits_3(runner):
    # beta_q ** 2 raised a bare OverflowError; 2E - r/2 is no float here.
    res = runner.invoke(main, ["capacity", "--beta-q", "1e200", "--beta-p", "inf", "-e", "1e308"])
    assert res.exit_code == 3
    assert "NumericsError" in res.stderr and "float range" in res.stderr


@pytest.mark.parametrize("e, bq", [(1.3330196660772722e308, 1274.0438174764986), (1e308, 1e200)])
def test_noisy_position_ratio_near_the_float_limit(e, bq):
    # The first returned r = 0.0 against 4.57e152.
    ratio, excess = _noisy_position_ratio(e, bq)
    exact_ratio, exact_excess = noisy_position_ratio(e, bq)
    assert ratio == pytest.approx(float(exact_ratio), rel=5e-16, abs=0.0)
    assert excess == pytest.approx(float(exact_excess), rel=5e-16, abs=0.0)


def test_center_threshold_without_cancellation(runner):
    # E - (bp - bq)/2 cancelled to alpha_p = 0.0 and the command exited 2.
    bq, bp, e = 8.156856547125469e267, 5.007937173781506e291, 2.503968586890753e291
    res = runner.invoke(main, ["capacity", "--beta-q", repr(bq), "--beta-p", repr(bp),
                               "-e", repr(e)])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["regime"] == "C"
    aq, ap = center_covariance(bq, bp, e)
    assert payload["optimal_alpha"] == {"alpha_q": aq, "alpha_p": ap}
    assert payload["optimal_alpha"]["alpha_p"] == pytest.approx(4.078e267, rel=1e-3)


@pytest.mark.parametrize("b, e", [(1e12, 1.0), (1e14, 0.75)])
def test_center_capacity_when_the_noise_dominates(b, e):
    # ln of a ratio within 1e-12 of 1 kept 4 digits: 8.9e-5 off at (1e12, 1e12), E = 1.
    res = capacity_energy(make_noise(b, b), e)
    assert res.capacity_nats == pytest.approx(float(center_capacity(b, b, e)), rel=5e-16, abs=0.0)


@pytest.mark.parametrize("bq, e", [(1e12, 1.0), (1e16, 3.0), (1e300, 1.0)])
def test_upper_bound_when_the_noise_dominates(bq, e):
    # ln of the ratio gave 8.9e-5 off, 4.44e-16 against 2.50e-16, and 0.0 against 5e-301.
    assert upper_bound(bq, e) == pytest.approx(float(bound(bq, e)), rel=5e-16, abs=0.0)


@pytest.mark.parametrize("alpha_q, alpha_p, beta_q", [
    (5.238613592256606e268, 7.836061826246714e-64, 9.372472527320516e-272),
    (1.8216694411505663e-205, 8.362668168939689e237, 9.8981756239393e-136)])
def test_dual_past_the_float_range(runner, alpha_q, alpha_p, beta_q):
    # alpha'_q was inf or 0.0, and accessible_info raised ValueError or ZeroDivisionError.
    res = runner.invoke(main, ["dual", "--alpha-q", repr(alpha_q), "--alpha-p", repr(alpha_p),
                               "--beta-q", repr(beta_q), "--beta-p", "inf"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout, parse_constant=_reject_constant)
    c = 1 / (4 * mp.mpf(alpha_p))
    exact = mp.log1p((mp.mpf(alpha_q) - c) / (mp.mpf(beta_q) + c)) / 2
    assert payload["accessible_info_nats"] == pytest.approx(float(exact), rel=1e-13)


def test_critical_squeezing_past_the_float_range():
    # beta_q / beta_p overflowed: the stationary point was inf and the
    # regime R, where it is C, and capacity_alpha 1.087 against 1.140.
    alpha, beta = make_covariance(1e300, 1e-299), make_noise(1e300, 1e-300)
    assert critical_squeezing(beta) == pytest.approx(5e299, rel=1e-15)
    assert classify_regime(alpha, beta) is Regime.C
    bq, bp = mp.mpf(1e300), mp.mpf(1e-300)
    d = mp.sqrt(bq / bp) / 2
    exact = (mp.log((mp.mpf(1e300) + bq) * (mp.mpf(1e-299) + bp))
             - mp.log((d + bq) * (1 / (4 * d) + bp))) / 2
    assert capacity_alpha(alpha, beta) == pytest.approx(float(exact), rel=1e-14)
