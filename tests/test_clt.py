import math

import numpy as np
import pytest

from gausscap.clt import (
    clt_convergence_report,
    clt_marginal_charfn,
    gaussian_charfn,
)
from gausscap.core import NonPositive, ValidationError, make_covariance
from gausscap.fock import quantum_charfn


def one_photon_charfn():
    rho = np.zeros((8, 8), dtype=complex)
    rho[1, 1] = 1.0
    return quantum_charfn(rho)


class TestGaussianCharfn:
    def test_values(self):
        phi = gaussian_charfn(make_covariance(1.0, 0.5))
        assert phi(0.0, 0.0) == pytest.approx(1.0)
        assert phi(1.0, 0.0) == pytest.approx(math.exp(-0.25))
        assert phi(0.0, 1.0) == pytest.approx(math.exp(-0.5))


class TestMarginalCharfn:
    def test_rejects_non_power_of_two(self):
        phi = gaussian_charfn(make_covariance(0.5, 0.5))
        for n in (0, 1, 3, 6, 100, 2.0, True, -4):
            with pytest.raises(ValidationError):
                clt_marginal_charfn(phi, n, 0.5, 0.5)

    def test_gaussian_fixed_point(self):
        alpha = make_covariance(1.3, 0.6)
        phi = gaussian_charfn(alpha)
        xg, yg = np.meshgrid(np.linspace(-3, 3, 11), np.linspace(-3, 3, 11))
        for n in (2, 8, 64):
            out = clt_marginal_charfn(phi, n, xg, yg)
            assert np.allclose(out, phi(xg, yg), atol=1e-12)

    def test_one_photon_closed_form(self):
        # phi_1(x, y) = e^{-t/2}(1 - t), t = (x^2 + y^2)/2
        phi = one_photon_charfn()
        x, y, n = 1.1, -0.7, 4
        t = (x * x + y * y) / 2.0
        tn = t / n
        expect = (math.exp(-tn / 2.0) * (1.0 - tn)) ** n
        assert clt_marginal_charfn(phi, n, x, y) == pytest.approx(expect, abs=1e-10)


    def test_one_phi_call_per_n(self):
        # phi(-z) = conj(phi(z)), so the marginal is |phi(z/sqrt(n))|^n.
        phi = one_photon_charfn()
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return phi(x, y)

        axis = np.linspace(-4.0, 4.0, 41)
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        for n in (4, 1024):
            calls.clear()
            got = clt_marginal_charfn(counted, n, xg, yg)
            assert len(calls) == 1
            s, half = math.sqrt(n), n // 2
            two_calls = phi(xg / s, yg / s) ** half * phi(-xg / s, -yg / s) ** half
            # Rounding of phi is raised to the power n in both forms
            # (1.1e-15 apart at n = 4, 1.7e-13 at n = 1024).
            assert np.abs(got - two_calls).max() <= n * 1e-15
        calls.clear()
        clt_convergence_report(counted, make_covariance(1.5, 1.5), [4, 1024])
        assert len(calls) == 2


class TestConvergenceReport:
    def test_one_photon_converges(self):
        phi = one_photon_charfn()
        alpha = make_covariance(1.5, 1.5)
        report = clt_convergence_report(phi, alpha, [4, 16, 64, 256])
        ns = [n for n, _ in report]
        devs = [d for _, d in report]
        assert ns == [4, 16, 64, 256]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        # deviation shrinks like 1/n
        assert devs[-1] < 0.01 * 1.5

    def test_gaussian_input_is_exact(self):
        alpha = make_covariance(0.9, 0.7)
        report = clt_convergence_report(gaussian_charfn(alpha), alpha, [2, 32])
        assert all(dev < 1e-12 for _, dev in report)

    @pytest.mark.parametrize("half_width, nodes", [(math.nan, 41), (0.0, 41), (-1.0, 41),
                                                   (math.inf, 41), (4.0, 0), (4.0, 2.5),
                                                   (4.0, 4.0), (4.0, True)])
    def test_rejects_empty_or_unbounded_grid(self, half_width, nodes):
        alpha = make_covariance(0.9, 0.7)
        with pytest.raises(NonPositive):
            clt_convergence_report(gaussian_charfn(alpha), alpha, [2], half_width, nodes)
