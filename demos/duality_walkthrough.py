#!/usr/bin/env python3
"""Ensemble-observable duality, checked at three levels of abstraction.

Level 1: parameter arithmetic.  Measuring the Gaussian state rho_alpha
splits alpha into a dual member covariance alpha' and a displacement spread
gamma' with alpha' + gamma' = alpha.

Level 2: information values.  The accessible information of the dual
ensemble under a sharp position readout reproduces the regime-L capacity
formula exactly.

Level 3: operators.  On a truncated Fock space, the conditional state
rho^(1/2) m(x,y) rho^(1/2) (normalized) is compared against the
closed-form displaced Gaussian prediction, through an upper bound on the
trace-norm gap: sqrt(dim) times the gap's Hilbert-Schmidt norm.
"""

import math

from gausscap import (
    accessible_info_sharp_position,
    capacity_alpha,
    classify_regime,
    dual_ensemble,
    dual_operator_check,
    kappa_matrix,
    make_covariance,
    make_noise,
)


def parameter_level(alpha, beta):
    k = kappa_matrix(alpha)
    de = dual_ensemble(alpha, beta)
    print(f"kappa          = ({k.kappa_q:.6f}, {k.kappa_p:.6f})")
    print(f"alpha'         = ({de.alpha_prime_q:.6f}, {de.alpha_prime_p:.6f})")
    print(f"gamma'         = ({de.gamma_prime_q:.6f}, {de.gamma_prime_p:.6f})")
    print(f"alpha'+gamma'  = ({de.alpha_prime_q + de.gamma_prime_q:.6f}, "
          f"{de.alpha_prime_p + de.gamma_prime_p:.6f})  (should equal alpha)")
    return de


def information_level(alpha, beta, de):
    info = accessible_info_sharp_position(de, beta)
    cap = capacity_alpha(alpha, beta)
    reg = classify_regime(alpha, beta).value
    print(f"accessible information (sharp position readout): {info:.12f}")
    print(f"capacity at fixed alpha (regime {reg}):            {cap:.12f}")
    print(f"difference: {abs(info - cap):.2e} "
          f"({'identical in regime L' if reg == 'L' else 'differs outside L'})")


def operator_level(alpha, beta, n_max=40):
    worst = dual_operator_check(alpha, beta, n_max=n_max)
    print(f"upper bound on the worst trace-norm gap over sampled outcomes "
          f"(N={n_max}): {worst:.3e}")


if __name__ == "__main__":
    alpha = make_covariance(1.0, 1.0)
    beta = make_noise(0.2, 5.0)
    print(f"alpha = (1, 1), beta = (0.2, 5)\n")
    de = parameter_level(alpha, beta)
    print()
    information_level(alpha, beta, de)
    print()
    operator_level(alpha, beta)

    print("\n--- same walkthrough in regime C, where the identity breaks ---")
    beta_c = make_noise(0.5, 0.5)
    de_c = parameter_level(alpha, beta_c)
    print()
    information_level(alpha, beta_c, de_c)
