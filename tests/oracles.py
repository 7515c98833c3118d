"""Independent oracles for the test suite.

Everything here is computed without touching the package's quadrature or
solver paths: Bessel values come from the power series, zeros from
bisection on that series, and exponential integrals from 1-D Simpson
quadrature after the log substitution L = log(1/r).
"""

import math

import numpy as np


def bessel_j0(x: float) -> float:
    """J_0 by its power series (adequate for |x| <= 12)."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for m in range(1, 40):
        term *= q / (m * m)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            break
    return total


def j0_first_zero() -> float:
    """First positive zero of J_0 by bisection."""
    lo, hi = 2.0, 3.0
    flo = bessel_j0(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j0(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fm
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


LAMBDA_1 = j0_first_zero() ** 2  # first Dirichlet eigenvalue of the disk


def simpson(f, a: float, b: float, n: int = 20001) -> float:
    """Composite Simpson rule (n odd)."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def moser_j_oracle(k: int, coeff: float, r_min: float = 1e-8) -> float:
    """J of the Moser plateau profile by 1-D quadrature in L = log(1/r).

    Plateau (r < 1/k): area times the constant exponential.  Ramp: Simpson
    in L of exp(coeff L^2 / (2 pi log k)) * exp(-2L).  The center disk
    r < r_min is excluded, matching the grid convention.
    """
    lk = math.log(k)
    plateau = math.pi * (1.0 / k**2 - r_min**2) \
        * math.exp(coeff * lk / (2.0 * math.pi))

    def integrand(L):
        return np.exp(coeff * L * L / (2.0 * math.pi * lk) - 2.0 * L)

    ramp = 2.0 * math.pi * simpson(integrand, 0.0, lk)
    return plateau + ramp


def leray_sqrt_log_residual(r: np.ndarray) -> np.ndarray:
    """Pointwise defect of phi = sqrt(log 1/r) in -(1/r)(r phi')' = V phi
    for the borderline Hardy weight, from closed-form derivatives."""
    L = np.log(1.0 / r)
    lhs = 1.0 / (4.0 * r * r * L ** 1.5)
    rhs = (1.0 / (4.0 * r * r * L * L)) * np.sqrt(L)
    return lhs - rhs


def pav_nonincreasing_stack(y: np.ndarray) -> np.ndarray:
    """Plain stack pool-adjacent-violators onto nonincreasing sequences,
    one element per loop turn, on the reversed (nondecreasing) problem.

    The package's projection batches this loop's bookkeeping but keeps its
    merge order and arithmetic, so the two must agree bit for bit.
    """
    z = y[::-1].copy()
    level = z.copy()
    weight = np.ones_like(z)
    j = 0
    idx = np.zeros(z.size, dtype=int)
    for i in range(1, z.size):
        j += 1
        level[j] = z[i]
        weight[j] = 1.0
        idx[j] = i
        while j > 0 and level[j - 1] > level[j]:
            tot = weight[j - 1] + weight[j]
            level[j - 1] = (weight[j - 1] * level[j - 1]
                            + weight[j] * level[j]) / tot
            weight[j - 1] = tot
            j -= 1
    out = np.empty_like(z)
    start = 0
    for b in range(j + 1):
        end = idx[b + 1] if b < j else z.size
        out[start:end] = level[b]
        start = end
    return out[::-1]
