"""Closed-form decay rates and admissibility conditions.

Constant relaxation sigma has the sharp entropy decay rate

    2*mu(sigma),  mu = sigma/2            (0 < sigma < 2)
                  mu = sigma/2 - sqrt(sigma^2/4 - 1)   (sigma > 2),

with twist theta(sigma) = sigma resp. 4/sigma and L2 prefactor
C_sigma = sqrt((2+sigma)/|2-sigma|). The defective value sigma = 2 trades an
epsilon of rate for a finite prefactor sqrt(2)/epsilon.

For sigma > 2, mu is evaluated as (2/sigma)/(1 + sqrt(1 - (2/sigma)^2)), which
neither cancels (sigma/2 - sqrt(...) is 25 % low at sigma = 1e8 and 0 past
1e12) nor overflows (sigma^2 does past 1.3e154, and sigma (1 + sqrt(...))
past 9e307).

For variable sigma the perturbative route uses theta* = min(sigma_min,
4/sigma_max) and the guaranteed entropy rate alpha* = gamma_max(theta*),
which is 2 mu(sigma_max) when sigma_min >= 4/sigma_max; the three-velocity
system gets alpha = min(sigma_min/2, 3 sigma_min/(9 sigma_max^2+1)) with
twist sqrt(6)*alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .profiles import RelaxationProfile

#: Sources a RateReport can come from.
SOURCE_CONSTANT = "constant-sharp"
SOURCE_CONSTANT_DEFECTIVE = "constant-defective"
SOURCE_PERTURBATIVE = "perturbative"
SOURCE_IMPROVED_POINCARE = "improved-poincare"
SOURCE_BERNARD_SALVARANI = "bernard-salvarani"
SOURCE_THREE_VELOCITY = "three-velocity"

_SQRT_CLAMP = 1e-14
#: Mode k of a constant sigma is defective iff |sigma - 2|k|| <= DEFECT_TOL;
#: ``needs_eps`` is the case k = +-1.
DEFECT_TOL = 1e-12
#: Absolute slack for inequalities that are tight by construction
#: (condition II holds with equality at sigma_max for the optimal pair).
_CONDITION_ATOL = 1e-9


def _safe_sqrt(arg: float, what: str) -> float:
    """sqrt with tiny-negative clamping at exact-arithmetic boundaries."""
    if arg < -_SQRT_CLAMP:
        raise ValidationError(f"negative sqrt argument in {what}: {arg}")
    return math.sqrt(max(arg, 0.0))


@dataclass(frozen=True)
class RateReport:
    """A theoretical rate bundle: twist, decay exponent, prefactor, provenance."""

    source: str
    rate: float  # exponential decay rate of the stated functional
    theta: float | None = None
    prefactor: float | None = None
    defective: bool = False

    def __post_init__(self):
        if not self.rate > 0:
            raise ValidationError(f"decay rate must be positive, got {self.rate}")

    @property
    def mu(self) -> float:
        """Half the entropy rate: the L2 decay exponent after equivalence."""
        return self.rate / 2.0

    def csv_row(self) -> tuple:
        return (self.source, self.theta, self.rate, self.prefactor)


def needs_eps(sigma: float) -> bool:
    """True for the defective constant sigma = 2, whose rates and twists need an eps."""
    return abs(sigma - 2.0) <= DEFECT_TOL


def constant_rate(sigma: float, eps: float | None = None) -> RateReport:
    """Sharp constant-sigma rate bundle; sigma = 2 needs eps in (0, 1)."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if needs_eps(sigma):
        if eps is None or not 0.0 < eps < 1.0:
            raise ValidationError("sigma = 2 is defective: eps in (0, 1) required")
        theta = 2.0 * (2.0 - eps**2) / (2.0 + eps**2)
        return RateReport(
            source=SOURCE_CONSTANT_DEFECTIVE,
            rate=2.0 * (1.0 - eps),
            theta=theta,
            prefactor=math.sqrt(2.0) / eps,
            defective=True,
        )
    if eps is not None:
        raise ValidationError("eps applies only to the defective value sigma = 2")
    if sigma < 2.0:
        rate = theta = sigma  # 2 mu = sigma, taken whole: sigma/2 underflows to 0 at 5e-324
        pref = math.sqrt((2.0 + sigma) / (2.0 - sigma))
    else:
        theta = 4.0 / sigma
        rate = 2.0 * _mu_above_two(sigma)
        pref = math.sqrt((sigma + 2.0) / (sigma - 2.0))
    return RateReport(source=SOURCE_CONSTANT, rate=rate, theta=theta, prefactor=pref)


def _mu_above_two(sigma: float) -> float:
    """mu(sigma) = sigma/2 - sqrt(sigma^2/4 - 1), sigma >= 2, in a form that neither cancels nor overflows."""
    return (2.0 / sigma) / (1.0 + math.sqrt(1.0 - (2.0 / sigma) ** 2))


def theta_star(sigma_min: float, sigma_max: float) -> float:
    """Twist weight min(sigma_min, 4/sigma_max) for variable sigma."""
    if not 0.0 < sigma_min <= sigma_max:
        raise ValidationError(f"need 0 < sigma_min <= sigma_max, got ({sigma_min}, {sigma_max})")
    return min(sigma_min, 4.0 / sigma_max)


def alpha_star(sigma_min: float, sigma_max: float) -> float:
    """Guaranteed entropy decay rate for non-constant sigma."""
    if not 0.0 < sigma_min < sigma_max:
        raise ValidationError(f"need 0 < sigma_min < sigma_max, got ({sigma_min}, {sigma_max})")
    if sigma_min < 4.0 / sigma_max:
        root = 2.0 * _safe_sqrt(4.0 - sigma_min**2, "alpha_star branch 1")
        return sigma_min * (4.0 + root - sigma_min * sigma_max) / (4.0 + root - sigma_min**2)
    return 2.0 * _mu_above_two(sigma_max)  # sigma_max - sqrt(sigma_max^2 - 4), sigma_max > 2 here


def gamma_bounds(theta: float, sigma_min: float, sigma_max: float) -> tuple[float, float]:
    """Largest admissible alpha from each side of the quadratic-in-sigma condition.

    gamma_min bounds alpha so the lower root stays below sigma_min, gamma_max
    so the upper root stays above sigma_max; both roots bracket sigma(x) iff
    alpha <= min(gamma_min, gamma_max).
    """
    if not 0.0 < theta < 2.0:
        raise ValidationError(f"theta must lie in (0, 2), got {theta}")
    root = 2.0 * _safe_sqrt(4.0 - theta**2, "gamma bounds")
    g_min = theta * (root - (4.0 - sigma_min * theta)) / (root - (4.0 - theta**2))
    g_max = theta * (root + (4.0 - sigma_max * theta)) / (root + (4.0 - theta**2))
    return g_min, g_max


@dataclass(frozen=True)
class ConditionCheck:
    """Structured verdict of an admissibility check.

    ``margins`` maps each inequality to its slack (>= 0 means satisfied);
    ``failures`` lists the names of violated inequalities.
    """

    satisfied: bool
    margins: dict = field(default_factory=dict)
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.satisfied


def _verdict(margins: dict, strict: set) -> ConditionCheck:
    """A NaN slack is a failure: it satisfies neither comparison."""
    failures = tuple(
        name
        for name, slack in margins.items()
        if not (slack > 0.0 if name in strict else slack >= -_CONDITION_ATOL)
    )
    return ConditionCheck(satisfied=not failures, margins=margins, failures=failures)


def check_conditions_2v(theta: float, alpha: float, profile: RelaxationProfile) -> ConditionCheck:
    """Admissibility of (theta, alpha) for the two-velocity entropy decay.

    Condition I: alpha < theta and theta + alpha < 2 sigma_min. Condition II:
    theta^2 (sigma-alpha)^2 - 4 (theta-alpha)(2 sigma - theta - alpha) <= 0
    for every value sigma takes, i.e. for every piece value.
    """
    if not (0.0 < theta < 2.0 and 0.0 < alpha < 2.0):
        raise ValidationError(f"need theta, alpha in (0, 2), got ({theta}, {alpha})")
    svals = np.array([v for _, v in profile.pieces])
    # (theta (sigma - alpha))^2 - 8 (theta - alpha)(sigma - (theta + alpha)/2): neither theta^2
    # (0 at theta = 4e-200) times (sigma - alpha)^2 (inf) nor 2 sigma (past 9e307) is formed
    quad = (theta * (svals - alpha)) ** 2 - 8.0 * (theta - alpha) * (svals - (theta + alpha) / 2.0)
    margins = {
        "alpha_lt_theta": theta - alpha,
        "theta_plus_alpha_lt_2sigma_min": 2.0 * profile.sigma_min - theta - alpha,
        "quadratic_nonpositive": float(-np.max(quad)),
    }
    return _verdict(margins, strict={"alpha_lt_theta", "theta_plus_alpha_lt_2sigma_min"})


def check_conditions_3v(theta: float, alpha: float, profile: RelaxationProfile) -> ConditionCheck:
    """Admissibility of (theta, alpha) for the three-velocity entropy decay.

    Condition I: sqrt(2/3) theta + alpha < 2 sigma_min and alpha <= sqrt(2/3) theta.
    Condition II bounds the sum of the two weighted suprema by
    sqrt(2/3) theta - alpha. The first ratio is not monotone in sigma, so the
    suprema run over every piece value.
    """
    if not (theta > 0.0 and alpha > 0.0):
        raise ValidationError(f"need theta, alpha > 0, got ({theta}, {alpha})")
    s23t = math.sqrt(2.0 / 3.0) * theta
    margins = {
        "transport_budget": 2.0 * profile.sigma_min - s23t - alpha,
        "alpha_le_sqrt23_theta": s23t - alpha,
    }
    svals = np.array([v for _, v in profile.pieces])
    # the denominators 8 sigma - 4 s23t - 4 alpha and 12 (2 sigma - alpha), over 8 and 24,
    # which do not overflow below the largest float
    den1 = svals - (s23t + alpha) / 2.0
    den2 = svals - alpha / 2.0
    if np.min(den1) <= 0.0 or np.min(den2) <= 0.0:
        margins["supremum_bound"] = -math.inf  # denominators collapse with condition I
    else:
        sup1 = float(np.max((theta * (svals - alpha)) ** 2 / 8.0 / den1))  # no overflow at large sigma
        sup2 = float(np.max(theta**2 / 24.0 / den2))
        margins["supremum_bound"] = (s23t - alpha) - (sup1 + sup2)
    return _verdict(margins, strict={"transport_budget"})


def rate_3v(sigma_min: float, sigma_max: float) -> RateReport:
    """Explicit three-velocity rate: alpha = min(s_min/2, 3 s_min/(9 s_max^2 + 1))."""
    if not 0.0 < sigma_min <= sigma_max:
        raise ValidationError(f"need 0 < sigma_min <= sigma_max, got ({sigma_min}, {sigma_max})")
    # 3 sigma_min/(9 sigma_max^2 + 1) is below sigma_min/2 only for sigma_max > sqrt(5)/3; there it is
    # (r/3)/(s + 1/(9 s)), r = sigma_min/sigma_max and s = sigma_max, which overflows nowhere
    # (sigma_max^2 does past 1.3e154, 9 sigma_max past 2e307, and 1/(9 s) below 6e-310)
    alpha = sigma_min / 2.0
    if sigma_max > math.sqrt(5.0) / 3.0:
        alpha = min(alpha, (sigma_min / sigma_max / 3.0) / (sigma_max + 1.0 / (9.0 * sigma_max)))
    if alpha == 0.0:
        raise NumericalError(
            f"the three-velocity rate min(sigma_min/2, 3 sigma_min/(9 sigma_max^2 + 1)) underflows "
            f"to 0 at sigma_min = {sigma_min:g}, sigma_max = {sigma_max:g}"
        )
    return RateReport(source=SOURCE_THREE_VELOCITY, rate=alpha, theta=math.sqrt(6.0) * alpha)


def rate_2v(profile: RelaxationProfile, eps: float | None = None) -> RateReport:
    """Two-velocity theoretical rate: sharp for constant sigma (eps at 2), else perturbative.

    eps is used only at sigma = 2, where it is required. A non-constant
    profile gets the (theta*, alpha*) bundle.
    """
    s_min, s_max = profile.sigma_min, profile.sigma_max
    if profile.is_constant:
        return constant_rate(s_min, eps=eps if needs_eps(s_min) else None)
    theta = theta_star(s_min, s_max)
    pref = math.sqrt((2.0 + theta) / (2.0 - theta))
    return RateReport(
        source=SOURCE_PERTURBATIVE, rate=alpha_star(s_min, s_max), theta=theta, prefactor=pref
    )
