"""Twisted entropy functionals for the 2- and 3-velocity systems.

The two-velocity entropy is

    E_theta(f, g) = ||f||^2 + ||g||^2 - theta * <antiderivative(f), g>,

and the three-velocity variant adds ||h||^2. For |theta| < 2 and mean-zero f
the entropy is equivalent to the plain squared norm with factors
1 -+ |theta|/2.

Every formula lives in ``entropy_terms``, which works on plain sample
arrays, one state or a stack of them; the GridFunction functions below and
the solver's record pass call it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError
from .profiles import as_profile
from .torus import GridFunction, average, primitive


class EntropyTerms(NamedTuple):
    """Squared norms of the components, the entropy, and its evolution rhs.

    Each is a float for one function, or an array over the leading axes when
    the inputs stack several functions (a block of records).
    """

    f_sq: float | np.ndarray
    g_sq: float | np.ndarray
    h_sq: float | np.ndarray
    entropy: float | np.ndarray
    rhs: float | np.ndarray | None


def _mean_dot(a: np.ndarray, b: np.ndarray):
    """(1/n) sum a b along the last axis."""
    return np.einsum("...i,...i->...", a, b) / a.shape[-1]


def entropy_terms(f, g, prim, theta: float, h=None, sigma=None) -> EntropyTerms:
    """E_theta(f, g) (+ ||h||^2 when h is given) on plain sample arrays.

    The samples run along the last axis; leading axes index separate states
    and give one value each. f is mean-zero and prim its mean-zero
    primitive, torus.primitive(f). Given sigma samples, rhs is the exact
    d/dt of E_theta(u - u_avg, v) along the two-velocity flow, for
    f = u - u_avg and g = v:

        -theta ||f||^2
        + (1/2pi) int (theta - 2 sigma) g^2 dx
        + (theta/2pi) int sigma * prim * g dx
        - theta * g_avg^2.
    """
    parts = (g, prim) if h is None else (g, prim, h)
    if any(np.shape(a) != np.shape(f) for a in parts):
        raise GridMismatchError(f"incompatible grids: {[np.shape(a) for a in (f,) + parts]}")
    f_sq, g_sq = _mean_dot(f, f), _mean_dot(g, g)
    h_sq = 0.0 if h is None else _mean_dot(h, h)
    entropy = f_sq + g_sq - theta * _mean_dot(g, prim) + h_sq
    rhs = None
    if sigma is not None:
        sg = sigma * g  # the v-term is theta ||g||^2 - 2 <sigma g, g>
        mixed = _mean_dot(sg, prim)
        rhs = theta * (g_sq - f_sq + mixed - np.mean(g, axis=-1) ** 2) - 2.0 * _mean_dot(sg, g)
    return EntropyTerms(f_sq, g_sq, h_sq, entropy, rhs)


def entropy_2v(f: GridFunction, g: GridFunction, theta: float) -> float:
    """E_theta(f, g); the caller passes f mean-shifted (e.g. u - u_avg)."""
    return float(entropy_terms(f.values, g.values, primitive(f.values), theta).entropy)


def entropy_3v(f: GridFunction, g: GridFunction, h: GridFunction, theta: float) -> float:
    """Three-velocity entropy: entropy_2v(f, g, theta) + ||h||^2."""
    return float(entropy_terms(f.values, g.values, primitive(f.values), theta, h=h.values).entropy)


def equivalence_bounds(theta: float) -> tuple[float, float]:
    """Sandwich factors (1 - |theta|/2, 1 + |theta|/2) for mean-zero f.

    The lower factor is positive only for |theta| < 2; the caller checks.
    """
    return 1.0 - abs(theta) / 2.0, 1.0 + abs(theta) / 2.0


def entropy_evolution_rhs(u: GridFunction, v: GridFunction, sigma, theta: float) -> float:
    """Exact d/dt of E_theta(u - u_avg, v) along the two-velocity flow.

    u may be passed raw; its average is subtracted internally. The formula
    is in ``entropy_terms``.
    """
    sig = as_profile(sigma).sample(u.n)
    udev = u.values - average(u)
    return float(entropy_terms(udev, v.values, primitive(udev), theta, sigma=sig).rhs)
