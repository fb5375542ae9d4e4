"""Twisted entropy functionals for the 2- and 3-velocity systems.

The two-velocity entropy is

    E_theta(f, g) = ||f||^2 + ||g||^2 - theta * <antiderivative(f), g>,

and the three-velocity variant adds ||h||^2. For |theta| < 2 and mean-zero f
the entropy is equivalent to the plain squared norm with factors
1 -+ |theta|/2.

Every formula lives in ``entropy_terms``, which works on plain arrays, one
state or a stack of them, in either basis: SAMPLES, the values at the grid
nodes, or MODES, the forward-normalised rfft modes of those samples. The
two differ only in the inner product, the primitive and the mean. The
GridFunction functions below and the solver's record pass call it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import GridMismatchError
from .torus import GridFunction, _inverse_ik, average, primitive


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


class Basis(NamedTuple):
    """How a function on the torus is held along the last axis of an array.

    Each operation acts along that axis and keeps the leading ones.
    """

    dot: Callable  # <a, b> = (1/2pi) int a b dx
    primitive: Callable  # the mean-zero primitive of a - avg a
    mean: Callable  # avg a = (1/2pi) int a dx
    deviation: Callable  # (a, c) -> a - c, c one constant per function (its mean)


def _mean_dot(a: np.ndarray, b: np.ndarray):
    """(1/n) sum a b along the last axis."""
    return np.einsum("...i,...i->...", a, b) / a.shape[-1]


def _parseval_dot(a: np.ndarray, b: np.ndarray):
    """<a, b> from the forward-normalised rfft modes k = 0 .. n/2 of a and b (n even).

    By Parseval the mean of the samples' product is sum_k w_k Re(a_k conj b_k),
    with w = 1, 2, ..., 2, 1: each mode 0 < k < n/2 stands for k and -k. The
    imaginary parts of modes 0 and n/2 get weight 0, as irfft ignores them.
    The modes are already divided by n, so the sum adds no factor n.
    """
    weights = np.full(2 * a.shape[-1], 2.0)
    weights[[0, 1, -2, -1]] = 1.0, 0.0, 1.0, 0.0
    return np.einsum("...i,i,...i->...", a.view(float), weights, b.view(float))


def _mode_deviation(a: np.ndarray, mean):
    out = a.copy()
    out[..., 0] -= mean
    return out


SAMPLES = Basis(
    dot=_mean_dot,
    # looked up by name at each call, so that a wrapper bound to that name sees the call
    primitive=lambda a: primitive(a),
    mean=lambda a: np.mean(a, axis=-1),
    deviation=lambda a, mean: a - mean[..., None],
)
MODES = Basis(
    dot=_parseval_dot,
    primitive=lambda a: a * _inverse_ik(a.shape[-1]),
    mean=lambda a: a[..., 0].real,
    deviation=_mode_deviation,
)


def entropy_terms(f, g, theta: float, h=None, sigma=None, basis: Basis = SAMPLES) -> EntropyTerms:
    """E_theta(f, g) (+ ||h||^2 when h is given) on plain arrays in ``basis``.

    The functions run along the last axis; leading axes index separate
    states and give one value each. f is mean-zero; prim is its mean-zero
    primitive, formed here once for both the entropy and the rhs. Given
    sigma, samples of it or a constant (a constant only in MODES), rhs is
    the exact d/dt of E_theta(u - u_avg, v) along the two-velocity flow, for
    f = u - u_avg and g = v:

        -theta ||f||^2
        + (1/2pi) int (theta - 2 sigma) g^2 dx
        + (theta/2pi) int sigma * prim * g dx
        - theta * g_avg^2.
    """
    parts = (g,) if h is None else (g, h)
    if any(np.shape(a) != np.shape(f) for a in parts):
        raise GridMismatchError(f"incompatible grids: {[np.shape(a) for a in (f,) + parts]}")
    dot = basis.dot
    prim = basis.primitive(f)
    f_sq, g_sq = dot(f, f), dot(g, g)
    h_sq = 0.0 if h is None else dot(h, h)
    entropy = f_sq + g_sq - theta * dot(g, prim) + h_sq
    rhs = None
    if sigma is not None:
        sg = sigma * g  # the v-term is theta ||g||^2 - 2 <sigma g, g>
        mixed = dot(sg, prim)
        rhs = theta * (g_sq - f_sq + mixed - basis.mean(g) ** 2) - 2.0 * dot(sg, g)
    return EntropyTerms(f_sq, g_sq, h_sq, entropy, rhs)


def entropy_2v(f: GridFunction, g: GridFunction, theta: float) -> float:
    """E_theta(f, g); the caller passes f mean-shifted (e.g. u - u_avg)."""
    return float(entropy_terms(f.values, g.values, theta).entropy)


def entropy_3v(f: GridFunction, g: GridFunction, h: GridFunction, theta: float) -> float:
    """Three-velocity entropy: entropy_2v(f, g, theta) + ||h||^2."""
    return float(entropy_terms(f.values, g.values, theta, h=h.values).entropy)


def equivalence_bounds(theta: float) -> tuple[float, float]:
    """Sandwich factors (1 - |theta|/2, 1 + |theta|/2) for mean-zero f.

    The lower factor is positive only for |theta| < 2; the caller checks.
    """
    return 1.0 - abs(theta) / 2.0, 1.0 + abs(theta) / 2.0


def entropy_evolution_rhs(u: GridFunction, v: GridFunction, profile, theta: float) -> float:
    """Exact d/dt of E_theta(u - u_avg, v) along the two-velocity flow.

    u may be passed raw; its average is subtracted internally. ``profile``
    is the RelaxationProfile sigma. The formula is in ``entropy_terms``.
    """
    sig = profile.sample(u.n)
    udev = u.values - average(u)
    return float(entropy_terms(udev, v.values, theta, sigma=sig).rhs)
