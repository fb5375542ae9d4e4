"""Relaxation profiles sigma(x) > 0 on the torus.

A profile is constant, piecewise constant on half-open pieces
(x_{i-1}, x_i], or sampled on a grid. At a jump the left-limit value is
used, so the node x = 0 (= 2*pi) carries the value of the last piece.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError
from .torus import TWO_PI, GridFunction, nodes

_BREAK_TOL = 1e-12


def _parse_angle(token: str) -> float:
    """Parse '1.5', 'pi', '2pi', '0.5pi' into radians."""
    token = token.strip().lower()
    m = re.fullmatch(r"([0-9.]*)\s*pi", token)
    if m:
        factor = float(m.group(1)) if m.group(1) else 1.0
        return factor * math.pi
    return float(token)


@dataclass(frozen=True)
class RelaxationProfile:
    """sigma(x) with positive essential bounds sigma_min <= sigma <= sigma_max."""

    kind: str  # "constant" | "piecewise" | "sampled"
    value: float | None = None
    pieces: tuple[tuple[float, float], ...] | None = None  # (breakpoint, value)
    grid: GridFunction | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.value is None or self.value <= 0:
                raise ValidationError(f"sigma must be positive, got {self.value}")
        elif self.kind == "piecewise":
            if not self.pieces:
                raise ValidationError("piecewise profile needs at least one piece")
            breaks = [b for b, _ in self.pieces]
            vals = [v for _, v in self.pieces]
            if any(v <= 0 for v in vals):
                raise ValidationError(f"sigma must be positive everywhere, got {vals}")
            if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
                raise ValidationError(f"breakpoints must be strictly increasing, got {breaks}")
            if not breaks[0] > 0.0:
                raise ValidationError(f"first breakpoint must be positive, got {breaks}")
            if not abs(breaks[-1] - TWO_PI) <= _BREAK_TOL:
                raise ValidationError("last breakpoint must be 2pi so pieces cover the torus")
        elif self.kind == "sampled":
            if self.grid is None or self.grid.is_complex:
                raise ValidationError("sampled profile needs real grid samples")
            if np.min(self.grid.values) <= 0:
                raise ValidationError("sigma must be positive at every sample")
        else:
            raise ValidationError(f"unknown profile kind {self.kind!r}")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "RelaxationProfile":
        return cls(kind="constant", value=float(value))

    @classmethod
    def piecewise(cls, pieces) -> "RelaxationProfile":
        return cls(kind="piecewise", pieces=tuple((float(b), float(v)) for b, v in pieces))

    @classmethod
    def two_piece(cls, value1: float, value2: float) -> "RelaxationProfile":
        """value1 on (0, pi], value2 on (pi, 2pi]."""
        return cls.piecewise([(math.pi, value1), (TWO_PI, value2)])

    @classmethod
    def from_grid(cls, grid: GridFunction) -> "RelaxationProfile":
        return cls(kind="sampled", grid=grid)

    @classmethod
    def parse(cls, text: str) -> "RelaxationProfile":
        """Parse CLI syntax: 'const:5', 'pc:1@pi,4@2pi', 'file:samples.csv'."""
        try:
            tag, _, body = text.partition(":")
            if tag == "const":
                return cls.constant(float(body))
            if tag == "pc":
                pieces = []
                for chunk in body.split(","):
                    val, _, brk = chunk.partition("@")
                    pieces.append((_parse_angle(brk), float(val)))
                return cls.piecewise(pieces)
            if tag == "file":
                return cls.from_grid(GridFunction.from_csv(body))
        except ValidationError:
            raise
        except (ValueError, OSError) as exc:
            raise ValidationError(f"cannot parse sigma spec {text!r}: {exc}") from exc
        raise ValidationError(
            f"unknown sigma spec {text!r}; expected const:V, pc:V@B,..., or file:PATH"
        )

    # -- queries ----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "piecewise":
            vals = {v for _, v in self.pieces}
            return len(vals) == 1
        return bool(np.ptp(self.grid.values) == 0.0)

    @property
    def sigma_min(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "piecewise":
            return min(v for _, v in self.pieces)
        return float(np.min(self.grid.values))

    @property
    def sigma_max(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "piecewise":
            return max(v for _, v in self.pieces)
        return float(np.max(self.grid.values))

    def as_two_piece(self) -> tuple[float, float]:
        """(value on (0, pi], value on (pi, 2pi]) or raise if not of that shape."""
        if self.kind == "constant":
            return self.value, self.value
        if self.kind == "piecewise" and len(self.pieces) == 2:
            (b1, v1), (_, v2) = self.pieces
            if abs(b1 - math.pi) < _BREAK_TOL:
                return v1, v2
        raise ValidationError("profile is not two-piece with breakpoint pi")

    def candidate_values(self) -> np.ndarray:
        """Values at which x-wise conditions are checked (pieces or samples)."""
        if self.kind == "constant":
            return np.asarray([self.value])
        if self.kind == "piecewise":
            return np.asarray([v for _, v in self.pieces])
        return np.unique(self.grid.values)

    def sample(self, n: int) -> np.ndarray:
        """Values at the grid nodes x_j = 2*pi*j/n (left limits at jumps)."""
        if self.kind == "constant":
            return np.full(n, self.value)
        if self.kind == "sampled":
            if self.grid.n != n:
                raise GridMismatchError(
                    f"profile sampled at N={self.grid.n}, requested N={n}"
                )
            return np.asarray(self.grid.values)
        x = nodes(n).copy()
        x[x <= 0.0] = TWO_PI  # node 0 belongs to the last half-open piece
        breaks = np.asarray([b for b, _ in self.pieces])
        vals = np.asarray([v for _, v in self.pieces])
        idx = np.searchsorted(breaks, x - _BREAK_TOL, side="left")
        return vals[idx]


def as_samples(sigma, n: int) -> np.ndarray:
    """Coerce a profile, grid function, array, or scalar to node samples."""
    if isinstance(sigma, RelaxationProfile):
        return sigma.sample(n)
    if isinstance(sigma, GridFunction):
        if sigma.n != n:
            raise GridMismatchError(f"sigma sampled at N={sigma.n}, requested N={n}")
        return np.asarray(sigma.values)
    if np.isscalar(sigma):
        return np.full(n, float(sigma))
    arr = np.asarray(sigma, dtype=float)
    if arr.shape != (n,):
        raise GridMismatchError(f"sigma samples have shape {arr.shape}, expected ({n},)")
    return arr


def as_profile(sigma) -> RelaxationProfile:
    """Coerce a scalar, grid function, or profile to a RelaxationProfile."""
    if isinstance(sigma, RelaxationProfile):
        return sigma
    if isinstance(sigma, GridFunction):
        return RelaxationProfile.from_grid(sigma)
    if np.isscalar(sigma):
        return RelaxationProfile.constant(float(sigma))
    raise ValidationError(f"cannot interpret {type(sigma).__name__} as a relaxation profile")
