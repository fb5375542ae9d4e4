"""Relaxation profiles sigma(x) > 0 on the torus.

Every profile is a tuple of pieces (x_i, value): the value holds on the
half-open piece (x_{i-1}, x_i], with x_0 = 0 and the last x_i = 2*pi. At a
jump the left-limit value is used, so the node x = 0 (= 2*pi) carries the
value of the last piece. A constant is one piece. Node samples s_j at
x_j = 2*pi*j/n are n pieces: the piece ending at x_j carries s_j and the
last one, ending at 2*pi, carries s_0. Such a profile keeps its n and is
sampled only at that n.

Every library function that takes sigma takes a RelaxationProfile; build
one with ``constant``, ``two_piece``, ``piecewise``, ``from_grid`` or
``parse``.
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
    """sigma(x) with positive essential bounds sigma_min <= sigma <= sigma_max.

    ``pieces`` holds (right end x_i, value on (x_{i-1}, x_i]); ``n`` is the
    sample count of a profile built from node samples, and None otherwise.
    """

    pieces: tuple[tuple[float, float], ...]
    n: int | None = None

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("profile needs at least one piece")
        breaks = [b for b, _ in self.pieces]
        for end, value in self.pieces:
            if not 0.0 < value < math.inf:
                raise ValidationError(
                    f"sigma must be positive and finite everywhere, got {value} on the piece "
                    f"ending at x = {end:.6g}"
                )
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValidationError(f"breakpoints must be strictly increasing, got {breaks}")
        if not breaks[0] > 0.0:
            raise ValidationError(f"first breakpoint must be positive, got {breaks}")
        if not abs(breaks[-1] - TWO_PI) <= _BREAK_TOL:
            raise ValidationError("last breakpoint must be 2pi so pieces cover the torus")
        if self.n is not None and self.n != len(self.pieces):
            raise ValidationError(f"{len(self.pieces)} pieces for {self.n} node samples")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "RelaxationProfile":
        return cls.piecewise([(TWO_PI, value)])

    @classmethod
    def piecewise(cls, pieces) -> "RelaxationProfile":
        return cls(tuple((float(b), float(v)) for b, v in pieces))

    @classmethod
    def two_piece(cls, value1: float, value2: float) -> "RelaxationProfile":
        """value1 on (0, pi], value2 on (pi, 2pi]."""
        return cls.piecewise([(math.pi, value1), (TWO_PI, value2)])

    @classmethod
    def from_grid(cls, grid: GridFunction) -> "RelaxationProfile":
        """n pieces ending at x_1, ..., x_{n-1}, 2*pi and carrying s_1, ..., s_{n-1}, s_0."""
        ends = np.append(nodes(grid.n)[1:], TWO_PI)
        values = np.roll(grid.values, -1)
        return cls(tuple(zip(ends.tolist(), values.tolist())), n=grid.n)

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
        return len({v for _, v in self.pieces}) == 1

    @property
    def sigma_min(self) -> float:
        return min(v for _, v in self.pieces)

    @property
    def sigma_max(self) -> float:
        return max(v for _, v in self.pieces)

    def as_two_piece(self) -> tuple[float, float]:
        """(value on (0, pi], value on (pi, 2pi]) or raise if not of that shape.

        A profile built from node samples holds only on its own grid, so it
        is never of that shape.
        """
        breaks = [b for b, _ in self.pieces]
        if self.n is None and (
            len(breaks) == 1 or (len(breaks) == 2 and abs(breaks[0] - math.pi) < _BREAK_TOL)
        ):
            return self.pieces[0][1], self.pieces[-1][1]
        raise ValidationError("profile is not two-piece with breakpoint pi")

    def sample(self, n: int) -> np.ndarray:
        """Values at the grid nodes x_j = 2*pi*j/n (left limits at jumps)."""
        if self.n is not None and n != self.n:
            raise GridMismatchError(f"profile sampled at N={self.n}, requested N={n}")
        x = nodes(n)
        x[x <= 0.0] = TWO_PI  # node 0 belongs to the last half-open piece
        breaks, vals = np.array(self.pieces).T
        return vals[np.searchsorted(breaks, x - _BREAK_TOL, side="left")]

