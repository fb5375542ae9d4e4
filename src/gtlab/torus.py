"""Periodic grid functions on the torus [0, 2pi) with spectral calculus.

Functions are real, sampled at the uniform nodes x_j = 2*pi*j/N, j = 0..N-1
(the endpoint x = 2*pi is identified with x = 0 and not stored). All integrals
carry the 1/(2*pi) normalisation, so ``average(one) == 1`` and
``inner(sin, sin) == 1/2``.

The derivative and the anti-derivative are Fourier multipliers on the real
transform, with the Nyquist mode zeroed. The anti-derivative is the
mean-zero primitive of f - avg f: division by ik, with the k = 0 mode zeroed
too. ``primitive`` applies it to plain sample arrays, ``antiderivative`` to
grid functions.

Every CSV file the package writes goes through ``write_csv``, which prints
floats with 17 significant digits so that they read back exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError

TWO_PI = 2.0 * np.pi

_MIN_N = 8


def nodes(n: int) -> np.ndarray:
    """Grid nodes x_j = 2*pi*j/n, j = 0..n-1."""
    if n < 1:
        raise ValidationError(f"a grid needs at least one node, got n = {n}")
    return np.arange(n) * (TWO_PI / n)


def _validate_n(n: int) -> None:
    if n < _MIN_N or n % 2 != 0:
        raise ValidationError(
            f"grid resolution must be an even integer >= {_MIN_N}, got {n}"
        )


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Immutable real samples of a 2*pi-periodic function on a uniform grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {v.shape}")
        _validate_n(v.shape[0])
        if np.iscomplexobj(v):
            raise ValidationError("grid function samples must be real")
        v = np.array(v, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"GridFunction(n={self.n})"

    # -- serialization -----------------------------------------------------
    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """The value column of a CSV file: a header row, then rows (x, value).

        Row j's x must be the node 2*pi*j/n to within 1 % of the grid spacing.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if len(next(reader, [])) < 2:
                raise ValidationError(f"expected an (x, value) header row in {path}")
            xs, vals, lines = [], [], []
            try:
                for row in reader:
                    if row:
                        xs.append(float(row[0]))
                        vals.append(float(row[1]))
                        lines.append(reader.line_num)
            except (IndexError, ValueError, csv.Error) as exc:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: expected a row (x, value) of numbers"
                ) from exc
        f = cls(np.asarray(vals))
        x = nodes(f.n)
        # negated, so that a NaN x is off the grid too
        off = np.flatnonzero(~(np.abs(np.asarray(xs) - x) <= 0.01 * TWO_PI / f.n))
        if off.size:
            j = off[0]
            raise ValidationError(
                f"{path}, line {lines[j]}: x = {xs[j]!r} is not the grid node "
                f"2*pi*{j}/{f.n} = {float(x[j])!r}"
            )
        return f


def _format_cell(x) -> str:
    """One CSV cell: '' for None, strings as they are, integers exactly, floats to 17 digits."""
    if isinstance(x, float):  # np.float64 too; nearly every cell is one
        return format(x, ".17g")
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header row and then one row per item of ``rows``.

    A 2-D float array is written with one "%.17g,...,%.17g" format per row,
    which prints the same bytes as ``_format_cell`` does cell by cell.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
        else:
            writer.writerows([_format_cell(v) for v in row] for row in rows)


def average(f: GridFunction) -> float:
    """(1/2pi) int f dx; on the uniform periodic grid this is the sample mean."""
    return float(np.mean(f.values))


def inner(f: GridFunction, g: GridFunction) -> float:
    """<f, g> = (1/2pi) int f g dx via the grid mean."""
    if f.n != g.n:
        raise GridMismatchError(f"incompatible grids: N={f.n} vs N={g.n}")
    return float(np.dot(f.values, g.values) / f.n)


def norm_sq(f: GridFunction) -> float:
    return float(np.dot(f.values, f.values) / f.n)


def norm(f: GridFunction) -> float:
    return float(np.sqrt(norm_sq(f)))


def _fourier_multiply(values, multiplier: np.ndarray) -> np.ndarray:
    """Samples times a Fourier multiplier on the modes k = 0..n/2, along the last axis.

    The multiplier goes through the real transform as one product over the
    contiguous spectrum (in-place complex arithmetic on a strided slice is
    several times slower).
    """
    v = np.asarray(values)
    c = np.fft.rfft(v, axis=-1)
    c *= multiplier
    return np.fft.irfft(c, v.shape[-1], axis=-1)


def derivative(f: GridFunction) -> GridFunction:
    """Spectral derivative: multiply by ik; the Nyquist mode is zeroed."""
    ik = 1j * np.arange(f.n // 2 + 1)
    ik[-1] = 0.0
    return GridFunction(_fourier_multiply(f.values, ik))


def primitive(values) -> np.ndarray:
    """Mean-zero primitive of f - avg f on plain samples of f, along the last axis.

    Leading axes index separate functions, so one call serves a whole block
    of records. The multiplier is 1/(ik), with the k = 0 and Nyquist modes
    zeroed.
    """
    return _fourier_multiply(values, _inverse_ik(np.shape(values)[-1] // 2 + 1))


def _inverse_ik(modes: int) -> np.ndarray:
    """The primitive's multiplier 1/(ik) = -i/k on the modes k = 0 .. modes - 1, 0 at both ends."""
    inverse_ik = np.zeros(modes, dtype=complex)
    inverse_ik[1:-1] = -1j / np.arange(1, modes - 1)
    return inverse_ik


def antiderivative(f: GridFunction) -> GridFunction:
    """Mean-zero primitive of f - avg f (see ``primitive``)."""
    return GridFunction(primitive(f.values))


def random_band_limited(n: int, seed=None, zero_mean: bool = False) -> GridFunction:
    """Seeded random real trigonometric polynomial with modes |k| <= n // 8.

    a_0 + sum_k a_k cos(kx) + b_k sin(kx), every amplitude uniform on
    [-1, 1]: a_0 is drawn first (and is 0, undrawn, when ``zero_mean``),
    then the pairs (a_k, b_k) in order of k. The samples come from one
    inverse real FFT of the coefficients n a_0 and (n/2)(a_k - i b_k), so a
    seed gives the same polynomial as a sum of cosines and sines would, with
    no rounding of the angles k x_j.
    """
    _validate_n(n)
    rng = np.random.default_rng(seed)
    c = np.zeros(n // 2 + 1, dtype=complex)
    if not zero_mean:
        c[0] = n * rng.uniform(-1.0, 1.0)
    a, b = rng.uniform(-1.0, 1.0, size=(n // 8, 2)).T
    c[1 : n // 8 + 1] = (n / 2) * (a - 1j * b)
    return GridFunction(np.fft.irfft(c, n))
