"""Time integration of the 2- and 3-velocity relaxation systems on the torus.

The default scheme is Strang splitting in kinetic variables with both
sub-flows exact: relaxation R is a pointwise exponential and transport T an
integer index shift (which requires dt to be a multiple of dx = 2*pi/N).
Its only error is the O(dt^2) splitting commutator, and it has no Gibbs
artifacts for discontinuous sigma. A spectral RK4 integrator of the same
kinetic equations is available as a cross-check for smooth data.

The k-step Strang product (R_half T R_half)^k has its inner half-relaxations
merged: the stepper carries g = T R_half f, the state after transport and
before the closing half-relaxation, and advances it by g <- T R_1 g with a
single relaxation factor exp(-sigma dt) per step. The kinetic state at a
record is f = R_half g; the stepper's ``finish`` applies it (for RK4,
``finish`` is the identity). The t0 record is taken from the initial state.

Both relaxations are written f_i <- e f_i + w S, with S the sum over
velocities, e = exp(-sigma tau) and w = (1 - e)/V. In the split stepper
transport moves no data: each velocity row stays in place in its own moving
frame, between periodic halos that feed it for up to _FRAME_STEPS steps, and
the rows lined up in physical x are one strided view. A split step is four
ufunc calls over that view for any number of velocities: the operations of
relaxing and shifting row by row, in their order, so the same bits. Once
per _FRAME_STEPS steps or fewer each row is copied back to the middle of
its frame. RK4 is evaluated by Horner: the kinetic generator A is linear
and time-independent, so the four-stage step is exactly the degree-4 Taylor
polynomial of exp(hA). That makes the RK4 step a fixed linear map M, and a
record interval of r steps the fixed map M^r: when the dense step matrix,
(V*n)^2 * 8 bytes, fits _STEP_MATRIX_BYTES, M^r is built once per run by
binary powering from the Horner stages and a whole record interval is one
vector-matrix product; on larger grids the Horner stages step the state.
So the record stride changes the rounding of an RK4 run, not its scheme.

At constant sigma either scheme maps each Fourier mode of the kinetic rows
to itself by a V x V matrix, its symbol, and a record interval of r steps
is the symbol's r-th power. Every constant-sigma run is stepped by
_mode_step: it carries the forward-normalised rfft of the kinetic rows and
takes a record interval as one product with the cached power, so its cost
goes with the records, not the steps. It is the same scheme, rounded
differently. Its records are read from those modes by Parseval
(``entropy.MODES``), so the run's only irfft makes the final state. Other
runs keep the steppers in x and record from samples.

Relaxation keeps the summed density S = sum_i f_i pointwise, so a scheme
whose transport keeps |L|, L = sum_j (-1)^j S_j / n the checkerboard of S,
never damps it: RK4, whose spectral derivative is zero at Nyquist, and the
split scheme when every shift c_i m has the same parity, always for (+1, -1)
and for (+1, 0, -1) when m is even. A fit of such a run would read as a
counterexample to the decay theorem, so a run refuses it before any step
when |L| exceeds _CHECKERBOARD_ROUNDING of the largest kinetic value. It
refuses a twist |theta| >= 2 there too: E_theta is a norm only for
|theta| < 2 (``entropy.equivalence_bounds``), so its fitted decay rate would
say nothing about the state's.

Each stepper is built on the initial kinetic array and advances the state
it carries k steps per call; the run advances it one record interval at a
time.

Both systems run through one stepper over a (V, n) array of kinetic
densities, driven by the velocity set: (+1, -1) for two velocities and
(+1, 0, -1) for three. Recorded states are staged in a (B, V, n) block and
one record pass computes every diagnostic column of a block at once. The
block holds at most _BLOCK_RECORDS states and at most _STAGE_BYTES bytes,
which bounds the staging memory at large n. A run asks for at most
_MAX_CELL_UPDATES cell updates (steps times V*n), which bounds its time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import MODES, SAMPLES, Basis, entropy_terms
from .entropy import entropy_2v  # noqa: F401 (gtlab.solver.entropy_2v stays importable)
from .errors import NumericalError, ValidationError
from .torus import TWO_PI, GridFunction

SCHEME_SPLIT = "split"
SCHEME_RK4 = "rk4"

#: Orthogonal change of variables between kinetic (f1, f2, f3) and
#: macroscopic (u1, u2, u3) for the three-velocity system.
TRANSFORM_3V = np.array(
    [
        [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
        [1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)],
        [1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0)],
    ]
)


# ---------------------------------------------------------------------------
# states


def _check_same_grid(*gfs: GridFunction) -> int:
    n = gfs[0].n
    if any(g.n != n for g in gfs):
        sizes = ", ".join(str(g.n) for g in gfs)
        raise ValidationError(f"state components must share one grid, got n = {sizes}")
    return n


@dataclass(frozen=True)
class MacroState2V:
    """Mass density u and flux density v at one time."""

    u: GridFunction
    v: GridFunction
    t: float = 0.0

    def __post_init__(self):
        _check_same_grid(self.u, self.v)

    @property
    def n(self) -> int:
        return self.u.n


@dataclass(frozen=True)
class MacroState3V:
    """Macroscopic triple (u1, u2, u3): mass, flux, energy-like combination."""

    u1: GridFunction
    u2: GridFunction
    u3: GridFunction
    t: float = 0.0

    def __post_init__(self):
        _check_same_grid(self.u1, self.u2, self.u3)

    @property
    def n(self) -> int:
        return self.u1.n


def to_macro3(f1: GridFunction, f2: GridFunction, f3: GridFunction, t: float = 0.0) -> MacroState3V:
    """Apply the orthogonal kinetic-to-macro transform."""
    _check_same_grid(f1, f2, f3)
    with np.errstate(invalid="ignore"):  # inf can turn nan here; the solver refuses both before a step
        u = _SYSTEM_3V.macro @ np.vstack([f1.values, f2.values, f3.values])
    return MacroState3V(GridFunction(u[0]), GridFunction(u[1]), GridFunction(u[2]), t)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Recorded diagnostics of one simulation, plus the final state."""

    times: np.ndarray
    columns: dict
    dt: float
    theta: float
    final: object

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def pair_norm(self) -> np.ndarray:
        """L2 norm of the deviation pair, sqrt(||u - u_avg||^2 + ||v||^2)."""
        return np.sqrt(self.columns["norm_u_dev"] ** 2 + self.columns["norm_v"] ** 2)

    def entropy_increases(self) -> np.ndarray:
        """Per-step increments of the recorded entropy (should be <= 0)."""
        return np.diff(self.columns["entropy"])

    def evolution_residuals(self) -> np.ndarray:
        """|centered dE/dt - recorded rhs| at interior record points (2v only)."""
        if "rhs" not in self.columns:
            raise ValidationError("evolution residuals are defined for 2v trajectories")
        e = self.columns["entropy"]
        h = np.diff(self.times)
        if not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
            raise ValidationError("residuals need uniformly spaced records")
        quotient = (e[2:] - e[:-2]) / (2.0 * h[0])
        return np.abs(quotient - self.columns["rhs"][1:-1])


# ---------------------------------------------------------------------------
# the kinetic stepper


@dataclass(frozen=True)
class _System:
    """What the stepper needs to know about one discrete-velocity system."""

    velocities: tuple
    macro: np.ndarray  # kinetic rows -> (mass density, flux[, u3])
    kinetic: np.ndarray  # its inverse: macroscopic rows -> kinetic rows
    columns: tuple  # the names of the values _diagnostics returns, in order
    state: type


_SYSTEM_2V = _System(
    velocities=(1, -1),
    macro=np.array([[1.0, 1.0], [1.0, -1.0]]),
    kinetic=np.array([[0.5, 0.5], [0.5, -0.5]]),  # f_+- = (u +- v)/2
    columns=("entropy", "norm_u_dev", "norm_v", "v_avg", "mass", "rhs"),
    state=MacroState2V,
)
_SYSTEM_3V = _System(
    velocities=(1, 0, -1),
    macro=TRANSFORM_3V,
    kinetic=TRANSFORM_3V.T,  # the transform is orthogonal
    columns=("entropy", "norm_u1_dev", "norm_u2", "norm_u3", "u2_avg", "mass"),
    state=MacroState3V,
)


def _split_shift_cells(dt: float, dx: float) -> int:
    m = dt / dx
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValidationError(
            f"split scheme needs dt = m*dx with integer m >= 1, got dt/dx = {m}"
        )
    return int(round(m))


#: Most split steps per block of the moving frames: each row of the split
#: stepper carries a block's shifts of halo on either side and is re-centred
#: once per block. Blocks are shorter at large shifts, so that the halos hold
#: at most max(n/4, |m|) cells: the frames then take at most twice the state.
_FRAME_STEPS = 64


def _split_step(velocities, sig, dt: float, n: int, f):
    """Strang steps with merged half-relaxations from the kinetic array f; returns (advance, finish).

    Relaxation over a time tau moves each f_i toward the pointwise mean over
    the V velocities: f_i <- e f_i + w S, with S = sum_j f_j,
    e = exp(-sigma tau) and w = (1 - e)/V. Transport moves row i by c_i*m
    cells, m folded into (-n/2, n/2], and moves no data: row i stays in
    place in its own frame, whose origin moves c_i*m cells per step. The
    frame is n + 2H cells long: the row's n cells between two halos of
    H = K|m| cells, K = min(_FRAME_STEPS, max(1, n // (4|m|))) (H = 0 when
    m = 0).

    Steps go in blocks of K. Step 0 of a block relaxes the n cells in the
    middle of each frame and copies them periodically into the halos, which
    then feed the shifting window for the rest of the block. Step k relaxes
    the n + 2(H - k|m|) cells of each row that the block's last window still
    depends on. The velocities are linear in the row index, so those cells
    of all rows, lined up in physical x, form one strided view W, of row
    stride n + 2H + (c_0 - c_1) m k, and a step is four ufunc calls for any
    V: S = W summed over rows, S *= w, W *= e, W += S. These are the
    operations of relaxing and shifting row by row, in their order, so they
    give the same bits. After K steps each row's window is copied back to
    the middle of its frame.

    advance(k) takes k steps and returns a (V, n) view of the carried state,
    valid until the next call. The run's first step uses the half-step
    factors and every later one the full-step ones. finish(states) applies
    the closing half-relaxation, in the same form, in place to the carried
    states, stacked on any leading axes, and returns them.
    """
    shift = _split_shift_cells(dt, TWO_PI / n) % n
    if shift > n // 2:
        shift -= n
    count, c0 = len(velocities), velocities[0]
    spread = c0 - velocities[1]  # c_i = c0 - i * spread for both velocity sets
    reach = abs(shift)
    blocks = min(_FRAME_STEPS, max(1, n // (4 * reach))) if reach else _FRAME_STEPS
    halo = blocks * reach
    length = n + 2 * halo
    buffer = np.empty((count, length))
    buffer[:, halo : halo + n] = f
    flat = buffer.reshape(-1)
    shared = np.empty(length)

    def frame(k, margin):
        """The rows at block step k, lined up in physical x over [-margin, n + margin)."""
        start = halo - margin - c0 * shift * k
        stride = length + spread * shift * k
        return np.ndarray(
            (count, n + 2 * margin), buffer=flat, offset=start * 8, strides=(stride * 8, 8)
        )

    half, full = np.exp(-sig * dt / 2.0), np.exp(-sig * dt)
    half_factors = (half, (1.0 - half) / count)
    # the full-step factors over [-H, n + H), lined up with the widest W
    decay, weight = (
        np.concatenate([row[n - halo :], row, row[:halo]]) for row in (full, (1.0 - full) / count)
    )
    full_factors = (decay[halo : halo + n], weight[halo : halo + n])
    later = [  # (W, S, e, w) of block steps 1 .. K - 1
        (
            frame(k, halo - k * reach),
            shared[: length - 2 * k * reach],
            decay[k * reach : length - k * reach],
            weight[k * reach : length - k * reach],
        )
        for k in range(1, blocks)
    ]
    windows = [frame(k, 0) for k in range(blocks + 1)]  # the (V, n) state after k block steps
    factors, position = half_factors, 0

    def relax(steps):
        for rows, total, decay, weight in steps:
            np.add.reduce(rows, axis=0, out=total)
            total *= weight
            rows *= decay
            rows += total

    def advance(k):
        nonlocal factors, position
        while k:
            if position == blocks:
                for row, cells in zip(buffer, windows[blocks]):
                    shared[:n] = cells
                    row[halo : halo + n] = shared[:n]
                position = 0
            if position == 0:
                relax([(windows[0], shared[:n], *factors)])
                factors = full_factors
                buffer[:, :halo] = buffer[:, n : n + halo]
                buffer[:, n + halo :] = buffer[:, halo : 2 * halo]
                position, k = 1, k - 1
            else:
                take = min(k, blocks - position)
                relax(later[position - 1 : position - 1 + take])
                position, k = position + take, k - take
        return windows[position]

    def finish(states):
        decay, weight = half_factors
        total = states.sum(axis=-2, keepdims=True)
        total *= weight
        states *= decay
        states += total
        return states

    return advance, finish


#: Largest RK4 step matrix, (V*n)^2 * 8 bytes, that _rk4_step caches in place
#: of the Horner stages. Below it a Horner step is dominated by numpy's
#: per-call cost of four rfft/irfft pairs, not by arithmetic, while the
#: vector-matrix product reads a matrix that stays in cache. Per step on a
#: shared 2-core Xeon VM (2 MiB L2 per core, numpy 2.4.6, OpenBLAS with 1 or
#: 2 threads), matrix vs Horner: 2v n = 256 (2 MiB) 54-62 us vs 100-116 us,
#: 3v n = 192 (2.53 MiB) 100-103 us vs 110-160 us, 2v n = 320 (3.12 MiB)
#: 137-152 us vs 104-121 us, 2v n = 512 (8 MiB) 190-387 us vs 123-160 us
#: (BENCH_rk4_step.json). 2.5 MiB admits 2v up to n = 286 and 3v up to n = 190.
_STEP_MATRIX_BYTES = 2560 * 1024
#: Rows pushed through the Horner stages, or squared, at once while the step
#: matrix and its power are built; at n = 256 each of the build's temporaries
#: is about 256 kB.
_MATRIX_CHUNK = 64


def _rk4_step(velocities, sig, dt: float, n: int, stride: int, f):
    """Classical RK4 of f' = A f, A f_i = -c_i d/dx f_i - sigma (f_i - mean f), spectral in x.

    A is linear and does not depend on time, so the four-stage RK4 step is
    exactly the Taylor polynomial 1 + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
    h = dt. The Horner stages evaluate it, y <- f + (h/k) A y for
    k = 4, 3, 2, 1, with h/k folded into the transport and sigma arrays of
    each stage; they step states of shape (..., V, n). A time-dependent or
    nonlinear A would need the stages k1..k4 instead.

    The step is a fixed linear map M, and so is a record interval of
    ``stride`` steps: M^stride. When the dense step matrix, (V*n)^2 * 8
    bytes, fits _STEP_MATRIX_BYTES, M^stride is built once by _step_power
    and advance(k) steps each whole stride by one vector-matrix product
    and a shorter rest by the Horner stages. A product with M^stride rounds
    differently from stride single steps, but it is the same scheme. If
    M^stride has a non-finite entry, which happens only far past RK4's
    stability limit, M itself is cached instead and every step is one
    product. On larger grids advance runs the Horner stages k times.
    Returns (advance, finish): advance(k) steps the kinetic array f by k
    steps and returns it. The carried state is f itself, so finish is the
    identity.
    """
    transport = -1j * np.outer(velocities, np.arange(n // 2 + 1))
    transport[:, n // 2] = 0.0  # the Nyquist mode is zeroed, as in torus.derivative
    count = len(velocities)
    stages = [(dt / k * transport, dt / k * sig) for k in (4, 3, 2, 1)]

    def horner(f):
        y = f
        for scaled_transport, scaled_sig in stages:
            y_hat = np.fft.rfft(y, axis=-1)
            y_hat *= scaled_transport
            out = np.fft.irfft(y_hat, n, axis=-1)
            # y - y.mean(axis=-2), without its overhead
            dev = y - np.add.reduce(y, axis=-2, keepdims=True) / count
            dev *= scaled_sig
            out -= dev
            out += f
            y = out
        return y

    cells = count * n
    power = None
    if cells * cells * 8 <= _STEP_MATRIX_BYTES:
        power = _step_power(horner, count, n, stride)
        if stride > 1 and not np.isfinite(power).all():
            stride, power = 1, _step_power(horner, count, n, 1)

    def advance(k):
        nonlocal f
        if power is not None:
            for _ in range(k // stride):
                f = (f.reshape(cells) @ power).reshape(count, n)
            k %= stride
        for _ in range(k):
            f = horner(f)
        return f

    return advance, lambda states: states


def _step_power(horner, count: int, n: int, stride: int) -> np.ndarray:
    """M^stride, M the dense RK4 step matrix whose row j is the step of unit state j.

    A flat state steps as f @ M. Binary powering, from the leading bit of
    stride down: each bit squares the power into one spare matrix, which
    then swaps roles with it, and each set bit multiplies it by M. That
    product pushes the power's rows through the Horner stages, _MATRIX_CHUNK
    rows at a time, in place; pushing the identity builds M. So at most two
    matrices are held while building, and one, the power, afterwards. The
    squares too are taken _MATRIX_CHUNK rows at a time: a whole-matrix
    product packs larger BLAS panels, and in one 8 s decay-sparse benchmark
    run (seed 3) peaked at 48.8 MB resident against 47.7 MB (45.1 MB when
    RK4 cached M alone).
    """
    cells = count * n

    def times_step(rows):
        for start in range(0, cells, _MATRIX_CHUNK):
            chunk = rows[start : start + _MATRIX_CHUNK]
            chunk[:] = horner(chunk.reshape(-1, count, n)).reshape(len(chunk), cells)

    power = np.eye(cells)
    times_step(power)
    spare = np.empty_like(power) if stride > 1 else None
    for bit in bin(stride)[3:]:
        for start in range(0, cells, _MATRIX_CHUNK):
            rows = slice(start, start + _MATRIX_CHUNK)
            np.matmul(power[rows], power, out=spare[rows])
        power, spare = spare, power
        if bit == "1":
            times_step(power)
    return power


def _mode_step(velocities, sig: float, dt: float, n: int, scheme: str, stride: int, modes):
    """Either scheme at constant sigma, stepped one Fourier mode at a time; returns (advance, finish).

    At constant sigma both schemes map each Fourier mode k = 0 .. n/2 of
    the kinetic rows to itself, by a V x V matrix G_k, the scheme's symbol;
    the symbols are one (V, V, n/2 + 1) array. The split step is the Strang
    step itself, G_k = R(dt/2) P_k R(dt/2), with the transport phases
    P_k = diag(exp(-2 pi i k c_i m / n)) and the relaxation
    R(tau) = e I + (1 - e) 11^T / V, e = exp(-sigma tau). RK4's G_k is the
    Horner polynomial of h A_k, A_k = -i k diag(c) - sigma (I - 11^T / V),
    with the transport of mode n // 2 zeroed as in _rk4_step.

    The stepper carries ``modes``, the (V, n/2 + 1) rfft of the kinetic
    rows, forward-normalised so that no mode exceeds max |f| and the carried
    state overflows no earlier than f. A record interval of ``stride`` steps
    is the symbols' power G_k^stride, built once by _symbol_power, and
    advance(k) steps each whole stride by one product with it and returns
    the carried modes, a new array. A k that is not a multiple of the
    stride, the run's last and shorter interval, gets its own power in
    place of the stride's: one product, where k single products cost more.
    At n = 4096 on a shared 2-core Xeon VM (numpy 2.4.6), 60 single
    products took 1.3-1.6 ms at two velocities and 2.6-2.7 ms at three,
    building their power and one product 0.4-0.5 ms and 1.25-1.4 ms. The
    stride's power is dropped before that build, so the build holds no more
    than the first did. If a power has a non-finite entry, which happens
    only far past RK4's stability limit, every step is one product with
    G_k, so that a zero state stays zero. The carried state is f's own
    modes, so finish is the identity.
    """
    symbol = _mode_symbol(velocities, sig, dt, n, scheme)

    def powered(k):
        power = symbol if k == 1 else _symbol_power(symbol, k)
        return (k, power) if np.isfinite(power).all() else (1, symbol)

    stride, power = powered(stride)
    state = modes

    def advance(k):
        nonlocal state, stride, power
        if k % stride:
            power = None  # freed before the build of k's power
            stride, power = powered(k)
        for _ in range(k // stride):
            state = np.einsum("ijk,jk->ik", power, state)
        return state

    return advance, lambda states: states


def _mode_symbol(velocities, sig: float, dt: float, n: int, scheme: str) -> np.ndarray:
    """The (V, V, n/2 + 1) symbols G_k of one step of ``scheme``, as _mode_step defines them."""
    count, modes = len(velocities), n // 2 + 1
    wavenumbers = np.arange(modes)
    if scheme == SCHEME_SPLIT:
        shift = _split_shift_cells(dt, TWO_PI / n) % n
        # the angle reduced mod n in integers, so that it stays exact at any k c_i m
        phases = np.exp(-1j * TWO_PI / n * (np.outer(velocities, wavenumbers) * shift % n))
        half = math.exp(-sig * dt / 2.0)
        relax = half * np.eye(count) + (1.0 - half) / count
        return np.tensordot(relax[:, :, None] * relax, phases, axes=(1, 0))
    generator = np.zeros((count, count, modes), dtype=complex)
    generator += (-sig * (np.eye(count) - 1.0 / count))[:, :, None]
    transport = -1j * np.outer(velocities, wavenumbers)
    transport[:, n // 2] = 0.0
    generator[range(count), range(count)] += transport
    symbol = np.eye(count)[:, :, None]
    for k in (4, 3, 2, 1):
        symbol = _symbol_product(generator, symbol)
        symbol *= dt / k
        symbol[range(count), range(count)] += 1.0
    return symbol


def _symbol_product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """The product a_k b_k of two (V, V, K) stacks of per-mode matrices, mode by mode.

    einsum sums over the inner index in its own loop, so the product holds
    no temporary beside its (V, V, K) result.
    """
    return np.einsum("ijk,jlk->ilk", a, b, out=out)


def _symbol_power(symbol: np.ndarray, k: int) -> np.ndarray:
    """symbol_k^k for every mode, by binary powering from the leading bit of k down.

    Each product goes into one spare array, which then swaps roles with the
    power, so the build holds two arrays beside the symbol.
    """
    power, spare = symbol.copy(), np.empty_like(symbol)
    for bit in bin(k)[3:]:
        _symbol_product(power, power, out=spare)
        power, spare = spare, power
        if bit == "1":
            _symbol_product(power, symbol, out=spare)
            power, spare = spare, power
    return power


#: Most cell updates, steps times V*n cells, one run may ask for: about 20 s
#: of split steps at the 4e8 to 6e8 cell updates per second measured at
#: n = 4096, two and three velocities (BENCH_split_frames.json). The largest
#: benchmark run asks for 4e7. The bound holds for runs that _mode_step
#: steps too, although they cost per record, not per step: past RK4's
#: stability limit they fall back to one product per step, and a run is
#: accepted or refused by its size alone, whatever its sigma.
_MAX_CELL_UPDATES = 10**10
#: Largest |L| taken as rounding, relative to max |f|, not max |S|: S rounds
#: relative to f, so a small S beside a large f is not refused for its rounding.
_CHECKERBOARD_ROUNDING = 1e-12
#: Most records staged for one record pass.
_BLOCK_RECORDS = 64
#: Most bytes of kinetic states staged for one record pass: 64 records at
#: n = 256, 5 at n = 4096 with three velocities.
_STAGE_BYTES = 512 * 1024


def _diagnostics(u: np.ndarray, sig, theta: float, basis: Basis) -> tuple:
    """The record columns of macroscopic rows u = (mass density, flux[, u3]).

    u has shape (..., V, n) of samples, or (..., V, n/2 + 1) of modes with
    the constant sigma; each column comes back with the leading shape.
    """
    mass = basis.mean(u[..., 0, :])
    dev = basis.deviation(u[..., 0, :], mass)
    flux = u[..., 1, :]
    flux_avg = basis.mean(flux)
    if u.shape[-2] == 2:
        e = entropy_terms(dev, flux, theta, sigma=sig, basis=basis)
        return e.entropy, np.sqrt(e.f_sq), np.sqrt(e.g_sq), flux_avg, mass, e.rhs
    e = entropy_terms(dev, flux, theta, h=u[..., 2, :], basis=basis)
    return e.entropy, np.sqrt(e.f_sq), np.sqrt(e.g_sq), np.sqrt(e.h_sq), flux_avg, mass


def _simulate(u, system: _System, profile, theta, t0, t_final, dt, scheme, record_every) -> Trajectory:
    """Advance the macroscopic rows u, shape (V, n), in kinetic form f; record system.columns.

    An initial state that holds nan or inf is refused before it is turned
    into f, so no nan is made and no numpy warning raised on the way.
    Records fall at t0, every ``record_every`` steps and at the last step;
    the stepper advances one record interval per call, so the RK4 and mode
    steppers cache the power of their step for r = min(record_every, steps).
    Each recorded carried state is copied into a stage; when the stage is
    full, or at the last step, one pass finishes and records the whole block.
    A constant-sigma run carries and records Fourier modes; the final state
    is their one irfft.
    A blow-up is looked for once per block, before its record pass, and
    named by the time of the first record that holds a non-finite value:
    relaxation and transport never turn a NaN or inf back into a finite one.
    A diagnostic can overflow while the state is still finite (the entropy
    squares it), so after the last step the first record with a non-finite
    diagnostic is named too. Overflow raises no numpy warning on the way:
    the error is the one account of a blow-up.
    """
    n = u.shape[1]
    dx = TWO_PI / n
    sig = profile.sample(n)
    if dt is None:
        dt = dx if scheme == SCHEME_SPLIT else dx / 2.0
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if record_every < 1:
        raise ValidationError(f"record_every must be at least 1, got {record_every}")
    if t_final <= 0:
        raise ValidationError(f"t_final must be positive, got {t_final}")
    if dt > t_final:
        raise ValidationError(f"dt = {dt:.6g} exceeds t_final = {t_final:.6g}; lower --dt")
    if not abs(theta) < 2.0:
        raise ValidationError(f"theta = {theta:g}: the entropy E_theta is a norm only for |theta| < 2")
    steps = round(t_final / dt)
    if scheme not in (SCHEME_SPLIT, SCHEME_RK4):
        raise ValidationError(f"unknown scheme {scheme!r}; use 'split' or 'rk4'")
    if not np.isfinite(u).all():
        raise ValidationError("the initial state is not finite: it holds nan or inf")
    f = system.kinetic @ u

    records = 1 + steps // record_every + (steps % record_every > 0)
    block = max(1, min(_BLOCK_RECORDS, records - 1, _STAGE_BYTES // f.nbytes))
    try:
        times = np.empty(records)
        values = np.empty((len(system.columns), records))
    except (MemoryError, ValueError):  # ValueError: a length past numpy's largest dimension
        raise ValidationError(
            f"{records:.3g} records ({steps:.3g} steps, one record every {record_every}) "
            "do not fit in memory; raise --record-every"
        ) from None
    if steps * f.size > _MAX_CELL_UPDATES:
        raise ValidationError(
            f"{steps} steps of {f.size} cells exceed the bound of {_MAX_CELL_UPDATES:.0e} "
            "cell updates; raise --dt or lower --t-final"
        )
    shift = _split_shift_cells(dt, dx) if scheme == SCHEME_SPLIT else None
    if shift is None or len({c * shift % 2 for c in system.velocities}) == 1:
        checkerboard = (f[:, ::2].sum() - f[:, 1::2].sum()) / n
        if abs(checkerboard) > _CHECKERBOARD_ROUNDING * np.max(np.abs(f)):
            how = "rk4" if shift is None else f"split with shift m = {shift} cells"
            raise ValidationError(
                f"the initial data has checkerboard component L = sum_j (-1)^j S_j / n = "
                f"{checkerboard:.6g}, S = sum_i f_i; scheme {how} conserves |L|, so it never decays"
            )
    done, staged, previous = 1, 0, 0
    stride, basis = min(record_every, steps), SAMPLES
    with np.errstate(over="ignore", invalid="ignore"):
        if profile.is_constant:
            basis, sig, f = MODES, sig[0], np.fft.rfft(f, axis=-1, norm="forward")
            advance, finish = _mode_step(system.velocities, sig, dt, n, scheme, stride, f)
        elif scheme == SCHEME_SPLIT:
            advance, finish = _split_step(system.velocities, sig, dt, n, f)
        else:
            advance, finish = _rk4_step(system.velocities, sig, dt, n, stride, f)
        times[0], values[:, 0] = t0, _diagnostics(system.macro @ f, sig, theta, basis)
        stage = np.empty((block,) + f.shape, f.dtype)
        for step in itertools.chain(range(record_every, steps, record_every), [steps]):
            f = advance(step - previous)
            previous = step
            t = t0 + step * dt
            times[done + staged] = t
            stage[staged] = f
            staged += 1
            if staged == block or step == steps:
                # modes are read as float pairs: the real macro matrix acts on
                # both parts alike, about three times faster than a complex product
                finite = np.isfinite(stage[:staged].view(float)).reshape(staged, -1).all(axis=1)
                if not finite.all():
                    t_bad = times[done + int(np.argmin(finite))]
                    raise NumericalError(f"non-finite state detected at t = {t_bad:.6g}")
                u = (system.macro @ finish(stage[:staged]).view(float)).view(stage.dtype)
                values[:, done : done + staged] = _diagnostics(u, sig, theta, basis)
                done, staged = done + staged, 0
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        t_bad = times[int(np.argmin(finite))]
        raise NumericalError(f"non-finite diagnostics at t = {t_bad:.6g}")

    rows = u[-1] if basis is SAMPLES else np.fft.irfft(u[-1], n, axis=-1, norm="forward")
    final = system.state(*(GridFunction(row) for row in rows), t)
    return Trajectory(times, dict(zip(system.columns, values)), dt, theta, final)


# ---------------------------------------------------------------------------
# the two systems


def simulate_2v(
    init,
    profile,
    t_final: float,
    dt: float | None = None,
    scheme: str = SCHEME_SPLIT,
    *,
    theta: float,
    record_every: int = 1,
) -> Trajectory:
    """Advance the two-velocity system (velocities +1, -1) from a macroscopic state.

    ``profile`` is the RelaxationProfile sigma. The recorded entropy is
    E_theta(u - u_avg, v) together with its exact evolution right-hand side,
    for the caller's twist theta (``rates.rate_2v`` gives the theoretical
    one). dt defaults to dx for the split scheme and dx/2 for RK4 (spectral
    advection stability).
    """
    if not isinstance(init, MacroState2V):
        raise ValidationError(f"unsupported initial state {type(init).__name__}")
    u = np.vstack([init.u.values, init.v.values])
    return _simulate(u, _SYSTEM_2V, profile, theta, init.t, t_final, dt, scheme, record_every)


def simulate_3v(
    init: MacroState3V,
    profile,
    t_final: float,
    dt: float | None = None,
    scheme: str = SCHEME_SPLIT,
    *,
    theta: float,
    record_every: int = 1,
) -> Trajectory:
    """Advance the three-velocity system (velocities +1, 0, -1).

    The recorded entropy is the three-velocity functional of
    (u1 - avg, u2, u3), for the caller's twist theta (``rates.rate_3v``
    gives the theoretical one).
    """
    if not isinstance(init, MacroState3V):
        raise ValidationError(f"unsupported initial state {type(init).__name__}")
    u = np.vstack([init.u1.values, init.u2.values, init.u3.values])
    return _simulate(u, _SYSTEM_3V, profile, theta, init.t, t_final, dt, scheme, record_every)


# ---------------------------------------------------------------------------
# decay-rate fitting


VALUE_FLOOR = 1e-12
MIN_FIT_POINTS = 10


def fit_decay_rate(times, values, window=None) -> tuple[float, float]:
    """Least-squares exponential rate of a positive series: value ~ C e^{-rate t}.

    The window defaults to [0.25 T, 0.9 T], T the last time. Points below
    the floating-point floor 1e-12 are dropped; the fit errors out if fewer
    than MIN_FIT_POINTS usable points remain in the window, naming the time
    the series crosses the floor when that is before the window opens.
    Returns (rate, r_squared).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    lo, hi = (0.25 * t[-1], 0.9 * t[-1]) if window is None else window
    mask = (t >= lo) & (t <= hi) & (y > VALUE_FLOOR)
    usable = np.count_nonzero(mask)
    if usable < MIN_FIT_POINTS:
        where = f"the window [{lo:.6g}, {hi:.6g}]"
        below = np.flatnonzero(y <= VALUE_FLOOR)
        if below.size and t[below[0]] < lo:
            raise NumericalError(
                f"decay fit: the series falls below the floor {VALUE_FLOOR:g} at "
                f"t = {t[below[0]]:.6g}, before {where} opens, which leaves {usable} of "
                f"the {MIN_FIT_POINTS} points the fit needs; lower t_final"
            )
        raise NumericalError(
            f"decay fit: only {usable} usable points in {where}, {MIN_FIT_POINTS} needed"
        )
    tt, yy = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tt, yy, 1)
    resid = yy - (slope * tt + intercept)
    total = np.sum((yy - yy.mean()) ** 2)
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum(resid**2)) / float(total)
    return float(-slope), r2


def fit_envelope_rate(times, values, window=None) -> tuple[float, float]:
    """Fit against the defective envelope: value ~ C (1 + t) e^{-rate t}."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    corrected = np.where(y > 0, y / (1.0 + np.maximum(t, 0.0)), y)
    return fit_decay_rate(t, corrected, window=window)
