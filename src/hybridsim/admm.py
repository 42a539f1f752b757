"""ADMM hybrid analog/digital factorization of a target precoder or combiner.

Given a target matrix (typically the leading singular vectors of the
channel), the designers below find an analog matrix with unit-modulus
entries and a digital matrix whose product approximates the target in
Frobenius norm.  Splitting introduces an auxiliary copy R of the analog
matrix constrained to the unit-modulus set and a scaled dual W; one
iteration performs

1. closed-form analog update (ridge-regularized least squares),
2. closed-form digital update (least squares),
3. entrywise projection of ``analog + dual`` onto the unit-modulus set,
4. dual ascent step ``W += analog - R``.

Two structures: a dense analog matrix shared by K stacked targets with one
digital matrix per target (``design_wideband``, the multicarrier design),
and a block-diagonal analog matrix with one phase vector per RF chain
(``design_partially_connected``).  The fully-connected narrowband design
(``design_fully_connected``) is the dense structure with K = 1.

The dense loop works on the subcarrier-concatenated layout, with every
operand held as rows: the digital update gives ``F^H``, the (K*n_s, n_rf)
conjugate transpose of ``F = [F_1 ... F_K]``, and the targets are held once
per design as both ``T = [T_1 ... T_K]``, (n_tx, K*n_s), and ``T^H``.  The
sums over subcarriers of the wideband updates are then single products:
``sum_k T_k F_k^H = T F^H`` and ``sum_k F_k F_k^H = F F^H``, and the K
digital right-hand sides are the rows of ``T^H F_RF``.  Both updates are
checked row-form solves ``X = C A^-1`` (``_solve_rows``):

- analog, ``F_RF = (T F^H + rho (R - W)) (F F^H + rho I)^-1``;
- digital, ``F^H = (T^H F_RF) (F_RF^H F_RF)^-1``.

Each step ends by forming ``T F^H`` and ``F F^H`` of its new digital
iterate, and the trace objective
``||T||^2 + Re tr(R^H R F F^H) - 2 Re tr(R^H T F^H)`` from them, with
``||T||^2`` computed once, so no target-sized residual or product is formed
for it.

The partially connected loop carries the same two products, held as their
nonzero entries: with T_i the chain's (L, n_s) target row block, r_i its
unit-modulus copy and f_i its digital row, the block-diagonal entries of
``T F^H`` are the ``T_i conj(f_i)`` and the diagonal of ``F F^H`` is the
``|f_i|^2``.  Each step ends by forming them of its new digital rows
(per-chain ``matmul`` products), and the trace objective from them,
``||T||^2 - 2 Re <R, T conj(F)> + sum_i ||r_i||^2 |f_i|^2``, the chains'
blocks of ``R F`` being disjoint.

Both structures run one loop (``_run_loop``) on one state type,
``AdmmState``, over a leading batch axis of independent instances:
instance i leaves the batch when its own stagnation test fires, so it
follows, bitwise, the iterations it would follow alone.  A single design is
a batch of one, and a kept iterate is a copy of the state.  A structure is
two functions: its analog update, and its iterate, which takes the analog
part and builds the state with its digital least squares, carried products
and objective.  The loop builds the first iterate from the start and takes
each step's structure-independent part: the projection, the dual step and
the primal residual ``||analog - R||_F``.  A design's start is an input:
instance i's analog start is ``exp(2j pi u)`` of uniform doubles u,
projected onto the phase grid in quantized mode, and u is row i of the
designer's ``draws`` argument or, without one, the stream of
``default_rng(cfg.seed + i)``.  A design's result depends on its arguments
alone.

Iteration traces record the state's ``objective``, the feasible-point
objective (evaluated at R, not at the unconstrained analog iterate),
together with its ``primal``; the stagnation test compares consecutive
trace objectives against ``tau``.  The loop records both into one row per
iteration of per-instance arrays and builds each trace once, at the end.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

# the gufuncs behind np.linalg.cholesky and np.linalg.inv; they return NaN for
# a failed slice instead of raising, which _solve_rows checks for
from numpy.linalg._umath_linalg import cholesky_lo, inv

__all__ = [
    "FULLY_CONNECTED",
    "PARTIALLY_CONNECTED",
    "AdmmConfig",
    "AdmmState",
    "HybridFactors",
    "DesignBatch",
    "project_unit_modulus",
    "least_squares_fbb",
    "scale_matched_rho",
    "step_frf",
    "design_fully_connected",
    "assemble_block_diag",
    "design_partially_connected",
    "design_wideband",
]

FULLY_CONNECTED = "fully_connected"
PARTIALLY_CONNECTED = "partially_connected"

# Finest phase grid a config may ask for.  The projection needs the grid
# position of a float64 angle to hold the +-0.5 its rounding relies on, which
# fails near 2**52 points; from 1024 bits the step 2*pi / 2**bits is not
# even a float.
_MAX_PHASE_BITS = 48

# Smallest normal float64, and an exact power of two that lifts every
# subnormal magnitude into the normal range without reaching overflow.
_TINY = np.finfo(np.float64).tiny
_UNSUBNORMAL = 2.0**600

# Relative pivot-ratio threshold below which a Cholesky factor is treated as
# numerically rank deficient.
_RANK_TOL = 1e-14

_NOT_PD = "matrix is not positive definite: Matrix is not positive definite"


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, iteration budget, stagnation tolerance and initialization seed.

    ``tau = 0`` disables early stopping.  ``phase_bits`` switches the
    projection to a uniform phase grid with ``2**phase_bits`` points
    (quantized phase shifters), 1 to 48 bits; ``None`` keeps continuous
    phases.
    """

    rho: float = 1.0
    max_iters: int = 30
    tau: float = 1e-3
    phase_bits: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_finite(self.rho, "rho")
        check_finite(self.tau, "tau")
        for name, low in (("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, low))
        if self.phase_bits is not None:
            object.__setattr__(self, "phase_bits", _check_phase_bits(self.phase_bits))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


def check_finite(value, name):
    """Return ``value`` if it is a finite real in float range; else ValueError."""
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, numbers.Real)
            and math.isfinite(value)
        )
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def check_int(value, name, low=None):
    """``value`` as an int: an integer as it is, however large, or a number that
    ``check_finite`` accepts and that is integral; ValueError if neither, or
    if ``low`` is given and the int is below it
    (``"<name> must be >= <low>, got <int>"``)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral and int(check_finite(value, name)) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries (corrupted data)")


def _check_phase_bits(value):
    """``value`` as an int from 1 to ``_MAX_PHASE_BITS`` (2.0 counts as 2);
    ValueError otherwise."""
    try:
        bits = check_int(value, "phase_bits")
    except ValueError:
        bits = 0
    if not 1 <= bits <= _MAX_PHASE_BITS:
        raise ValueError(
            f"phase_bits must be an integer from 1 to {_MAX_PHASE_BITS}, "
            f"got {value!r}"
        )
    return bits


def scale_matched_rho(n_tx, n_rf, n_s, n_subcarriers=1, structure=FULLY_CONNECTED):
    """Penalty weight that balances the data term against the consensus term.

    The splitting penalty acts on analog entries of modulus 1 while the
    fit error acts through the digital matrix, whose squared norm ends up
    near n_s / n_tx once the product is power-normalized.  A penalty far
    above the data-term curvature freezes the analog iterate at its
    random start; far below, the unit-modulus copy lags.  Matching the
    two puts rho at (subcarriers x streams) / (active analog entries):
    n_tx * n_rf entries for the dense structure, n_tx for the block
    diagonal one.  Worth using instead of the default rho = 1 whenever
    n_tx is large relative to n_s.  Each count is an integer (2.0 counts as
    2) and at least 1; ValueError otherwise.
    """
    n_tx, n_rf, n_s, n_subcarriers = (
        check_int(value, name, 1)
        for name, value in zip(
            ("n_tx", "n_rf", "n_s", "n_subcarriers"), (n_tx, n_rf, n_s, n_subcarriers)
        )
    )
    if structure == PARTIALLY_CONNECTED:
        entries = n_tx
    elif structure == FULLY_CONNECTED:
        entries = n_tx * n_rf
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return n_subcarriers * n_s / entries


@dataclass
class AdmmState:
    """One iterate of either structure's loop: analog matrix ``f_rf``,
    digital matrix ``f_bb``, auxiliary unit-modulus copy ``r`` and scaled
    dual ``w``, with the products ``tf_h`` and ``ff_h``, ``T F^H`` and
    ``F F^H`` of the targets T and the digital matrix F, carried into the
    next analog update.  ``primal`` is the norm of the step's own
    ``f_rf - r`` (0 at the start) and ``objective`` the trace objective
    ``||T - R F||^2``; ``step_frf`` reads only ``f_bb``, ``r`` and ``w``,
    so a state built for it may leave the last four None.

    Dense structure: ``f_rf``, ``r`` and ``w`` are (n_tx, n_rf) matrices,
    ``f_bb`` is stacked per subcarrier, (K, n_rf, n_s) (one (n_rf, n_s)
    matrix from ``design_fully_connected``), ``T = [T_1 ... T_K]`` and
    ``F = [F_1 ... F_K]``, so ``tf_h`` is (n_tx, n_rf) and ``ff_h``
    (n_rf, n_rf).  Block-diagonal structure: row i of ``f_rf``, ``r`` and
    ``w``, (n_rf, L), is RF chain i's length-L vector, row i of ``f_bb``,
    (n_rf, n_s), its digital row f_i, and the products hold only their
    nonzero entries: row i of ``tf_h``, (n_rf, L), is ``T_i conj(f_i)`` of
    the chain's target row block T_i, and ``ff_h``, (n_rf,), the ``|f_i|^2``.

    The loop runs on this state, and a kept iterate is a copy of it; inside
    a batched design every field carries a leading instance axis."""

    f_rf: np.ndarray
    f_bb: np.ndarray
    r: np.ndarray
    w: np.ndarray
    tf_h: np.ndarray | None = None
    ff_h: np.ndarray | None = None
    primal: np.ndarray | None = None
    objective: np.ndarray | None = None


@dataclass
class HybridFactors:
    """A designed analog/digital pair.

    ``f_bb`` has shape (n_rf, n_s), or (K, n_rf, n_s) for the multicarrier
    design.  ``trace`` rows are (iteration, objective, primal_residual),
    starting at iteration 0 (the initial point); ``final_objective`` is the
    factorization residual of the returned pair before any transmit-power
    rescaling.  ``iterates`` holds per-iteration state copies when the
    designer was asked to keep them.
    """

    f_rf: np.ndarray
    f_bb: np.ndarray
    structure: str
    trace: list
    final_objective: float
    iterates: list | None = field(default=None, repr=False)

    @property
    def iterations(self):
        """Loop iterations actually executed (trace row 0 is the start)."""
        return len(self.trace) - 1


class DesignBatch(tuple):
    """The :class:`HybridFactors` of each instance of one batched design call."""

    @property
    def iterations(self):
        """Loop iterations executed, summed over the instances."""
        return sum(design.iterations for design in self)


def project_unit_modulus(x, phase_bits=None):
    """Entrywise projection onto unit-modulus phases.

    Continuous mode multiplies each entry by the reciprocal of its magnitude
    (zero entries map to 1, i.e. phase 0).  Quantized mode snaps each phase
    to the nearest point of the grid ``{2*pi*k / 2**phase_bits}``, breaking
    exact ties toward the smaller angle.  Idempotent in both modes.
    ``phase_bits`` is checked as ``AdmmConfig`` checks it.
    """
    x = np.asarray(x, dtype=complex)
    if phase_bits is None:
        mag = np.abs(x)
        if mag.min(initial=_TINY) < _TINY:
            # 1/|x| overflows below the normal range: such entries are first
            # scaled by an exact power of two, which keeps their phase
            small = mag < _TINY
            x = x.copy()
            x[small] *= _UNSUBNORMAL
            mag = np.abs(x)
            zero = mag == 0.0
            return np.where(zero, 1.0 + 0.0j, x * (1.0 / np.where(zero, 1.0, mag)))
        return x * (1.0 / mag)
    n_levels = 2 ** _check_phase_bits(phase_bits)
    step = 2.0 * np.pi / n_levels
    # the angle taken to [0, 2*pi) as np.mod(angle, 2*pi) takes it, a negative
    # angle lifted by one turn; rebinding the name frees the angles
    grid_pos = np.angle(x)
    grid_pos = np.where(grid_pos < 0.0, grid_pos + 2.0 * np.pi, grid_pos) / step
    # ceil(t - 1/2) rounds to nearest, exact ties to the lower grid point;
    # from the wraparound tie on, which is equidistant from (n-1)*step and 0,
    # every position is nearer 0, the smaller angle, so it maps to 0.  The
    # -0.0 that ceil gives below 1/2 projects as 0.0 does: it indexes entry 0
    # of the table, and exp(1j * step * -0.0) is exactly 1
    k = np.where(grid_pos >= n_levels - 0.5, 0.0, np.ceil(grid_pos - 0.5))
    if n_levels > x.size or np.isnan(k).any():
        # a table with more points than x has entries costs more than the
        # exp of each entry, and at many bits it does not fit in memory;
        # NaN entries have no grid point, so they take the exp and propagate
        return np.exp(1j * step * k)
    # the same exp as above, taken once per grid point and looked up
    return np.exp(1j * step * np.arange(n_levels))[k.astype(np.intp)]


def least_squares_fbb(f_rf, f_target):
    """Digital matrix minimizing ``||f_target - f_rf @ f_bb||_F``.

    Solves the normal equations ``(f_rf^H f_rf) f_bb = f_rf^H f_target``;
    requires f_rf with full column rank.  ``f_target`` may be one (n_tx, n_s)
    matrix or a (K, n_tx, n_s) stack; a stack shares the one factored Gram
    matrix and returns the (K, n_rf, n_s) stack of digital matrices.  A batch
    of analog matrices (B, n_tx, n_rf) takes targets of shape (B, n_tx, n_s)
    or (B, K, n_tx, n_s), one instance per leading index.
    """
    f_rf = np.asarray(f_rf)
    f_target = np.asarray(f_target)
    if f_target.ndim > f_rf.ndim:
        # one more axis than the analog matrix: K targets share it
        return _split(_digital_h(f_rf, _concat_h(f_target)), f_target.shape[-3])
    return _hermitian(_digital_h(f_rf, _hermitian(f_target)))


def step_frf(state, f_target, rho):
    """Closed-form analog update of the single-carrier dense loop.

    Returns ``[T F^H + rho (R - W)] (F F^H + rho I)^-1`` for the target T and
    the state's digital matrix F, the stationary point of the augmented
    Lagrangian in the analog matrix.  A state with a leading batch axis
    updates every instance.
    """
    f_bb_h = _hermitian(np.asarray(state.f_bb))
    tf_h = np.asarray(f_target) @ f_bb_h
    ff_h = _hermitian(f_bb_h) @ f_bb_h
    return _analog_update(replace(state, tf_h=tf_h, ff_h=ff_h), rho)


def _hermitian(x):
    """The conjugate transpose of each matrix of a stack (a strided view)."""
    return x.conj().swapaxes(-1, -2)


def _concat_h(targets):
    """Targets (..., K, n_tx, n_s) as ``[T_1 ... T_K]^H``, (..., K*n_s, n_tx).

    Row k*n_s + s is column s of target k, conjugated: the subcarriers sit on
    rows, so every product against it is one GEMM per instance.
    """
    *lead, k, n_tx, n_s = targets.shape
    return _hermitian(targets).reshape(*lead, k * n_s, n_tx)


def _split(f_bb_h, k):
    """Digital matrices held as ``[F_1 ... F_K]^H``, (..., K*n_s, n_rf), stacked
    per subcarrier as (..., K, n_rf, n_s)."""
    *lead, cols, n_rf = f_bb_h.shape
    return np.ascontiguousarray(
        _hermitian(f_bb_h.reshape(*lead, k, cols // k, n_rf))
    )


def _solve_rows(a, c):
    """``X = C A^-1`` for a (B, n, n) stack of HPD matrices and rows (B, m, n).

    Checks finite A and C (ValueError), then a Cholesky factor of every
    slice of A and its squared pivot ratio against ``_RANK_TOL``
    (LinAlgError: a rank-deficient Gram matrix lands here).  Slice i of the
    result is ``c[i] @ inv(a[i])``, one product per slice, so it does not
    depend on the other slices.  Rows rather than columns, because on these
    tiny systems the right-hand sides, not flops, set the cost of a stacked
    LAPACK solve: ``np.linalg.solve`` on a (32, 4, 4) batch took 240 us
    with 64 columns per slice against 45 us with 2 (timeit, one BLAS
    thread).  The gufuncs run without the ``numpy.linalg`` wrappers, whose
    Python-level checks cost more than the factorizations here.  On
    OpenBLAS's SkylakeX kernels, its default on AVX-512 CPUs, a GEMM gives
    equal rows of its left operand bitwise equal rows of the result, so
    identical right-hand sides get identical solutions; on its Haswell,
    Zen, SandyBridge and Nehalem kernels it does not (ROADMAP item 1).  A
    lone row is a matrix-vector product and may differ from the same row
    among others in the last bits.
    """
    _require_finite(a, "matrix")
    _require_finite(c, "right-hand side")
    # a failed slice is NaN and raises the invalid flag
    with np.errstate(invalid="ignore"):
        factor = cholesky_lo(a)
    # a Cholesky factor has a real positive diagonal; NaN marks a failed one
    diag = factor.diagonal(axis1=-2, axis2=-1).real
    worst = ((diag.min(axis=-1) / diag.max(axis=-1)) ** 2).min()
    if not worst >= _RANK_TOL:
        if np.isnan(worst):
            raise np.linalg.LinAlgError(_NOT_PD)
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient (Cholesky pivot ratio "
            f"{worst:.3e})"
        )
    return c @ inv(a)


def _digital_h(f_rf, t_h):
    """Digital least squares as ``F^H = (T^H F_RF) (F_RF^H F_RF)^-1``, ``T^H`` given.

    ``T^H F_RF`` keeps one subcarrier per row block, so identical targets get
    bitwise identical digital matrices on OpenBLAS's SkylakeX kernels, not
    on the others that ``_solve_rows`` names (ROADMAP item 1).
    """
    return _solve_rows(_hermitian(f_rf) @ f_rf, t_h @ f_rf)


def _analog_update(state, rho):
    """The dense structure's analog update,
    ``[T F^H + rho (R - W)] (F F^H + rho I)^-1``, read off the state's
    ``tf_h``, ``ff_h``, ``r`` and ``w``."""
    ff_h = state.ff_h
    return _solve_rows(
        ff_h + rho * np.eye(ff_h.shape[-1]), state.tf_h + rho * (state.r - state.w)
    )


def _start_draws(seed, count, size):
    """``count`` rows of ``size`` uniform doubles, row i the first ``size``
    doubles of ``default_rng(seed + i)``."""
    return np.stack(
        [np.random.default_rng(seed + i).random(size) for i in range(count)]
    )


def _instances(targets, name, rank):
    """``targets``, one ``rank``-axis array or a stack of them, as a complex
    stack with a leading instance axis, and whether it had that axis.

    ValueError naming ``name`` for any other number of axes, a non-finite
    entry, or an empty axis.
    """
    targets = np.asarray(targets, dtype=complex)
    shape = targets.shape
    if len(shape) not in (rank, rank + 1):
        kind = "a matrix" if rank == 2 else "a stack of matrices"
        raise ValueError(f"{name} must be {kind} or a batch of them, got {shape}")
    _require_finite(targets, name)
    batched = len(shape) == rank + 1
    if not batched:
        targets = targets[None]
    if 0 in targets.shape:
        raise ValueError(
            f"{name} must hold at least one instance and no empty axis, got {shape}"
        )
    return targets, batched


def _init_analog(cfg, count, shape, draws):
    """The (count, *shape) analog starts: ``exp(2j pi u)`` of the first
    ``prod(shape)`` uniform doubles u of each row of ``draws``, projected onto
    the phase grid when ``cfg.phase_bits`` is set.

    ``draws`` None draws row i from ``default_rng(cfg.seed + i)``.  A row
    longer than the start gives the start of its prefix, so one stream drawn
    to the longest start serves every shorter one; a ``draws`` without
    ``count`` rows of at least that many doubles, or with a non-finite
    entry, is a ValueError.
    """
    size = math.prod(shape)
    if draws is None:
        draws = _start_draws(cfg.seed, count, size)
    else:
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or len(draws) != count or draws.shape[1] < size:
            raise ValueError(
                f"draws must hold {count} rows of at least {size} doubles, "
                f"got shape {draws.shape}"
            )
        _require_finite(draws, "draws")
    f_rf = np.exp(2j * np.pi * draws[:, :size].reshape(count, *shape))
    if cfg.phase_bits is not None:
        # start inside the quantized feasible set
        f_rf = project_unit_modulus(f_rf, cfg.phase_bits)
    return f_rf


def _floats(x):
    """Each slice along the leading axis as one row of real and imaginary parts."""
    return np.ascontiguousarray(x).reshape(len(x), -1).view(np.float64)


def _sqnorm(x):
    """Squared Frobenius norm of each slice along the leading axis."""
    v = _floats(x)
    return (v * v).sum(axis=1)


def _real_inner(a, b):
    """``Re <a, b>`` of each pair of slices along the leading axis."""
    return (_floats(a) * _floats(b)).sum(axis=1)


def _take(state, i):
    """A copy of instance ``i`` of a batched state."""
    return AdmmState(*(getattr(state, f.name)[i].copy() for f in fields(state)))


def _run_loop(start, data, cfg, analog, iterate, keep_iterates):
    """The ADMM loop shared by both structures, over a batch of instances.

    ``start`` holds the analog starts and ``data`` a tuple of per-instance
    arrays (the targets and what is precomputed from them).  A structure is
    two functions: ``analog(state, rho)``, its analog update f, and
    ``iterate(f, r, w, primal, data)``, the ``AdmmState`` with that analog
    part and residual, its digital least squares, carried products and trace
    objective.  The loop builds the first iterate (R the start, W and
    ``primal`` zero) and takes each step's projection ``R = P(f + W)``, dual
    step ``W + (f - R)`` and primal residual ``||f - R||_F``, the trace's.
    An instance stops once its objective changes by less than ``cfg.tau``;
    the loop then carries on with the rest only, so every instance follows
    the iterations it would follow alone.  Returns every instance's last R,
    stacked, and the per-instance traces and iterate lists (or None).
    """
    count = len(start)
    state = iterate(start, start.copy(), np.zeros_like(start), np.zeros(count), data)
    del start  # the state holds it now, and drops it at the first step
    names = [f.name for f in fields(state)]
    # row t holds iteration t of every instance; rows are added by doubling,
    # so a large max_iters reserves nothing for iterations never run
    objectives = np.empty((min(cfg.max_iters, 32) + 1, count))
    residuals = np.empty_like(objectives)
    objectives[0] = state.objective
    residuals[0] = state.primal
    ends = np.full(count, cfg.max_iters)
    iterates = None
    if keep_iterates:
        iterates = [[_take(state, i)] for i in range(count)]
    out = np.empty_like(state.r)
    data = list(data)
    active = np.arange(count)
    for t in range(1, cfg.max_iters + 1):
        f = analog(state, cfg.rho)
        r = project_unit_modulus(f + state.w, cfg.phase_bits)
        w = f - r
        primal = np.sqrt(_sqnorm(w))
        # w + (f - r): a sum's bits do not depend on the order of its two terms
        w += state.w
        previous = state.objective
        del state  # freed before the next iterate is built
        state = iterate(f, r, w, primal, data)
        del f, r, w  # the state holds them, so compaction frees them
        if t == len(objectives):
            objectives = np.concatenate((objectives, np.empty_like(objectives)))
            residuals = np.concatenate((residuals, np.empty_like(residuals)))
        objectives[t, active] = state.objective
        residuals[t, active] = state.primal
        if iterates is not None:
            for j, i in enumerate(active.tolist()):
                iterates[i].append(_take(state, j))
        stop = np.abs(previous - state.objective) < cfg.tau
        if t == cfg.max_iters:
            stop[:] = True
        if stop.any():
            ends[active[stop]] = t
            out[active[stop]] = state.r[stop]
            going = ~stop
            if not going.any():
                break
            active = active[going]
            # one array at a time, so each is freed before the next is copied
            for name in names:
                setattr(state, name, getattr(state, name)[going])
            for j in range(len(data)):
                data[j] = data[j][going]
    rows = ends.max() + 1
    traces = [
        list(zip(range(end + 1), obj[: end + 1], res[: end + 1]))
        for end, obj, res in zip(
            ends.tolist(), objectives[:rows].T.tolist(), residuals[:rows].T.tolist()
        )
    ]
    return out, traces, iterates


def _results(structure, f_rf, f_bb, traces, final_objective, iterates, batched):
    """One HybridFactors per instance: the DesignBatch, or its one design."""
    designs = DesignBatch(
        HybridFactors(
            f_rf=f_rf[i],
            f_bb=f_bb[i],
            structure=structure,
            trace=traces[i],
            final_objective=final_objective[i],
            iterates=None if iterates is None else iterates[i],
        )
        for i in range(len(traces))
    )
    return designs if batched else designs[0]


def _dense_iterate(f_rf, r, w, primal, data):
    """The iterate with analog part ``(f_rf, r, w)`` and residual ``primal``:
    its digital least squares, the two products carried from it and its
    objective."""
    t, t_h, _ = data
    count, k, n_s, n_tx = t_h.shape
    f_bb_h = _digital_h(f_rf, t_h.reshape(count, k * n_s, n_tx))
    # the conjugate of F^H is F^T, whose row blocks are the F_k^T
    c = f_bb_h.conj()
    f_bb = c.reshape(count, k, n_s, -1).swapaxes(-1, -2)
    tf_h = t @ f_bb_h
    ff_h = c.swapaxes(-1, -2) @ f_bb_h
    del f_bb_h  # freed first, so the objective's temporaries can reuse its memory
    # ||T - R F||^2 = ||T||^2 + Re tr(R^H R F F^H) - 2 Re tr(R^H T F^H), and
    # Re tr(A B) of a Hermitian B is the real inner product of A and B
    objective = (
        data[2] + _real_inner(_hermitian(r) @ r, ff_h) - 2.0 * _real_inner(r, tf_h)
    )
    return AdmmState(f_rf, f_bb, r, w, tf_h, ff_h, primal, objective)


def design_wideband(
    targets, n_rf, cfg, normalize_power, keep_iterates=False, draws=None
):
    """Design one shared analog matrix and per-subcarrier digital matrices.

    Parameters
    ----------
    targets : array-like, shape (K, n_tx, n_s) or (B, K, n_tx, n_s)
        Per-subcarrier target matrices (stacked, or a list of matrices):
        unconstrained optimal precoders, or combiners, every entry finite,
        with at least one subcarrier and stream (ValueError otherwise).  A
        leading batch axis designs B >= 1 independent
        instances in one pass; instance i's result is bitwise the result of
        the single design ``design_wideband(targets[i], ...)`` from the same
        start.
    n_rf : int
        Number of RF chains; must satisfy n_s <= n_rf <= n_tx.
    cfg : AdmmConfig
    normalize_power : bool
        When True, rescale each subcarrier's digital matrix so its composite
        satisfies ``||f_rf @ f_bb[k]||_F^2 = n_s`` (precoder side); combiners
        skip this.  A composite with zero power is a ValueError.
    keep_iterates : bool
        Attach to the result a copy of the loop's :class:`AdmmState` at each
        iteration, with the products ``tf_h`` and ``ff_h`` it carries.
    draws : array-like, shape (B, m), optional
        Row i holds instance i's uniform doubles in [0, 1), m >= n_tx * n_rf
        (B = 1 for unbatched targets); its analog start is ``exp(2j pi u)``
        of the first n_tx * n_rf of them, u reshaped to (n_tx, n_rf).
        Without it, row i is drawn from ``default_rng(cfg.seed + i)``.

    Returns
    -------
    HybridFactors, or a DesignBatch of B of them for batched targets
        ``f_bb`` has shape (K, n_rf, n_s); the trace objective is the sum
        of per-subcarrier residuals.
    """
    targets, batched = _instances(targets, "targets", 3)
    count, k, n_tx, n_s = targets.shape
    n_rf = check_int(n_rf, "n_rf")
    if not n_s <= n_rf <= n_tx:
        raise ValueError(f"need n_s <= n_rf <= n_tx, got {n_s}, {n_rf}, {n_tx}")

    # [T_1 ... T_K] and its conjugate transpose
    t = targets.swapaxes(-3, -2).reshape(count, n_tx, k * n_s)
    t_h = _concat_h(targets)
    data = (t, t_h.reshape(count, k, n_s, n_tx), _sqnorm(t_h))
    # the start is built in the call, so no name here keeps it alive through
    # the loop
    f_rf_hat, traces, iterates = _run_loop(
        _init_analog(cfg, count, (n_tx, n_rf), draws),
        data,
        cfg,
        _analog_update,
        _dense_iterate,
        keep_iterates,
    )

    f_bb_h = _digital_h(f_rf_hat, t_h)
    # (R F)^H, one row block per subcarrier
    recon_h = f_bb_h @ _hermitian(f_rf_hat)
    final_objective = _sqnorm(t_h - recon_h).tolist()
    f_bb_hat = _split(f_bb_h, k)
    if normalize_power:
        power = np.sqrt(_sqnorm(recon_h.reshape(count * k, -1))).reshape(count, k)
        if not power.all():
            i, sub = np.argwhere(power == 0)[0]
            raise ValueError(
                f"instance {i}, subcarrier {sub}: the composite has zero power "
                "and cannot be normalized"
            )
        f_bb_hat *= (np.sqrt(n_s) / power)[..., None, None]
    return _results(
        FULLY_CONNECTED, f_rf_hat, f_bb_hat, traces, final_objective, iterates, batched
    )


def design_fully_connected(
    f_target, n_rf, cfg, normalize_power, keep_iterates=False, draws=None
):
    """Design a dense unit-modulus analog matrix and digital matrix.

    This is :func:`design_wideband` with one subcarrier, unwrapped to a
    single (n_rf, n_s) digital matrix.

    Parameters
    ----------
    f_target : ndarray, shape (n_tx, n_s) or (B, n_tx, n_s)
        Matrix to factor (unconstrained optimal precoder, or combiner), every
        entry finite and no axis empty (ValueError otherwise).  A leading
        batch axis designs B instances in one pass.
    n_rf : int
        Number of RF chains; must satisfy n_s <= n_rf <= n_tx.
    cfg : AdmmConfig
    normalize_power : bool
        When True, rescale the digital matrix so the composite satisfies
        ``||f_rf @ f_bb||_F^2 = n_s`` (precoder side); combiners skip this.
        A composite with zero power is a ValueError.
    keep_iterates : bool
        Attach per-iteration :class:`AdmmState` copies to the result.
    draws : array-like, shape (B, m), optional
        The instances' uniform doubles, as :func:`design_wideband` takes
        them; without it, instance i draws from ``default_rng(cfg.seed + i)``.

    Returns
    -------
    HybridFactors, or a DesignBatch of B of them for a batch of targets
    """
    f_target, batched = _instances(f_target, "f_target", 2)
    designs = design_wideband(
        f_target[:, None], n_rf, cfg, normalize_power, keep_iterates, draws
    )
    for design in designs:
        design.f_bb = design.f_bb[0]
        for st in design.iterates or ():
            st.f_bb = st.f_bb[0]
    return designs if batched else designs[0]


def assemble_block_diag(vecs):
    """Stack per-chain phase vectors into the block-diagonal analog matrix.

    Column i carries vector i in rows ``i*L .. (i+1)*L - 1`` (L entries per
    chain) and zeros elsewhere.  Leading batch axes are kept.
    """
    vecs = np.asarray(vecs)
    if vecs.ndim < 2:
        raise ValueError("expected equal-length vectors stacked as rows")
    *batch, n_rf, block = vecs.shape
    out = np.zeros((*batch, n_rf * block, n_rf), dtype=complex)
    for i in range(n_rf):
        out[..., i * block : (i + 1) * block, i] = vecs[..., i, :]
    return out


def _chain_sqnorm(x):
    """Squared norm of each row of a stack of per-chain vectors (last axis)."""
    v = x.view(np.float64)
    return (v * v).sum(axis=-1)


def _partial_fbb(f_rf, target3):
    # row i: ||f_i||^-2 f_i^H (target row block i)
    rows = (f_rf.conj()[..., None, :] @ target3)[..., 0, :]
    return rows * (1.0 / _chain_sqnorm(f_rf))[..., None]


def _partial_iterate(f_rf, r, w, primal, data):
    """The iterate with analog part ``(f_rf, r, w)`` and residual ``primal``:
    its digital rows, the two products carried from them and its objective."""
    f_bb = _partial_fbb(f_rf, data[0])
    tf_h = (data[0] @ f_bb.conj()[..., None])[..., 0]
    ff_h = _chain_sqnorm(f_bb)
    # ||T - R F||^2 = ||T||^2 - 2 Re <R, T conj(F)> + sum_i ||r_i||^2 |f_i|^2,
    # the chains' blocks of R F being disjoint
    objective = (
        data[1] - 2.0 * _real_inner(r, tf_h) + (_chain_sqnorm(r) * ff_h).sum(axis=-1)
    )
    return AdmmState(f_rf, f_bb, r, w, tf_h, ff_h, primal, objective)


def _partial_analog(state, rho):
    # per-scalar analog update (T_i conj(f_i) + rho (r_i - w_i)) / (|f_i|^2 +
    # rho), built in place, so no temporary outlives its line
    f_rf = state.r - state.w
    f_rf *= rho
    f_rf += state.tf_h
    f_rf *= (1.0 / (state.ff_h + rho))[..., None]
    return f_rf


def design_partially_connected(
    f_target, n_rf, cfg, normalize_power, keep_iterates=False, draws=None
):
    """Design one unit-modulus phase vector per RF chain (block-diagonal
    analog matrix) and the matching digital matrix.

    The problem separates per chain: row block i of the target couples only
    to vector i and to row i of the digital matrix, so the analog update is
    an independent scalar expression per phase-shifter and the digital
    update is an independent row per chain.  Requires n_tx divisible by
    n_rf, 1 <= n_s <= n_rf and finite targets.  With ``normalize_power`` the
    digital matrix is scaled so the composite satisfies
    ``||f_rf @ f_bb||_F^2 = n_s``, which for the block structure pins
    ``||f_bb||_F^2 = n_s * n_rf / n_tx``; a composite with zero power is a
    ValueError.

    A (B, n_tx, n_s) stack of targets designs B instances in one pass and
    returns a DesignBatch.  ``draws``, a (B, m) array with m >= n_tx (B = 1
    for one target), holds instance i's uniform doubles in row i: chain j's
    start is ``exp(2j pi u)`` of doubles j*L .. (j+1)*L - 1, L = n_tx/n_rf,
    projected onto the phase grid in quantized mode.  Without it, row i is
    drawn from ``default_rng(cfg.seed + i)``.
    """
    f_target, batched = _instances(f_target, "f_target", 2)
    count, n_tx, n_s = f_target.shape
    n_rf = check_int(n_rf, "n_rf")
    if not n_s <= n_rf:
        raise ValueError(f"need n_s <= n_rf, got n_s={n_s}, n_rf={n_rf}")
    if n_tx % n_rf != 0:
        raise ValueError(f"n_tx={n_tx} is not divisible by n_rf={n_rf}")
    block = n_tx // n_rf
    # row block i of the target, shape (B, n_rf, block, n_s)
    target3 = f_target.reshape(count, n_rf, block, n_s)

    # the start is built in the call, so no name here keeps it alive through
    # the loop
    r_vecs, traces, iterates = _run_loop(
        _init_analog(cfg, count, (n_rf, block), draws),
        (target3, _sqnorm(f_target)),
        cfg,
        _partial_analog,
        _partial_iterate,
        keep_iterates,
    )

    f_rf_hat = assemble_block_diag(r_vecs)
    f_bb_hat = _partial_fbb(r_vecs, target3)
    final_objective = _sqnorm(f_target - f_rf_hat @ f_bb_hat).tolist()
    if normalize_power:
        norm = np.sqrt(_sqnorm(f_bb_hat))
        if not norm.all():
            raise ValueError(
                f"instance {np.argmin(norm)}: the composite has zero power "
                "and cannot be normalized"
            )
        f_bb_hat *= (np.sqrt(n_s * n_rf / n_tx) / norm)[:, None, None]
    return _results(
        PARTIALLY_CONNECTED,
        f_rf_hat,
        f_bb_hat,
        traces,
        final_objective,
        iterates,
        batched,
    )
