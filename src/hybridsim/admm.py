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

The dense loop works on the subcarrier-concatenated layout: the digital
iterate is ``F = [F_1 ... F_K]`` of shape (n_rf, K*n_s) and the targets are
held once per design as ``T^H``, the (K*n_s, n_tx) conjugate transpose of
``T = [T_1 ... T_K]``.  The sums over subcarriers of the wideband updates
are then single products: ``sum_k T_k F_k^H = (F T^H)^H``,
``sum_k F_k F_k^H = F F^H``, and the K digital right-hand sides are
``(T^H F_RF)^H``.  Each iteration solves one analog-update system and one
Gram system ``F_RF^H F_RF`` per instance.  The trace objective is taken as
``||T||^2 + Re<F, R^H R F - 2 R^H T>`` from those small products, with
``||T||^2`` computed once, so no target-sized residual is formed per
iteration.  Kept iterates and results carry the digital matrices stacked
per subcarrier, (K, n_rf, n_s).

Both structures run one loop (``_run_loop``) over a leading batch axis of
independent instances: instance i starts from the seed ``cfg.seed + i`` and
leaves the batch when its own stagnation test fires, so it follows, bitwise,
the iterations it would follow alone.  A single design is a batch of one.

Iteration traces record the feasible-point objective (evaluated at R, not
at the unconstrained analog iterate) together with the primal residual
``||analog - R||_F``; the stagnation test compares consecutive trace
objectives against ``tau``.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import solve_hpd

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "PartialState",
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
        for name in ("max_iters", "seed"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if self.phase_bits is not None:
            object.__setattr__(
                self, "phase_bits", check_int(self.phase_bits, "phase_bits")
            )
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.phase_bits is not None and not 1 <= self.phase_bits <= _MAX_PHASE_BITS:
            raise ValueError(
                f"phase_bits must be an integer from 1 to {_MAX_PHASE_BITS}, "
                f"got {self.phase_bits}"
            )


def check_finite(value, name):
    """Return ``value`` if it is a finite real number; raise ValueError if not."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def check_int(value, name):
    """``value`` as an int if it is a finite integral number; ValueError if not."""
    if int(check_finite(value, name)) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    n_tx is large relative to n_s.
    """
    if structure == PARTIALLY_CONNECTED:
        entries = n_tx
    elif structure == FULLY_CONNECTED:
        entries = n_tx * n_rf
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return n_subcarriers * n_s / entries


@dataclass
class AdmmState:
    """One iterate of the dense-analog loop: analog matrix, digital matrix
    (stacked per subcarrier for the multicarrier variant), auxiliary
    unit-modulus copy and scaled dual.  Inside a batched design every field
    carries a leading instance axis, and inside the loop the digital matrices
    sit side by side, (n_rf, K*n_s)."""

    f_rf: np.ndarray
    f_bb: np.ndarray
    r: np.ndarray
    w: np.ndarray

    def copy(self):
        return AdmmState(
            self.f_rf.copy(), self.f_bb.copy(), self.r.copy(), self.w.copy()
        )


@dataclass
class PartialState:
    """One iterate of the block-diagonal loop; row i of each vector array is
    the length n_tx/n_rf vector for RF chain i.  Inside a batched design
    every field carries a leading instance axis."""

    f_vecs: np.ndarray
    f_bb: np.ndarray
    r_vecs: np.ndarray
    w_vecs: np.ndarray

    def copy(self):
        return PartialState(
            self.f_vecs.copy(),
            self.f_bb.copy(),
            self.r_vecs.copy(),
            self.w_vecs.copy(),
        )


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

    Continuous mode divides each entry by its magnitude (zero entries map
    to 1, i.e. phase 0).  Quantized mode snaps each phase to the nearest
    point of the grid ``{2*pi*k / 2**phase_bits}``, breaking exact ties
    toward the smaller angle.  Idempotent in both modes.
    """
    x = np.asarray(x, dtype=complex)
    if phase_bits is None:
        mag = np.abs(x)
        safe = np.where(mag == 0.0, 1.0, mag)
        return np.where(mag == 0.0, 1.0 + 0.0j, x / safe)
    n_levels = 2**phase_bits
    step = 2.0 * np.pi / n_levels
    grid_pos = np.mod(np.angle(x), 2.0 * np.pi) / step
    # ceil(t - 1/2) rounds to nearest, exact ties to the lower grid point;
    # the wraparound tie is equidistant from (n-1)*step and 0, and 0 is the
    # smaller angle, so it is remapped explicitly
    k = np.ceil(grid_pos - 0.5)
    k = np.mod(np.where(grid_pos == n_levels - 0.5, 0.0, k), n_levels)
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
        return _split(_solve_digital(f_rf, _concat_h(f_target)), f_target.shape[-3])
    return _solve_digital(f_rf, f_target.conj().swapaxes(-1, -2))


def step_frf(state, f_target, rho):
    """Closed-form analog update of the dense loop.

    Returns ``[sum_k T_k F_k^H + rho (R - W)] (sum_k F_k F_k^H + rho I)^-1``
    over the targets T_k and digital matrices F_k (one pair, or stacks of K),
    the stationary point of the augmented Lagrangian in the analog matrix.
    A state with a leading batch axis updates every instance.
    """
    f_bb = np.asarray(state.f_bb)
    f_target = np.asarray(f_target)
    if f_bb.ndim > state.r.ndim:
        # one digital matrix per subcarrier: concatenate them, [F_1 ... F_K]
        *lead, k, n_rf, n_s = f_bb.shape
        f_bb = f_bb.swapaxes(-3, -2).reshape(*lead, n_rf, k * n_s)
        t_h = _concat_h(f_target)
    else:
        t_h = f_target.conj().swapaxes(-1, -2)
    return _analog_update(f_bb, t_h, state.r, state.w, rho)


def _concat_h(targets):
    """Targets (..., K, n_tx, n_s) as ``[T_1 ... T_K]^H``, (..., K*n_s, n_tx).

    Row k*n_s + s is column s of target k, conjugated: the subcarriers sit on
    rows, so every product against it is one GEMM per instance.
    """
    *lead, k, n_tx, n_s = targets.shape
    return targets.conj().swapaxes(-1, -2).reshape(*lead, k * n_s, n_tx)


def _split(f_cat, k):
    """Concatenated digital matrices (..., n_rf, K*n_s) as (..., K, n_rf, n_s)."""
    *lead, n_rf, cols = f_cat.shape
    return np.ascontiguousarray(
        f_cat.reshape(*lead, n_rf, k, cols // k).swapaxes(-3, -2)
    )


def _solve_digital(f_rf, t_h):
    """Digital least squares ``(F_RF^H F_RF)^-1 (T^H F_RF)^H`` for ``T^H`` given.

    ``T^H F_RF`` keeps one subcarrier per row block, so identical targets get
    bitwise identical digital matrices.
    """
    f_rf_h = f_rf.conj().swapaxes(-1, -2)
    return solve_hpd(f_rf_h @ f_rf, (t_h @ f_rf).conj().swapaxes(-1, -2))


def _analog_update(f_bb, t_h, r, w, rho):
    """``[T F^H + rho (R - W)] (F F^H + rho I)^-1`` for ``F`` and ``T^H`` given.

    Solved from the right as the Hermitian system
    ``(F F^H + rho I) X^H = F T^H + rho (R - W)^H``; X is returned C-ordered,
    so the elementwise updates and products that take it stay on contiguous
    memory.
    """
    a = f_bb @ f_bb.conj().swapaxes(-1, -2) + rho * np.eye(f_bb.shape[-2])
    b = f_bb @ t_h + rho * (r - w).conj().swapaxes(-1, -2)
    return np.ascontiguousarray(solve_hpd(a, b).conj().swapaxes(-1, -2))


def _init_analog(cfg, count, shape):
    # instance i draws from its own generator seeded cfg.seed + i, so it
    # starts where a single design with that seed starts
    draws = np.stack(
        [np.random.default_rng(cfg.seed + i).uniform(size=shape) for i in range(count)]
    )
    f_rf = np.exp(2j * np.pi * draws)
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


def _take(state, index):
    """The instances ``index`` (an index or a mask) of a batched state."""
    return type(state)(*(getattr(state, f.name)[index] for f in fields(state)))


def _run_loop(state, data, cfg, step, measure, keep_iterates):
    """The ADMM loop shared by both structures, over a batch of instances.

    ``data`` is a tuple of per-instance arrays (the targets and whatever is
    precomputed from them); ``step(state, data, cfg)`` returns the next
    iterate and ``measure(state, data)`` the per-instance (objective, primal
    residual).  An instance stops once its objective changes by less than
    ``cfg.tau``; the loop then carries on with the remaining instances only,
    so every instance follows the iterations it would follow alone.
    Returns the last iterate of every instance (one batched state), the
    per-instance traces and the per-instance iterate lists (or None).
    """
    count = len(data[0])
    objective, residual = measure(state, data)
    traces = [[(0, o, r)] for o, r in zip(objective.tolist(), residual.tolist())]
    iterates = None
    if keep_iterates:
        iterates = [[_take(state, i).copy()] for i in range(count)]
    last = state.copy()
    active = np.arange(count)
    for t in range(1, cfg.max_iters + 1):
        state = step(state, data, cfg)
        new_objective, residual = measure(state, data)
        rows = zip(active.tolist(), new_objective.tolist(), residual.tolist())
        for j, (i, o, r) in enumerate(rows):
            traces[i].append((t, o, r))
            if iterates is not None:
                iterates[i].append(_take(state, j).copy())
        stop = np.abs(objective - new_objective) < cfg.tau
        if t == cfg.max_iters:
            stop[:] = True
        if stop.any():
            for f in fields(state):
                getattr(last, f.name)[active[stop]] = getattr(state, f.name)[stop]
            going = ~stop
            if not going.any():
                break
            active, data = active[going], tuple(x[going] for x in data)
            state, new_objective = _take(state, going), new_objective[going]
        objective = new_objective
    return last, traces, iterates


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


def _dense_step(state, data, cfg):
    t_h, _ = data
    f_rf = _analog_update(state.f_bb, t_h, state.r, state.w, cfg.rho)
    r = project_unit_modulus(f_rf + state.w, cfg.phase_bits)
    return AdmmState(
        f_rf=f_rf, f_bb=_solve_digital(f_rf, t_h), r=r, w=state.w + (f_rf - r)
    )


def _dense_measure(state, data):
    # ||T - R F||^2 = ||T||^2 + Re<F, R^H R F - 2 R^H T>, R^H T = (T^H R)^H:
    # products of the small factors only, nothing of the targets' size
    t_h, t_sq = data
    r, f_bb = state.r, state.f_bb
    gram = r.conj().swapaxes(-1, -2) @ r
    cross = (t_h @ r).conj().swapaxes(-1, -2)
    objective = t_sq + _real_inner(f_bb, gram @ f_bb - 2.0 * cross)
    return objective, np.sqrt(_sqnorm(state.f_rf - r))


def design_wideband(targets, n_rf, cfg, normalize_power, keep_iterates=False):
    """Design one shared analog matrix and per-subcarrier digital matrices.

    Parameters
    ----------
    targets : array-like, shape (K, n_tx, n_s) or (B, K, n_tx, n_s)
        Per-subcarrier target matrices (stacked, or a list of matrices):
        unconstrained optimal precoders, or combiners.  A leading batch axis
        designs B independent instances in one pass; instance i uses the
        seed ``cfg.seed + i`` and its result is bitwise the result of the
        single design ``design_wideband(targets[i], ...)`` with that seed.
    n_rf : int
        Number of RF chains; must satisfy n_s <= n_rf <= n_tx.
    cfg : AdmmConfig
    normalize_power : bool
        When True, rescale each subcarrier's digital matrix so its composite
        satisfies ``||f_rf @ f_bb[k]||_F^2 = n_s`` (precoder side); combiners
        skip this.
    keep_iterates : bool
        Attach per-iteration :class:`AdmmState` copies to the result.

    Returns
    -------
    HybridFactors, or a DesignBatch of B of them for batched targets
        ``f_bb`` has shape (K, n_rf, n_s); the trace objective is the sum
        of per-subcarrier residuals.
    """
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim not in (3, 4):
        raise ValueError(
            f"targets must stack K matrices of equal shape, got {targets.shape}"
        )
    batched = targets.ndim == 4
    if not batched:
        targets = targets[None]
    count, k, n_tx, n_s = targets.shape
    if not n_s <= n_rf <= n_tx:
        raise ValueError(f"need n_s <= n_rf <= n_tx, got {n_s}, {n_rf}, {n_tx}")

    t_h = _concat_h(targets)
    f_rf = _init_analog(cfg, count, (n_tx, n_rf))
    state = AdmmState(
        f_rf=f_rf,
        f_bb=_solve_digital(f_rf, t_h),
        r=f_rf.copy(),
        w=np.zeros_like(f_rf),
    )
    last, traces, iterates = _run_loop(
        state, (t_h, _sqnorm(t_h)), cfg, _dense_step, _dense_measure, keep_iterates
    )
    for kept in iterates or ():
        for st in kept:
            st.f_bb = _split(st.f_bb, k)

    f_rf_hat = last.r
    f_bb_cat = _solve_digital(f_rf_hat, t_h)
    # (R F)^H, one row block per subcarrier
    recon_h = f_bb_cat.conj().swapaxes(-1, -2) @ f_rf_hat.conj().swapaxes(-1, -2)
    final_objective = _sqnorm(t_h - recon_h).tolist()
    f_bb_hat = _split(f_bb_cat, k)
    if normalize_power:
        power = np.sqrt(_sqnorm(recon_h.reshape(count * k, -1))).reshape(count, k)
        f_bb_hat *= (np.sqrt(n_s) / power)[..., None, None]
    return _results(
        FULLY_CONNECTED, f_rf_hat, f_bb_hat, traces, final_objective, iterates, batched
    )


def design_fully_connected(f_target, n_rf, cfg, normalize_power, keep_iterates=False):
    """Design a dense unit-modulus analog matrix and digital matrix.

    This is :func:`design_wideband` with one subcarrier, unwrapped to a
    single (n_rf, n_s) digital matrix.

    Parameters
    ----------
    f_target : ndarray, shape (n_tx, n_s) or (B, n_tx, n_s)
        Matrix to factor (unconstrained optimal precoder, or combiner).  A
        leading batch axis designs B instances in one pass, instance i with
        the seed ``cfg.seed + i``.
    n_rf : int
        Number of RF chains; must satisfy n_s <= n_rf <= n_tx.
    cfg : AdmmConfig
    normalize_power : bool
        When True, rescale the digital matrix so the composite satisfies
        ``||f_rf @ f_bb||_F^2 = n_s`` (precoder side); combiners skip this.
    keep_iterates : bool
        Attach per-iteration :class:`AdmmState` copies to the result.

    Returns
    -------
    HybridFactors, or a DesignBatch of B of them for a batch of targets
    """
    f_target = np.asarray(f_target, dtype=complex)
    if f_target.ndim not in (2, 3):
        raise ValueError(f"target must be a matrix, got shape {f_target.shape}")
    result = design_wideband(
        f_target[..., None, :, :], n_rf, cfg, normalize_power, keep_iterates
    )
    for design in result if f_target.ndim == 3 else (result,):
        design.f_bb = design.f_bb[0]
        for st in design.iterates or ():
            st.f_bb = st.f_bb[0]
    return result


def assemble_block_diag(f_vecs):
    """Stack per-chain phase vectors into the block-diagonal analog matrix.

    Column i carries vector i in rows ``i*L .. (i+1)*L - 1`` (L entries per
    chain) and zeros elsewhere.  Leading batch axes are kept.
    """
    f_vecs = np.asarray(f_vecs)
    if f_vecs.ndim < 2:
        raise ValueError("expected equal-length vectors stacked as rows")
    *batch, n_rf, block = f_vecs.shape
    out = np.zeros((*batch, n_rf * block, n_rf), dtype=complex)
    for i in range(n_rf):
        out[..., i * block : (i + 1) * block, i] = f_vecs[..., i, :]
    return out


def _partial_fbb(f_vecs, target3):
    # row i: ||f_i||^-2 f_i^H (target row block i)
    norms = np.sum(np.abs(f_vecs) ** 2, axis=-1)
    return np.einsum("...ib,...ibs->...is", f_vecs.conj(), target3) / norms[..., None]


def _partial_step(state, data, cfg):
    (target3,) = data
    # per-scalar analog update: matching target row times digital row
    # conjugate, plus the penalty pull toward r - w
    num = np.einsum("...ibs,...is->...ib", target3, state.f_bb.conj()) + cfg.rho * (
        state.r_vecs - state.w_vecs
    )
    den = np.sum(np.abs(state.f_bb) ** 2, axis=-1)[..., None] + cfg.rho
    f_vecs = num / den
    r_vecs = project_unit_modulus(f_vecs + state.w_vecs, cfg.phase_bits)
    return PartialState(
        f_vecs=f_vecs,
        f_bb=_partial_fbb(f_vecs, target3),
        r_vecs=r_vecs,
        w_vecs=state.w_vecs + (f_vecs - r_vecs),
    )


def _partial_measure(state, data):
    (target3,) = data
    recon = state.r_vecs[..., None] * state.f_bb[..., None, :]
    return _sqnorm(target3 - recon), np.sqrt(_sqnorm(state.f_vecs - state.r_vecs))


def design_partially_connected(
    f_target, n_rf, cfg, normalize_power, keep_iterates=False
):
    """Design one unit-modulus phase vector per RF chain (block-diagonal
    analog matrix) and the matching digital matrix.

    The problem separates per chain: row block i of the target couples only
    to vector i and to row i of the digital matrix, so the analog update is
    an independent scalar expression per phase-shifter and the digital
    update is an independent row per chain.  Requires n_tx divisible by
    n_rf.  With ``normalize_power`` the digital matrix is scaled so the
    composite satisfies ``||f_rf @ f_bb||_F^2 = n_s``, which for the block
    structure pins ``||f_bb||_F^2 = n_s * n_rf / n_tx``.

    A (B, n_tx, n_s) stack of targets designs B instances in one pass,
    instance i with the seed ``cfg.seed + i``, and returns a DesignBatch.
    """
    f_target = np.asarray(f_target, dtype=complex)
    if f_target.ndim not in (2, 3):
        raise ValueError(f"target must be a matrix, got shape {f_target.shape}")
    batched = f_target.ndim == 3
    if not batched:
        f_target = f_target[None]
    count, n_tx, n_s = f_target.shape
    if n_tx % n_rf != 0:
        raise ValueError(f"n_tx={n_tx} is not divisible by n_rf={n_rf}")
    if not n_s <= n_rf:
        raise ValueError(f"need n_s <= n_rf, got n_s={n_s}, n_rf={n_rf}")
    block = n_tx // n_rf
    # row block i of the target, shape (B, n_rf, block, n_s)
    target3 = f_target.reshape(count, n_rf, block, n_s)

    f_vecs = _init_analog(cfg, count, (n_rf, block))
    state = PartialState(
        f_vecs=f_vecs,
        f_bb=_partial_fbb(f_vecs, target3),
        r_vecs=f_vecs.copy(),
        w_vecs=np.zeros_like(f_vecs),
    )
    last, traces, iterates = _run_loop(
        state, (target3,), cfg, _partial_step, _partial_measure, keep_iterates
    )

    f_rf_hat = assemble_block_diag(last.r_vecs)
    f_bb_hat = _partial_fbb(last.r_vecs, target3)
    final_objective = _sqnorm(f_target - f_rf_hat @ f_bb_hat).tolist()
    if normalize_power:
        f_bb_hat *= (np.sqrt(n_s * n_rf / n_tx) / np.sqrt(_sqnorm(f_bb_hat)))[
            :, None, None
        ]
    return _results(
        PARTIALLY_CONNECTED,
        f_rf_hat,
        f_bb_hat,
        traces,
        final_objective,
        iterates,
        batched,
    )
