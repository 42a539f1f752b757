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

Two loops: a dense analog matrix shared by K stacked targets with one
digital matrix per target (``design_wideband``, the multicarrier design),
and a block-diagonal analog matrix with one phase vector per RF chain
(``design_partially_connected``).  The fully-connected narrowband design
(``design_fully_connected``) is the dense loop with K = 1.  Each dense
iteration factors the analog-update matrix once and the Gram matrix
``F_RF^H F_RF`` once; the K digital least-squares updates share that factor
through one stacked :func:`~hybridsim.numerics.solve_hpd` call.

Iteration traces record the feasible-point objective (evaluated at R, not
at the unconstrained analog iterate) together with the primal residual
``||analog - R||_F``; the stagnation test compares consecutive trace
objectives against ``tau``.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import solve_hpd

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "PartialState",
    "HybridFactors",
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


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, iteration budget, stagnation tolerance and initialization seed.

    ``tau = 0`` disables early stopping.  ``phase_bits`` switches the
    projection to a uniform phase grid with ``2**phase_bits`` points
    (quantized phase shifters); ``None`` keeps continuous phases.
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
        if self.phase_bits is not None and self.phase_bits < 1:
            raise ValueError("phase_bits must be a positive integer")


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
    unit-modulus copy and scaled dual."""

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
    the length n_tx/n_rf vector for RF chain i."""

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
    k = np.where(grid_pos == n_levels - 0.5, 0.0, k)
    return np.exp(1j * step * np.mod(k, n_levels))


def least_squares_fbb(f_rf, f_target):
    """Digital matrix minimizing ``||f_target - f_rf @ f_bb||_F``.

    Solves the normal equations ``(f_rf^H f_rf) f_bb = f_rf^H f_target``;
    requires f_rf with full column rank.  ``f_target`` may be one (n_tx, n_s)
    matrix or a (K, n_tx, n_s) stack; a stack shares the one factored Gram
    matrix and returns the (K, n_rf, n_s) stack of digital matrices.
    """
    f_rf_h = np.asarray(f_rf).conj().T
    return solve_hpd(f_rf_h @ f_rf, f_rf_h @ np.asarray(f_target))


def step_frf(state, f_target, rho):
    """Closed-form analog update of the dense loop.

    Returns ``[sum_k T_k F_k^H + rho (R - W)] (sum_k F_k F_k^H + rho I)^-1``
    over the targets T_k and digital matrices F_k (one pair, or stacks of K),
    the stationary point of the augmented Lagrangian in the analog matrix.
    """
    f_bb = state.f_bb
    f_bb_h = f_bb.conj().swapaxes(-1, -2)
    num = f_target @ f_bb_h
    gram = f_bb @ f_bb_h
    if gram.ndim == 3:
        num, gram = num.sum(axis=0), gram.sum(axis=0)
    # X (gram + rho I) = num + rho (R - W), solved from the right via the
    # Hermitian system A X^H = B^H
    a = gram + rho * np.eye(gram.shape[0])
    b = num + rho * (state.r - state.w)
    return solve_hpd(a, b.conj().T).conj().T


def _init_frf(rng, shape, phase_bits):
    f_rf = np.exp(2j * np.pi * rng.uniform(size=shape))
    if phase_bits is not None:
        # start inside the quantized feasible set
        f_rf = project_unit_modulus(f_rf, phase_bits)
    return f_rf


def _attach_trace(exc, trace):
    exc.trace = trace
    return exc


def design_wideband(targets, n_rf, cfg, normalize_power, keep_iterates=False):
    """Design one shared analog matrix and per-subcarrier digital matrices.

    Parameters
    ----------
    targets : array-like, shape (K, n_tx, n_s)
        Per-subcarrier target matrices (stacked, or a list of matrices):
        unconstrained optimal precoders, or combiners.
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
    HybridFactors
        ``f_bb`` has shape (K, n_rf, n_s); the trace objective is the sum
        of per-subcarrier residuals.
    """
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim != 3:
        raise ValueError(
            f"targets must stack K matrices of equal shape, got {targets.shape}"
        )
    _, n_tx, n_s = targets.shape
    if not n_s <= n_rf <= n_tx:
        raise ValueError(f"need n_s <= n_rf <= n_tx, got {n_s}, {n_rf}, {n_tx}")

    rng = np.random.default_rng(cfg.seed)
    f_rf = _init_frf(rng, (n_tx, n_rf), cfg.phase_bits)
    state = AdmmState(
        f_rf=f_rf,
        f_bb=least_squares_fbb(f_rf, targets),
        r=f_rf.copy(),
        w=np.zeros((n_tx, n_rf), dtype=complex),
    )

    def objective(r, f_bb):
        resid = targets - r @ f_bb
        return float(np.vdot(resid, resid).real)

    def trace_row(t):
        return (
            t,
            objective(state.r, state.f_bb),
            float(np.linalg.norm(state.f_rf - state.r)),
        )

    trace = [trace_row(0)]
    iterates = [state.copy()] if keep_iterates else None

    for t in range(1, cfg.max_iters + 1):
        state.f_rf = step_frf(state, targets, cfg.rho)
        state.f_bb = least_squares_fbb(state.f_rf, targets)
        state.r = project_unit_modulus(state.f_rf + state.w, cfg.phase_bits)
        state.w = state.w + (state.f_rf - state.r)
        trace.append(trace_row(t))
        if iterates is not None:
            iterates.append(state.copy())
        if abs(trace[-2][1] - trace[-1][1]) < cfg.tau:
            break

    f_rf_hat = state.r.copy()
    try:
        f_bb_hat = least_squares_fbb(f_rf_hat, targets)
    except np.linalg.LinAlgError as exc:
        raise _attach_trace(exc, trace)
    final_objective = objective(f_rf_hat, f_bb_hat)
    if normalize_power:
        f_bb_hat = f_bb_hat * (
            np.sqrt(n_s) / np.linalg.norm(f_rf_hat @ f_bb_hat, axis=(1, 2))
        )[:, None, None]
    return HybridFactors(
        f_rf=f_rf_hat,
        f_bb=f_bb_hat,
        structure=FULLY_CONNECTED,
        trace=trace,
        final_objective=final_objective,
        iterates=iterates,
    )


def design_fully_connected(f_target, n_rf, cfg, normalize_power, keep_iterates=False):
    """Design a dense unit-modulus analog matrix and digital matrix.

    This is :func:`design_wideband` with one subcarrier, unwrapped to a
    single (n_rf, n_s) digital matrix.

    Parameters
    ----------
    f_target : ndarray, shape (n_tx, n_s)
        Matrix to factor (unconstrained optimal precoder, or combiner).
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
    HybridFactors
    """
    f_target = np.asarray(f_target, dtype=complex)
    if f_target.ndim != 2:
        raise ValueError(f"target must be a matrix, got shape {f_target.shape}")
    design = design_wideband(
        f_target[None], n_rf, cfg, normalize_power, keep_iterates
    )
    design.f_bb = design.f_bb[0]
    if design.iterates is not None:
        for st in design.iterates:
            st.f_bb = st.f_bb[0]
    return design


def assemble_block_diag(f_vecs):
    """Stack per-chain phase vectors into the block-diagonal analog matrix.

    Column i carries vector i in rows ``i*L .. (i+1)*L - 1`` (L entries per
    chain) and zeros elsewhere.
    """
    f_vecs = np.asarray(f_vecs)
    if f_vecs.ndim != 2:
        raise ValueError("expected equal-length vectors stacked as rows")
    n_rf, block = f_vecs.shape
    out = np.zeros((n_rf * block, n_rf), dtype=complex)
    for i in range(n_rf):
        out[i * block : (i + 1) * block, i] = f_vecs[i]
    return out


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
    """
    f_target = np.asarray(f_target, dtype=complex)
    if f_target.ndim != 2:
        raise ValueError(f"target must be a matrix, got shape {f_target.shape}")
    n_tx, n_s = f_target.shape
    if n_tx % n_rf != 0:
        raise ValueError(f"n_tx={n_tx} is not divisible by n_rf={n_rf}")
    if not n_s <= n_rf:
        raise ValueError(f"need n_s <= n_rf, got n_s={n_s}, n_rf={n_rf}")
    block = n_tx // n_rf
    # row block i of the target, shape (n_rf, block, n_s)
    target3 = f_target.reshape(n_rf, block, n_s)

    rng = np.random.default_rng(cfg.seed)
    f_vecs = _init_frf(rng, (n_rf, block), cfg.phase_bits)
    f_bb = _partial_fbb(f_vecs, target3)
    state = PartialState(
        f_vecs=f_vecs,
        f_bb=f_bb,
        r_vecs=f_vecs.copy(),
        w_vecs=np.zeros((n_rf, block), dtype=complex),
    )

    def objective(st):
        recon = st.r_vecs[:, :, None] * st.f_bb[:, None, :]
        return float(np.linalg.norm(target3 - recon) ** 2)

    trace = [(0, objective(state), float(np.linalg.norm(state.f_vecs - state.r_vecs)))]
    iterates = [state.copy()] if keep_iterates else None

    for t in range(1, cfg.max_iters + 1):
        # per-scalar analog update: matching target row times digital row
        # conjugate, plus the penalty pull toward r - w
        num = (
            np.einsum("ibs,is->ib", target3, state.f_bb.conj())
            + cfg.rho * (state.r_vecs - state.w_vecs)
        )
        den = np.sum(np.abs(state.f_bb) ** 2, axis=1)[:, None] + cfg.rho
        state.f_vecs = num / den
        state.f_bb = _partial_fbb(state.f_vecs, target3)
        state.r_vecs = project_unit_modulus(
            state.f_vecs + state.w_vecs, cfg.phase_bits
        )
        state.w_vecs = state.w_vecs + (state.f_vecs - state.r_vecs)
        trace.append(
            (t, objective(state), float(np.linalg.norm(state.f_vecs - state.r_vecs)))
        )
        if iterates is not None:
            iterates.append(state.copy())
        if abs(trace[-2][1] - trace[-1][1]) < cfg.tau:
            break

    f_rf_hat = assemble_block_diag(state.r_vecs)
    f_bb_hat = _partial_fbb(state.r_vecs, target3)
    final_objective = float(np.linalg.norm(f_target - f_rf_hat @ f_bb_hat) ** 2)
    if normalize_power:
        f_bb_hat *= np.sqrt(n_s * n_rf / n_tx) / np.linalg.norm(f_bb_hat)
    return HybridFactors(
        f_rf=f_rf_hat,
        f_bb=f_bb_hat,
        structure=PARTIALLY_CONNECTED,
        trace=trace,
        final_objective=final_objective,
        iterates=iterates,
    )


def _partial_fbb(f_vecs, target3):
    # row i: ||f_i||^-2 f_i^H (target row block i)
    norms = np.sum(np.abs(f_vecs) ** 2, axis=1)
    return np.einsum("ib,ibs->is", f_vecs.conj(), target3) / norms[:, None]
