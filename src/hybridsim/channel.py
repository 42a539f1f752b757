"""Clustered mmWave channel generation for uniform square planar arrays.

The channel is a sum over scattering clusters of per-ray outer products of
receive and transmit steering vectors, scaled so the expected squared
Frobenius norm equals ``n_tx * n_rx`` per subcarrier.  The wideband variant
shares one set of gains and angles across subcarriers and applies a per-
cluster delay phase ``exp(-2j*pi*(i-1)*k/K)`` for cluster i at subcarrier k.
Since the subcarriers differ only by these phases, a draw sums its rays
once per cluster and mixes the cluster matrices per subcarrier
(``gen_wideband``).  A draw is the bare complex array: ``gen_wideband``
returns the (K, n_rx, n_tx) stack of its K subcarriers' matrices and
``gen_narrowband`` the (n_rx, n_tx) matrix of K = 1.

Reproducibility: every generator draws from ``numpy.random.default_rng(seed)``
(PCG64) in a fixed, documented order:

1. ``standard_normal((n_clusters, n_rays))`` -- real parts of the ray gains;
2. ``standard_normal((n_clusters, n_rays))`` -- imaginary parts; the gain is
   ``(re + 1j*im) / sqrt(2)`` so each gain is complex standard Gaussian;
3. ``uniform(0, 2*pi, (n_clusters, 4))`` -- cluster mean angles, columns in
   the order (tx azimuth, tx elevation, rx azimuth, rx elevation);
4. ``standard_normal((n_clusters, n_rays, 4)) * angular_spread_rad`` -- ray
   offsets about the cluster means, same component order, cluster by cluster.

``sample_cluster_angles`` returns the draws of steps 3 and 4 as they are, the
arrays ``(means, offsets)`` of shapes (n_clusters, 4) and (n_clusters,
n_rays, 4), and each ray's angles are ``means[:, None] + offsets``.

The planar-array element for antenna indices (p, q) is enumerated p-major:
linear index = p * side + q.
"""

from dataclasses import dataclass

import numpy as np

from .admm import check_finite, check_int

__all__ = [
    "ArrayGeometry",
    "ClusterParams",
    "array_response",
    "sample_cluster_angles",
    "gen_narrowband",
    "gen_wideband",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform square planar array: ``side`` x ``side`` elements."""

    side: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "side", check_int(self.side, "side", 1))
        check_finite(self.spacing_over_lambda, "spacing_over_lambda")
        if self.spacing_over_lambda <= 0:
            raise ValueError("spacing_over_lambda must be positive")

    @property
    def n_elements(self):
        return self.side * self.side


@dataclass(frozen=True)
class ClusterParams:
    """Cluster/ray counts and the common angular spread (radians)."""

    n_clusters: int = 8
    n_rays: int = 10
    angular_spread_rad: float = np.radians(10.0)

    def __post_init__(self):
        for name in ("n_clusters", "n_rays"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        check_finite(self.angular_spread_rad, "angular_spread_rad")
        if self.angular_spread_rad < 0:
            raise ValueError("angular_spread_rad must be nonnegative")


def array_response(geom, azimuth, elevation):
    """Steering vector of a square planar array toward (azimuth, elevation).

    Element (p, q), with p, q in 0..side-1 and linear index p*side + q, is
    ``(1/side) * exp(2j*pi*(d/lambda)*(p*sin(az)*sin(el) + q*cos(el)))``.
    The vector has unit Euclidean norm.

    Parameters
    ----------
    geom : ArrayGeometry
    azimuth, elevation : float
        Angles in radians.

    Returns
    -------
    ndarray, shape (side**2,), complex
    """
    a = _response_matrix(geom, np.asarray([azimuth]), np.asarray([elevation]))
    return a[:, 0]


def _response_matrix(geom, azimuth, elevation):
    """Steering vectors for arrays of angles, stacked as columns.

    Same element convention as ``array_response``; one column per angle pair.
    """
    azimuth = np.asarray(azimuth, dtype=float).ravel()
    elevation = np.asarray(elevation, dtype=float).ravel()
    idx = np.arange(geom.side)
    # phase factor per angle: p-term uses sin(az)*sin(el), q-term cos(el)
    k = 2.0 * np.pi * geom.spacing_over_lambda
    p_phase = np.exp(1j * k * np.outer(idx, np.sin(azimuth) * np.sin(elevation)))
    q_phase = np.exp(1j * k * np.outer(idx, np.cos(elevation)))
    # (p, q, angle) -> row-major flatten over (p, q) gives index p*side + q
    a = p_phase[:, None, :] * q_phase[None, :, :]
    # NumPy divides a complex array by a real scalar as by a complex one,
    # scaling both parts by the scalar's reciprocal: on entries with no zero
    # part, as steering entries have, this product gives the quotient's bits
    # without the cost of a complex division
    return a.reshape(geom.side * geom.side, azimuth.size) * (1.0 / geom.side)


def sample_cluster_angles(rng, params):
    """Draw cluster mean angles and per-ray offsets; return ``(means, offsets)``.

    ``means``, shape (n_clusters, 4), is uniform on [0, 2*pi]; ``offsets``,
    shape (n_clusters, n_rays, 4), is zero-mean Gaussian with standard
    deviation ``params.angular_spread_rad``.  The columns of both are (tx
    azimuth, tx elevation, rx azimuth, rx elevation), and ray j of cluster i
    points at ``means[i] + offsets[i, j]``.  Follows steps 3-4 of the
    module-level stream order.
    """
    means = rng.uniform(0.0, 2.0 * np.pi, size=(params.n_clusters, 4))
    offsets = params.angular_spread_rad * rng.standard_normal(
        size=(params.n_clusters, params.n_rays, 4)
    )
    return means, offsets


def gen_wideband(seed, tx_geom, rx_geom, params, n_subcarriers):
    """Generate a frequency-selective channel over ``n_subcarriers`` bins.

    One set of gains and angles is shared by all subcarriers; cluster i
    contributes with delay phase ``exp(-2j*pi*(i-1)*k/K)`` at subcarrier k.
    A draw is assembled in two products: one batched product forms each
    cluster's matrix ``gamma * A_rx,i diag(g_i) A_tx,i^H`` over its rays,
    then each subcarrier is the phase-weighted sum of the cluster matrices,
    one vector-matrix product per subcarrier.  That last product is the
    same computation at every K, so subcarrier 0 (all phases 1) is bitwise
    the narrowband draw of the same seed, and ``n_subcarriers=1`` matches
    ``gen_narrowband`` exactly.

    Parameters
    ----------
    seed : int
        Nonnegative seed for ``numpy.random.default_rng``.
    tx_geom, rx_geom : ArrayGeometry
    params : ClusterParams
    n_subcarriers : int

    Returns
    -------
    ndarray, shape (n_subcarriers, n_rx, n_tx), complex
        The C-contiguous stack of the subcarriers' matrices.

    Raises
    ------
    ValueError
        If ``seed`` is not a nonnegative integer or ``n_subcarriers`` not a
        positive one, both checked before anything is drawn, or if an entry
        is not finite, as an extreme but accepted spacing or angular spread
        can make it.
    """
    seed = check_int(seed, "seed", 0)
    n_subcarriers = check_int(n_subcarriers, "n_subcarriers", 1)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((params.n_clusters, params.n_rays))
    im = rng.standard_normal((params.n_clusters, params.n_rays))
    gains = (re + 1j * im) / np.sqrt(2.0)
    means, offsets = sample_cluster_angles(rng, params)
    # (n_clusters, n_rays, 4): each ray's angles, in the columns of step 3
    rays = means[:, None] + offsets

    a_tx = _response_matrix(tx_geom, rays[..., 0], rays[..., 1])
    a_rx = _response_matrix(rx_geom, rays[..., 2], rays[..., 3])
    n_tx = tx_geom.n_elements
    n_rx = rx_geom.n_elements
    n_clusters, n_rays = params.n_clusters, params.n_rays
    gamma = np.sqrt(n_tx * n_rx / (n_clusters * n_rays))

    # rays are cluster-major: (n_clusters, n_rx, n_rays) @ (n_clusters,
    # n_rays, n_tx), slice i is gamma a_rx,i diag(gains_i) a_tx,i^H
    weighted = (a_rx * (gamma * gains.ravel())).reshape(n_rx, n_clusters, n_rays)
    clusters = weighted.transpose(1, 0, 2) @ a_tx.conj().T.reshape(
        n_clusters, n_rays, n_tx
    )
    # (K, 1, n_clusters): row k is each cluster's delay phase at subcarrier k
    delay = np.exp(
        np.outer(np.arange(n_subcarriers), -2j * np.pi * np.arange(n_clusters))
        / n_subcarriers
    )[:, None, :]
    # one (1, n_clusters) @ (n_clusters, n_rx * n_tx) product per subcarrier
    matrices = (delay @ clusters.reshape(n_clusters, -1)).reshape(
        n_subcarriers, n_rx, n_tx
    )
    if not np.isfinite(matrices).all():
        raise ValueError("the channel contains non-finite entries")
    return matrices


def gen_narrowband(seed, tx_geom, rx_geom, params):
    """Generate a single-carrier channel draw (see ``gen_wideband``).

    Returns
    -------
    ndarray, shape (n_rx, n_tx), complex
        ``gen_wideband(seed, tx_geom, rx_geom, params, 1)[0]``.
    """
    return gen_wideband(seed, tx_geom, rx_geom, params, n_subcarriers=1)[0]
