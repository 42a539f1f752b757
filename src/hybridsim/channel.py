"""Clustered mmWave channel generation for uniform square planar arrays.

The channel is a sum over scattering clusters of per-ray outer products of
receive and transmit steering vectors, scaled so the expected squared
Frobenius norm equals ``n_tx * n_rx`` per subcarrier.  The wideband variant
shares one set of gains and angles across subcarriers and applies a per-
cluster delay phase ``exp(-2j*pi*(i-1)*k/K)`` for cluster i at subcarrier k.
Since the subcarriers differ only by these phases, a draw sums its rays
once per cluster and mixes the cluster matrices per subcarrier
(``gen_wideband``).

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

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .admm import check_finite, check_int

__all__ = [
    "ArrayGeometry",
    "ClusterParams",
    "ChannelRealization",
    "array_response",
    "sample_cluster_angles",
    "gen_narrowband",
    "gen_wideband",
    "save_channel",
    "load_channel",
]

_DUMP_FORMAT = "hybridsim-channel-v1"
# the keys save_channel writes besides "format", each of which load_channel reads
_DUMP_KEYS = (
    "n_rx",
    "n_tx",
    "n_subcarriers",
    "seed",
    "tx_geometry",
    "rx_geometry",
    "cluster_params",
    "entries",
)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform square planar array: ``side`` x ``side`` elements."""

    side: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "side", check_int(self.side, "side"))
        check_finite(self.spacing_over_lambda, "spacing_over_lambda")
        if self.side < 1:
            raise ValueError("side must be >= 1")
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
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        check_finite(self.angular_spread_rad, "angular_spread_rad")
        if self.n_clusters < 1 or self.n_rays < 1:
            raise ValueError("n_clusters and n_rays must be positive")
        if self.angular_spread_rad < 0:
            raise ValueError("angular_spread_rad must be nonnegative")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One channel draw: ``matrices`` is the complex (K, n_rx, n_tx) array of
    its K subcarriers' matrices (K = 1 when narrowband).

    The constructor stores ``matrices`` as one complex array and raises
    ValueError unless K >= 1, (n_rx, n_tx) are the element counts of
    ``rx_geometry`` and ``tx_geometry``, every entry is finite, and
    ``seed`` is a nonnegative integer; so every realization can be saved
    and read back as it is.
    Realizations compare by identity.
    """

    matrices: np.ndarray = field(repr=False)
    seed: int = 0
    tx_geometry: ArrayGeometry = ArrayGeometry(1)
    rx_geometry: ArrayGeometry = ArrayGeometry(1)
    params: ClusterParams = ClusterParams()

    def __post_init__(self):
        matrices = np.asarray(self.matrices, dtype=complex)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        n_rx, n_tx = self.rx_geometry.n_elements, self.tx_geometry.n_elements
        if matrices.shape[1:] != (n_rx, n_tx) or matrices.size == 0:
            raise ValueError(
                f"matrices of shape {matrices.shape} do not match a {n_rx}-element "
                f"receive and a {n_tx}-element transmit array: need (K >= 1, "
                f"{n_rx}, {n_tx})"
            )
        if not np.isfinite(matrices).all():
            raise ValueError("matrices contain non-finite entries")

    @property
    def n_subcarriers(self):
        """The subcarrier count K, ``len(matrices)``."""
        return len(self.matrices)

    @property
    def matrix(self):
        """The narrowband matrix (subcarrier 0)."""
        return self.matrices[0]


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
        Seed for the generator; recorded in the returned realization.
    tx_geom, rx_geom : ArrayGeometry
    params : ClusterParams
    n_subcarriers : int

    Returns
    -------
    ChannelRealization
        Its ``matrices`` are the (n_subcarriers, n_rx, n_tx) stack.
    """
    n_subcarriers = check_int(n_subcarriers, "n_subcarriers")
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
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
    return ChannelRealization(
        matrices=matrices,
        seed=seed,
        tx_geometry=tx_geom,
        rx_geometry=rx_geom,
        params=params,
    )


def gen_narrowband(seed, tx_geom, rx_geom, params):
    """Generate a single-carrier channel draw (see ``gen_wideband``)."""
    return gen_wideband(seed, tx_geom, rx_geom, params, n_subcarriers=1)


def save_channel(realization, path):
    """Write a ChannelRealization as structured text (JSON).

    Entries are stored per subcarrier as a flat row-major list of
    interleaved real/imag parts, so the dump replays exactly across
    implementations.  A realization checks its own shape and seed when it
    is built, so every one saves into a dump that ``load_channel`` reads
    back as it is.
    """
    doc = {
        "format": _DUMP_FORMAT,
        "n_rx": realization.rx_geometry.n_elements,
        "n_tx": realization.tx_geometry.n_elements,
        "n_subcarriers": realization.n_subcarriers,
        "seed": realization.seed,
        "tx_geometry": asdict(realization.tx_geometry),
        "rx_geometry": asdict(realization.rx_geometry),
        "cluster_params": asdict(realization.params),
        # the (real, imag) pairs of each entry, as load_channel reads them
        "entries": [h.ravel().view(np.float64).tolist() for h in realization.matrices],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_channel(path):
    """Read a ChannelRealization written by ``save_channel``.

    A dump that is not such a JSON object, lacks a key, holds a non-finite
    entry, or whose matrix shape, subcarrier count, entry lists, geometry or
    cluster parameters do not agree is a ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a channel dump is a JSON object, not a {type(doc).__name__}")
    if doc.get("format") != _DUMP_FORMAT:
        raise ValueError(f"unrecognized channel dump format: {doc.get('format')!r}")
    missing = [key for key in _DUMP_KEYS if key not in doc]
    if missing:
        raise ValueError(f"the channel dump lacks {missing}")
    n_rx, n_tx, n_subcarriers = (
        check_int(doc[name], name) for name in ("n_rx", "n_tx", "n_subcarriers")
    )
    if n_rx < 0 or n_tx < 0:
        raise ValueError(f"{n_rx} x {n_tx} matrices have a negative size")
    entries = doc["entries"]
    if not isinstance(entries, list) or not all(isinstance(e, list) for e in entries):
        raise ValueError("entries must be a list of number lists, one per subcarrier")
    if len(entries) != n_subcarriers:
        raise ValueError(f"{len(entries)} entry lists for {n_subcarriers} subcarriers")
    for inter in entries:
        if len(inter) != 2 * n_rx * n_tx:
            raise ValueError(
                f"an entry list holds {len(inter)} numbers, not the "
                f"{2 * n_rx * n_tx} of a {n_rx} x {n_tx} complex matrix"
            )
        # a JSON number loads as int or float; null, true and "0.25" would
        # convert to NaN, 1.0 and 0.25
        bad = [v for v in inter if type(v) not in (int, float)]
        if bad:
            raise ValueError(f"entries must be JSON numbers, got {bad[0]!r}")
    try:
        floats = np.asarray(entries, dtype=float)
    except OverflowError:
        raise ValueError("an entry is an integer beyond float range") from None
    # reinterpret the (real, imag) pairs in place: exact, signed zeros
    # included, where ``re + 1j * im`` would turn -0.0 into 0.0
    matrices = floats.view(complex).reshape(n_subcarriers, n_rx, n_tx)
    return ChannelRealization(
        matrices=matrices,
        seed=doc["seed"],
        tx_geometry=_dump_object(doc, "tx_geometry", ArrayGeometry),
        rx_geometry=_dump_object(doc, "rx_geometry", ArrayGeometry),
        params=_dump_object(doc, "cluster_params", ClusterParams),
    )


def _dump_object(doc, key, cls):
    """``cls`` built from the dump's ``key`` object, which holds every field of
    ``cls`` and nothing else, as ``save_channel`` writes it; ValueError if not."""
    value = doc[key]
    names = sorted(f.name for f in fields(cls))
    if not isinstance(value, dict) or sorted(value) != names:
        raise ValueError(
            f"{key} must be an object with the keys {names}, got {value!r}"
        )
    return cls(**value)
