"""Property tests of the stacked rate, SVD factors and SVD.

Leading axes of ``spectral_efficiency``, ``optimal_factors`` and
``numerics.svd`` are batch axes: every slice of a stacked call must be
bitwise what the call on that slice alone returns, and one bad slice makes
the whole call raise.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim.baseline import optimal_factors, spectral_efficiency  # noqa: E402
from hybridsim.numerics import svd  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def stacks(draw):
    """Random (R, K) stacks of channels, precoders and combiners."""
    lead = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    n_s = draw(st.integers(1, 3))
    n_rx = draw(st.integers(n_s, n_s + 4))
    n_tx = draw(st.integers(n_s, n_s + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snr_db = draw(st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=6))
    snrs = 10.0 ** (np.array(snr_db) / 10.0)
    h = crandn(rng, *lead, n_rx, n_tx)
    f = crandn(rng, *lead, n_tx, n_s)
    wc = crandn(rng, *lead, n_rx, n_s)
    return h, f, wc, snrs, n_s


@PROPERTY
@given(stacks())
def test_stacked_rate_equals_per_slice(case):
    h, f, wc, snrs, n_s = case
    lead = h.shape[:-2]
    rates = spectral_efficiency(h, f, wc, snrs, n_s)
    scalar = spectral_efficiency(h, f, wc, snrs[0], n_s)
    assert rates.shape == (*lead, len(snrs))
    assert scalar.shape == lead
    for idx in np.ndindex(lead):
        alone = spectral_efficiency(h[idx], f[idx], wc[idx], snrs, n_s)
        assert rates[idx].tobytes() == alone.tobytes()
        alone = spectral_efficiency(h[idx], f[idx], wc[idx], snrs[0], n_s)
        assert isinstance(alone, float)
        assert scalar[idx] == alone


@PROPERTY
@given(stacks())
def test_stacked_factors_and_svd_equal_per_slice(case):
    h, _, _, _, n_s = case
    lead = h.shape[:-2]
    k = min(h.shape[-2:])
    stacked = optimal_factors(h, n_s)
    assert stacked.f_opt.shape == (*lead, h.shape[-1], n_s)
    assert stacked.w_opt.shape == (*lead, h.shape[-2], n_s)
    assert stacked.singular_values.shape == (*lead, k)
    u, s, v = svd(h)
    for idx in np.ndindex(lead):
        alone = optimal_factors(h[idx], n_s)
        assert stacked.f_opt[idx].tobytes() == alone.f_opt.tobytes()
        assert stacked.w_opt[idx].tobytes() == alone.w_opt.tobytes()
        assert (
            stacked.singular_values[idx].tobytes()
            == alone.singular_values.tobytes()
        )
        for got, want in zip((u, s, v), svd(h[idx])):
            assert got[idx].tobytes() == want.tobytes()


def test_return_types():
    rng = np.random.default_rng(0)
    h, f, wc = crandn(rng, 4, 5), crandn(rng, 5, 2), crandn(rng, 4, 2)
    assert isinstance(spectral_efficiency(h, f, wc, 2.0, 2), float)
    assert spectral_efficiency(h, f, wc, np.array([1.0, 2.0]), 2).shape == (2,)
    one = spectral_efficiency(h[None], f[None], wc[None], 2.0, 2)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert spectral_efficiency(h[None], f[None], wc[None], [2.0], 2).shape == (1, 1)


class TestOneBadSliceFailsTheStack:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.h = crandn(rng, 3, 2, 4, 5)
        self.f = crandn(rng, 3, 2, 5, 2)
        self.wc = crandn(rng, 3, 2, 4, 2)
        self.snrs = np.array([0.1, 1.0, 10.0])

    def test_rank_deficient_combiner(self):
        self.wc[1, 1, :, 1] = self.wc[1, 1, :, 0]
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            spectral_efficiency(self.h, self.f, self.wc, self.snrs, 2)

    @pytest.mark.parametrize("which", ["h", "f", "wc"])
    def test_nonfinite_slice(self, which):
        getattr(self, which)[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            spectral_efficiency(self.h, self.f, self.wc, self.snrs, 2)

    def test_nonfinite_channel_slice_in_factors(self):
        self.h[0, 1, 3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            optimal_factors(self.h, 2)
        with pytest.raises(ValueError, match="non-finite"):
            svd(self.h)

    def test_mismatched_leading_axes(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h, self.f[:2], self.wc, self.snrs, 2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h, self.f, self.wc[:, :1], self.snrs, 2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h[0, 0, 0], self.f, self.wc, self.snrs, 2)
