"""Field-layer contracts: vacuum statistics, squeezing, loss, quadratures."""

from dataclasses import replace

import numpy as np
import pytest

from sqzbeat import fields
from sqzbeat.fields import (
    BandError,
    FrequencyGrid,
    SqueezerSpec,
    apply_loss,
    apply_squeezer,
    epr_identity_residual,
    make_vacuum_field,
    quadrature_series,
)
from sqzbeat.rng import substream

from helpers import naive_psd, normals
from oracles import quadrature_at_angle

FS = 125e6
GRID = FrequencyGrid(FS, 2500)
VAC = (2, GRID.n_samples)  # the normals of one vacuum row on GRID

# Hand-evaluated squeezing dip for pump_ratio = sqrt(90/600), eta = 0.8 at
# zero sideband offset: 1 - 0.8 * 4x / (1 + x)^2.
S_AT_DC = 0.3560444686445266
A_AT_DC = 4.301394977722255


def _vacuum(seed):
    return make_vacuum_field(GRID, normals(seed, *VAC))


def _quad_psd(spec=None, frames=300, seed=101, angle=0.0, center=30e6, loss=None):
    acc1, acc2 = [], []
    for i in range(frames):
        f = _vacuum(substream(seed, 0, i))
        if spec is not None:
            f = apply_squeezer(GRID, f, spec)
        if loss is not None:
            f = apply_loss(GRID, f, loss, normals(substream(seed, 1, i), *VAC))
        q = quadrature_series(GRID, f, center)
        acc1.append(quadrature_at_angle(q, angle))
        acc2.append(quadrature_at_angle(q, angle + np.pi / 2.0))
    freqs = np.fft.rfftfreq(GRID.n_samples, 1.0 / FS)
    return freqs, naive_psd(acc1), naive_psd(acc2)


def test_vacuum_determinism():
    a = _vacuum(substream(42, 1, 2, 3))
    b = _vacuum(substream(42, 1, 2, 3))
    assert np.array_equal(a, b)
    c = _vacuum(substream(42, 1, 2, 4))
    assert not np.array_equal(a, c)


def test_vacuum_amplitudes_zero_mean():
    frames = 1000
    total = 0.0 + 0.0j
    for i in range(frames):
        total += _vacuum(substream(7, 0, i)).mean()
    mean = total / frames
    # each bin component has std sqrt(0.5 / n); the grand mean shrinks by
    # sqrt(n * frames)
    sigma = np.sqrt(0.5 / GRID.n_samples / (GRID.n_samples * frames))
    assert abs(mean.real) < 4 * sigma
    assert abs(mean.imag) < 4 * sigma


def test_vacuum_quadrature_psd_is_unity():
    frames = 600
    freqs, p1, p2 = _quad_psd(frames=frames)
    band = (freqs > 1e6) & (freqs < 20e6)
    nb = band.sum()
    tol = 3.5 / np.sqrt(frames * nb)
    assert abs(p1[band].mean() - 1.0) < tol
    assert abs(p2[band].mean() - 1.0) < tol


def test_vacuum_psd_unity_at_other_centers():
    frames = 400
    for center in (10e6, -20e6, 45e6):
        freqs, p1, _ = _quad_psd(frames=frames, center=center, seed=55)
        band = (freqs > 1e6) & (freqs < 10e6)
        assert abs(p1[band].mean() - 1.0) < 4 / np.sqrt(frames * band.sum())


def test_squeezer_zero_pump_is_identity():
    f = _vacuum(substream(9, 0, 0))
    spec = SqueezerSpec(0.0, 30e6, 0.8, 0.3, center_freq_hz=30e6)
    out = apply_squeezer(GRID, f, spec)
    assert np.array_equal(out, f)


def test_squeezer_rejects_above_threshold():
    with pytest.raises(ValueError):
        SqueezerSpec(1.0, 30e6)


def test_squeezing_spectrum_reference_point():
    spec = SqueezerSpec(np.sqrt(90.0 / 600.0), 30e6, 0.8, center_freq_hz=30e6)
    s, a = spec.squeezing_spectrum(0.0)
    assert s == pytest.approx(S_AT_DC, abs=1e-12)
    assert a == pytest.approx(A_AT_DC, abs=1e-12)
    # consistent with a measured squeezing level of about 4.5 dB
    assert 4.3 < -10 * np.log10(s) < 4.6


def test_squeezing_spectrum_rolls_off():
    spec = SqueezerSpec(0.5, 30e6, 0.9, center_freq_hz=30e6)
    s0, a0 = spec.squeezing_spectrum(0.0)
    s1, a1 = spec.squeezing_spectrum(30e6)
    assert s0 < s1 < 1.0
    assert a0 > a1 > 1.0


def test_squeezer_purity_bound():
    eps = np.linspace(0.0, 100e6, 41)
    for x in (0.1, 0.387, 0.8):
        for eta in (0.3, 0.7, 1.0):
            s, a = SqueezerSpec(x, 30e6, eta, center_freq_hz=0.0).squeezing_spectrum(eps)
            prod = s * a
            if eta == 1.0:
                assert np.allclose(prod, 1.0, atol=1e-12)
            else:
                assert np.all(prod > 1.0)


def test_squeezed_quadrature_psd_matches_model():
    spec = SqueezerSpec(np.sqrt(90.0 / 600.0), 30e6, 0.8, center_freq_hz=30e6)
    frames = 400
    freqs, p1, p2 = _quad_psd(spec, frames=frames, seed=99)
    s_th, a_th = spec.squeezing_spectrum(freqs)
    band = (freqs > 0.5e6) & (freqs < 25e6)
    nb = band.sum()
    assert np.mean(p1[band] / s_th[band]) == pytest.approx(1.0, abs=4 / np.sqrt(frames * nb))
    assert np.mean(p2[band] / a_th[band]) == pytest.approx(1.0, abs=4 / np.sqrt(frames * nb))


def test_squeeze_angle_selects_quadrature():
    angle = 0.7
    spec = SqueezerSpec(0.5, 300e6, 1.0, squeeze_angle_rad=angle, center_freq_hz=30e6)
    frames = 300
    freqs, p_min, p_max = _quad_psd(spec, frames=frames, seed=3, angle=angle)
    band = (freqs > 1e6) & (freqs < 15e6)
    s_th, a_th = spec.squeezing_spectrum(7e6)
    assert p_min[band].mean() == pytest.approx(s_th, rel=0.05)
    assert p_max[band].mean() == pytest.approx(a_th, rel=0.05)


def test_loss_identity_and_fixed_point():
    f = _vacuum(substream(5, 0, 0))
    out = apply_loss(GRID, f, 1.0, substream(5, 1, 0))
    assert np.array_equal(out, f)
    frames = 400
    freqs, p1, _ = _quad_psd(frames=frames, seed=31, loss=0.37)
    band = (freqs > 1e6) & (freqs < 20e6)
    assert abs(p1[band].mean() - 1.0) < 4 / np.sqrt(frames * band.sum())


def test_loss_rejects_bad_efficiency():
    f = _vacuum(substream(5, 0, 0))
    for eff in (-0.1, 1.1):
        with pytest.raises(ValueError):
            apply_loss(GRID, f, eff, normals(substream(5, 1, 0), *VAC))


def test_loss_mixes_squeezed_power():
    # flat squeezing of 0.1 through 80% efficiency: 0.8 * 0.1 + 0.2 = 0.28
    x = 0.5195253280689318  # 4x / (1 + x)^2 = 0.9
    spec = SqueezerSpec(x, 3e9, 1.0, center_freq_hz=30e6)
    s0 = spec.squeezing_spectrum(5e6)[0]
    assert s0 == pytest.approx(0.1, abs=1e-4)
    frames = 400
    freqs, p1, _ = _quad_psd(spec, frames=frames, seed=21, loss=0.8)
    band = (freqs > 1e6) & (freqs < 15e6)
    se = 4 * 0.28 / np.sqrt(frames * band.sum())
    assert p1[band].mean() == pytest.approx(0.28, abs=3 * se + 0.003)


def _real_map(fn, n):
    """Real 2n x 2n matrix of a real-linear map of n complex bins: the
    output, as [Re; Im], of each unit real and unit imaginary input bin."""
    cols = []
    for unit in (1.0, 1j):
        for k in range(n):
            x = np.zeros(n, dtype=complex)
            x[k] = unit
            y = fn(x)
            cols.append(np.concatenate([y.real, y.imag]))
    return np.array(cols).T


@pytest.mark.parametrize("angle", [0.0, 0.7])
@pytest.mark.parametrize("eta", [0.97 * 0.99, 0.56])
def test_loss_folded_into_squeezer_gains_is_the_explicit_loss(eta, angle, monkeypatch):
    # Synthesis squeezes at escape x eta instead of squeezing and then
    # admitting vacuum at efficiency eta.  Both are linear in their unit
    # inputs, so both output covariances are exact: M M^T against
    # L L^T = eta S S^T + (1 - eta) I, with L = [sqrt(eta) S, sqrt(1 - eta) I]
    # read off apply_squeezer then apply_loss, its vacuum port fed too.
    grid = FrequencyGrid(16e6, 16)
    n = grid.n_samples
    spec = SqueezerSpec(0.6, 3e6, 0.9, squeeze_angle_rad=angle, center_freq_hz=2e6)
    folded = replace(spec, escape_efficiency=spec.escape_efficiency * eta)
    zero = np.zeros(n, dtype=complex)

    def squeeze(x, sq):
        return apply_squeezer(grid, x, sq)

    def loss(signal, vacuum):
        monkeypatch.setattr(fields, "make_vacuum_field", lambda g, z: vacuum.copy())
        return apply_loss(grid, signal, eta, normals=None)

    m = _real_map(lambda x: squeeze(x, folded), n)
    s = _real_map(lambda x: squeeze(x, spec), n)
    lossy = np.hstack([
        _real_map(lambda x: loss(squeeze(x, spec), zero), n),
        _real_map(lambda x: loss(zero, x), n),
    ])
    explicit = lossy @ lossy.T
    assert np.abs(explicit - (eta * s @ s.T + (1.0 - eta) * np.eye(2 * n))).max() < 1e-12
    assert np.abs(m @ m.T - explicit).max() < 1e-12
    assert not np.allclose(s @ s.T, np.eye(2 * n))  # the squeezer acts on this grid


def test_quadrature_series_linearity():
    f = _vacuum(substream(61, 0, 0))
    g = _vacuum(substream(61, 0, 1))
    qf = quadrature_series(GRID, f, 30e6)
    qg = quadrature_series(GRID, g, 30e6)
    qb = quadrature_series(GRID, f + 2.5 * g, 30e6)
    for b, x, y in zip(qb, qf, qg):  # a1, then a2
        assert np.allclose(b, x + 2.5 * y, atol=1e-12)


def test_quadrature_series_band_errors():
    f = _vacuum(substream(61, 0, 0))
    with pytest.raises(BandError):
        quadrature_series(GRID, f, 30.0001e6)  # off-grid center
    with pytest.raises(BandError):
        quadrature_series(GRID, f, 30e6, eps_max=40e6)  # past the edge margin
    with pytest.raises(BandError):
        quadrature_series(GRID, f, 62.5e6)  # outside the open band


def test_squeezer_and_quadratures_on_a_block_equal_each_frame():
    # the target paths squeeze blocks of frames; each row must carry the
    # exact bits of the one-frame call on that row
    spec = SqueezerSpec(0.6, 20e6, 0.9, squeeze_angle_rad=0.4, center_freq_hz=30e6)
    seeds = [substream(71, 0, i) for i in range(4)]
    block = apply_squeezer(GRID, make_vacuum_field(GRID, np.stack([normals(s, *VAC) for s in seeds])), spec)
    a1, a2 = quadrature_series(GRID, block, 30e6)
    assert block.shape == a1.shape == a2.shape == (4, GRID.n_samples)
    for i, seed in enumerate(seeds):
        single = apply_squeezer(GRID, _vacuum(seed), spec)
        assert np.array_equal(block[i], single)
        q1, q2 = quadrature_series(GRID, single, 30e6)
        assert np.array_equal(a1[i], q1)
        assert np.array_equal(a2[i], q2)


def test_epr_identity_residual_small_for_any_state():
    worst = 0.0
    for i in range(25):
        f = _vacuum(substream(13, 0, i))
        if i % 2:
            f = apply_squeezer(GRID, f, SqueezerSpec(0.6, 20e6, 0.9, 0.4, center_freq_hz=30e6))
        worst = max(worst, epr_identity_residual(GRID, f, 20e6, 10e6))
    assert worst <= 1e-9


def test_epr_identity_band_violation():
    f = _vacuum(substream(13, 0, 0))
    with pytest.raises(BandError):
        epr_identity_residual(GRID, f, 50e6, 10e6)  # upper band runs off the grid


def test_epr_grouped_terms_reduced_by_squeezing():
    """The two recombination groups lose variance as the pump grows."""
    beat = 10e6
    mid = 30e6
    width = beat - GRID.bin_hz
    ratios = []
    for x in (0.0, 0.25, 0.5, 0.7):
        var_d = var_s = 0.0
        frames = 150
        for i in range(frames):
            f = _vacuum(substream(17, 0, i))
            if x > 0:
                f = apply_squeezer(GRID, f, SqueezerSpec(x, 3e9, 1.0, center_freq_hz=mid))
            up1, up2 = quadrature_series(GRID, f, mid + beat, eps_max=width)
            lo1, lo2 = quadrature_series(GRID, f, mid - beat, eps_max=width)
            var_d += np.var(up2 - lo2)
            var_s += np.var(up1 + lo1)
        ratios.append((var_d / frames, var_s / frames))
    vac_d, vac_s = ratios[0]
    prev = (vac_d, vac_s)
    for var_d, var_s in ratios[1:]:
        assert var_d < prev[0] and var_s < prev[1]
        assert var_d < vac_d and var_s < vac_s
        prev = (var_d, var_s)
    # strongest pump: band-averaged squeezed PSD predicts the group variance
    spec = SqueezerSpec(0.7, 3e9, 1.0, center_freq_hz=mid)
    s_flat = spec.squeezing_spectrum(beat)[0]
    assert ratios[-1][0] / vac_d == pytest.approx(s_flat, rel=0.15)
    assert ratios[-1][1] / vac_s == pytest.approx(s_flat, rel=0.15)


def test_grid_invariants():
    with pytest.raises(ValueError):
        FrequencyGrid(125e6, 15)
    with pytest.raises(ValueError):
        FrequencyGrid(125e6, 2501)
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 2500)

