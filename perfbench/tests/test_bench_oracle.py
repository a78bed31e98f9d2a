"""The closed forms behind the output checks reproduce the paper's reference points."""

import pytest

import oracle
from sqzbeat.config import preset_config


def test_straightforward_floor_reference_point():
    assert oracle.straightforward_floor(0.356, 4.30) == pytest.approx(1.342, abs=5e-4)


def test_fig4_demod_floor():
    cfg = preset_config("fig4-demod")
    (band,) = cfg.measurement.bands
    assert oracle.band_reduction_db(cfg, band) == pytest.approx(3.35, abs=5e-3)


def test_cavity_spectrum_is_pure_at_unit_escape():
    s, a = oracle.cavity_spectra(0.5, 1.0, 30e6, [0.0, 10e6, 40e6])
    assert s[0] == pytest.approx((0.5 / 1.5) ** 2)
    assert s * a == pytest.approx([1.0, 1.0, 1.0])
