"""Experiment configuration, validation and the preset catalog.

Configs are plain frozen dataclasses with JSON round-tripping.  Validation
raises ConfigError with a dotted field path so the CLI can point at the
offending entry.  The preset catalog expands to complete configs that pass
validation; every run records the hash of its expanded config.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

from .dsp import BandSpec
from .fields import BandError, FrequencyGrid, SqueezerSpec
from .interferometer import SCHEMES, OpticalPath

KINDS = ("heterodyne", "epr", "opo-sweep")
MEASUREMENTS = ("raw", "demod", "demod-no-cross")

# Matches an escape efficiency times pickoff and detector losses of about
# 20% total on the squeezed path.
_ESCAPE = 0.833
_OPO1_PUMP_RATIO = math.sqrt(90.0 / 600.0)
_OPO2_PUMP_RATIO = math.sqrt(80.0 / 600.0)

# Upper bounds of the readout-noise levels (dB relative to the shot floor)
# and of the detector's gain ripple.  Readout noise 60 dB above the shot
# floor buries any squeezing measurement, and the bounds keep every level
# derived from these fields finite.
MAX_NOISE_REL_DB = 60.0
MAX_GAIN_RIPPLE_DB = 40.0
# Frames are synthesized in blocks of complex rows, so a frame of 10^6
# samples already takes tens of MB per temporary.
MAX_SAMPLES = 1_000_000
# Carrier amplitudes in shot-noise units.  The budget weighs each source by
# the other carrier's power and classical phase noise scales as
# 1 / (E1 E2)^2, which leave the float range for much weaker carriers.
MIN_CARRIER = 1e-6


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class GridConfig:
    sample_rate_hz: float = 125e6
    n_samples: int = 5000
    frames: int = 12500


@dataclass(frozen=True)
class SqueezerConfig:
    """Squeezer knobs; center frequency and base angle follow the scheme."""

    pump_ratio: float
    hwhm_hz: float = 30e6
    escape_efficiency: float = _ESCAPE
    angle_offset_rad: float = 0.0
    angle_jitter_rms_rad: float = 0.0


@dataclass(frozen=True)
class BeamsConfig:
    # Modulation depth keeps the signal peak ~20 dB above the shot floor
    # at these carrier amplitudes; the tone is off-grid, so a stronger
    # peak would leak past the exclusion zone into the analysis bands.
    e1: float = 1000.0
    e2: float = 1000.0
    beat_freq_hz: float = 10e6
    anchor_hz: float = 30e6
    mod_freq_hz: float = 3.11e6
    mod_depth_rad: float = 1e-3
    classical_fraction: float = 0.0


@dataclass(frozen=True)
class PickoffConfig:
    reflectivity: float = 0.97
    squeezer: SqueezerConfig | None = None
    injection_phase_rad: float = 0.0


@dataclass(frozen=True)
class DetectorConfig:
    """Balanced detector; electronic_noise_rel_db <= MAX_NOISE_REL_DB and
    |gain_ripple_db| <= MAX_GAIN_RIPPLE_DB."""

    quantum_efficiency: float = 0.99
    electronic_noise_rel_db: float | None = -2.0
    clip_level: float | None = None
    gain_ripple_db: float = 0.0


@dataclass(frozen=True)
class BandConfig:
    label: str
    center_hz: float
    half_width_hz: float = 0.5e6
    exclusion_half_width_hz: float = 0.0


@dataclass(frozen=True)
class MeasurementConfig:
    """Readout chain and analysis bands.  The demod arms' readout noise
    (arm_noise_rel_db, plus arm_noise_excess_rel_db on lit acquisitions)
    stays at or below MAX_NOISE_REL_DB."""

    kind: str = "raw"
    lo_phase_rad: float = math.pi / 2.0
    arm_noise_rel_db: float | None = None
    arm_noise_excess_rel_db: float | None = None
    bands: tuple[BandConfig, ...] = ()
    normalization_band_hz: tuple[float, float] = (6.0e6, 6.5e6)


@dataclass(frozen=True)
class EprConfig:
    draws: int = 100
    residual_threshold: float = 1e-9


@dataclass(frozen=True)
class OpoSweepConfig:
    """Per-pump quadrature-spectrum measurement; frame count comes from grid.frames."""

    pump_powers_mw: tuple[float, ...] = (50.0, 100.0, 200.0, 300.0)
    threshold_mw: float = 600.0
    hwhm_hz: float = 30e6
    escape_efficiency: float = _ESCAPE
    band_hz: tuple[float, float] = (1e6, 20e6)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "custom"
    kind: str = "heterodyne"
    scheme: str = "proposed"
    grid: GridConfig = field(default_factory=GridConfig)
    beams: BeamsConfig = field(default_factory=BeamsConfig)
    pickoff1: PickoffConfig = field(default_factory=PickoffConfig)
    pickoff2: PickoffConfig = field(default_factory=PickoffConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    epr: EprConfig | None = None
    opo_sweep: OpoSweepConfig | None = None
    seed: int = 20230811
    out_dir: str = "out"

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid(self.grid.sample_rate_hz, self.grid.n_samples, self.beams.anchor_hz)

    def carrier_freqs(self) -> tuple[float, float]:
        return self.beams.anchor_hz, self.beams.anchor_hz + self.beams.beat_freq_hz

    def squeezer_centers(self) -> tuple[float, float]:
        """Squeezer anchor per source: swapped across the beams for the
        proposed scheme, each beam's own carrier for the straightforward
        one."""
        c1, c2 = self.carrier_freqs()
        if self.scheme == "straightforward":
            return c1, c2
        return c2, c1

    def base_squeeze_angle(self) -> float:
        # Straightforward squeezing must sit on the phase quadrature.
        return math.pi / 2.0 if self.scheme == "straightforward" else 0.0

    def optical_path(self, source: int, extra_angle_rad: float = 0.0) -> OpticalPath:
        """Path of source ``source``'s injected noise to the photocurrent.

        Its efficiency is pickoff reflectivity times detector quantum
        efficiency; a squeezer of pump ratio 0 counts as none.  Synthesis
        and the band budget both read this record.
        """
        pick = (self.pickoff1, self.pickoff2)[source]
        sq = pick.squeezer
        spec = None
        if sq is not None and sq.pump_ratio > 0.0:
            spec = SqueezerSpec(
                pump_ratio=sq.pump_ratio,
                hwhm_hz=sq.hwhm_hz,
                escape_efficiency=sq.escape_efficiency,
                squeeze_angle_rad=self.base_squeeze_angle() + sq.angle_offset_rad + extra_angle_rad,
                center_freq_hz=self.squeezer_centers()[source],
            )
        return OpticalPath(
            pick.reflectivity * self.detector.quantum_efficiency, spec, pick.injection_phase_rad
        )


def to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


@functools.lru_cache(maxsize=None)
def _field_types(dc_type) -> dict:
    return typing.get_type_hints(dc_type)


def _optional_inner(tp):
    """The non-None member of an ``X | None`` annotation, or None."""
    if isinstance(tp, types.UnionType):
        (inner,) = [a for a in tp.__args__ if a is not type(None)]
        return inner
    return None


def _tuple_items(tp, n: int, path: str) -> tuple:
    """Item annotations of a ``tuple[...]`` annotation holding ``n`` entries."""
    args = typing.get_args(tp)
    if len(args) == 2 and args[1] is Ellipsis:
        return (args[0],) * n
    _check(n == len(args), path, f"must have {len(args)} entries")
    return args


def _from_data(tp, data, path: str):
    """Build a value of annotation ``tp`` from JSON data: objects become
    config sections and lists tuples, entry by entry.  Numbers must be
    numbers and never bools, floats finite, integers integral, strings
    strings."""
    inner = _optional_inner(tp)
    if inner is not None:
        return None if data is None else _from_data(inner, data, path)
    if is_dataclass(tp):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        hints = _field_types(tp)
        kwargs = {}
        for key, value in data.items():
            sub = f"{path}.{key}" if path else key
            if key not in hints:
                raise ConfigError(sub, "unknown field")
            kwargs[key] = _from_data(hints[key], value, sub)
        try:
            return tp(**kwargs)
        except TypeError as exc:
            raise ConfigError(path, str(exc)) from None
    if typing.get_origin(tp) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {type(data).__name__}")
        items = _tuple_items(tp, len(data), path)
        return tuple(_from_data(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, data)))
    wanted = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"), str: (str, "a string")}
    if tp in wanted:
        kind, noun = wanted[tp]
        _check(isinstance(data, kind) and not isinstance(data, bool), path, f"must be {noun}, got {data!r}")
        _check(tp is not float or _finite(data), path, "must be finite")
    return data


def from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain JSON data, with field-path errors."""
    return _from_data(ExperimentConfig, data, "")


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of everything that determines the emitted numbers.

    The output directory is excluded: the same physics written somewhere
    else must stay byte-identical.
    """
    payload = to_dict(cfg)
    payload.pop("out_dir", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _check(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _on_grid(grid: FrequencyGrid, f_hz: float, path: str):
    try:
        grid.bin_index(f_hz)
    except BandError as exc:
        raise ConfigError(path, str(exc)) from None


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError at the first violated invariant.

    The config is first rebuilt from its plain data, so a mistyped or
    non-finite value is named by its path before any range check reads it.
    """
    from_dict(to_dict(cfg))
    _check(cfg.kind in KINDS, "kind", f"must be one of {KINDS}")
    _check(cfg.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    _check(cfg.seed >= 0, "seed", "must be a non-negative integer")
    g = cfg.grid
    _check(g.sample_rate_hz > 0, "grid.sample_rate_hz", "must be positive")
    _check(
        16 <= g.n_samples <= MAX_SAMPLES and g.n_samples % 2 == 0,
        "grid.n_samples",
        f"must be even and in [16, {MAX_SAMPLES}]",
    )
    _check(g.frames >= 1, "grid.frames", "must be >= 1")

    if cfg.kind == "epr":
        _check(cfg.epr is not None, "epr", "required for kind 'epr'")
        _check(cfg.epr.draws >= 1, "epr.draws", "must be >= 1")
        _check(cfg.epr.residual_threshold > 0, "epr.residual_threshold", "must be positive")
        # The draws put 4-12 MHz beats, rounded down to a bin, on frames of
        # 2000-5000 samples: a 4 MHz beat spans a bin up to 8 GHz, and a
        # 12 MHz beat leaves room for the carrier and its partners above 48 MHz.
        _check(
            48e6 < g.sample_rate_hz <= 8e9,
            "grid.sample_rate_hz",
            "must lie in (48 MHz, 8 GHz] for the identity draws (4-12 MHz beats on 2000-5000 samples)",
        )
        return

    b = cfg.beams
    nyq = g.sample_rate_hz / 2.0
    _check(-nyq < b.anchor_hz < nyq, "beams.anchor_hz", "must lie strictly inside (-Nyquist, Nyquist)")
    grid = cfg.frequency_grid()
    _on_grid(grid, b.anchor_hz, "beams.anchor_hz")
    # The frequency axis the runner's spectra are written on.
    freqs = np.fft.rfftfreq(g.n_samples, d=1.0 / g.sample_rate_hz)
    if cfg.kind == "opo-sweep":
        _check(cfg.opo_sweep is not None, "opo_sweep", "required for kind 'opo-sweep'")
        ow = cfg.opo_sweep
        _check(ow.threshold_mw > 0, "opo_sweep.threshold_mw", "must be positive")
        _check(len(ow.pump_powers_mw) >= 1, "opo_sweep.pump_powers_mw", "need at least one pump power")
        for i, p in enumerate(ow.pump_powers_mw):
            _check(0 <= p < ow.threshold_mw, f"opo_sweep.pump_powers_mw[{i}]", "must be below threshold")
        _check(ow.hwhm_hz > 0, "opo_sweep.hwhm_hz", "must be positive")
        _check(0 <= ow.escape_efficiency <= 1, "opo_sweep.escape_efficiency", "must be in [0, 1]")
        # Quadratures keep only the sidebands whose partners both lie in
        # the grid, so the band must stay within the anchor's margin.
        lo, hi = ow.band_hz
        margin = grid.edge_margin(b.anchor_hz)
        _check(0 < lo < hi <= margin, "opo_sweep.band_hz", f"must satisfy 0 < lo < hi <= {margin:.0f} Hz")
        _check(np.any((freqs >= lo) & (freqs <= hi)), "opo_sweep.band_hz", "holds no frequency bin")
        return

    for name, amplitude in (("beams.e1", b.e1), ("beams.e2", b.e2)):
        _check(
            amplitude >= MIN_CARRIER,
            name,
            f"must be >= {MIN_CARRIER:g} shot-noise units: both carriers must be on for a heterodyne run",
        )
    _check(
        b.mod_depth_rad == 0.0 or b.mod_freq_hz > 0,
        "beams.mod_freq_hz",
        "must be positive when mod_depth_rad is nonzero",
    )
    _check(0 <= b.classical_fraction < 1, "beams.classical_fraction", "must be in [0, 1)")
    _on_grid(grid, b.anchor_hz + b.beat_freq_hz, "beams.beat_freq_hz")

    for name, pick in (("pickoff1", cfg.pickoff1), ("pickoff2", cfg.pickoff2)):
        _check(0 < pick.reflectivity <= 1, f"{name}.reflectivity", "must be in (0, 1]")
        sq = pick.squeezer
        if sq is None:
            continue
        _check(0 <= sq.pump_ratio < 1, f"{name}.squeezer.pump_ratio", "must be in [0, 1)")
        _check(sq.hwhm_hz > 0, f"{name}.squeezer.hwhm_hz", "must be positive")
        _check(0 <= sq.escape_efficiency <= 1, f"{name}.squeezer.escape_efficiency", "must be in [0, 1]")
        _check(sq.angle_jitter_rms_rad >= 0, f"{name}.squeezer.angle_jitter_rms_rad", "must be >= 0")

    det = cfg.detector
    _check(0 < det.quantum_efficiency <= 1, "detector.quantum_efficiency", "must be in (0, 1]")
    if det.clip_level is not None:
        _check(det.clip_level > 0, "detector.clip_level", "must be positive")
    _check(
        abs(det.gain_ripple_db) <= MAX_GAIN_RIPPLE_DB,
        "detector.gain_ripple_db",
        f"must lie in [-{MAX_GAIN_RIPPLE_DB:g}, {MAX_GAIN_RIPPLE_DB:g}] dB",
    )
    ms = cfg.measurement
    for path, level in (
        ("detector.electronic_noise_rel_db", det.electronic_noise_rel_db),
        ("measurement.arm_noise_rel_db", ms.arm_noise_rel_db),
        ("measurement.arm_noise_excess_rel_db", ms.arm_noise_excess_rel_db),
    ):
        if level is not None:
            _check(level <= MAX_NOISE_REL_DB, path, f"must be <= {MAX_NOISE_REL_DB:g} dB")

    _check(ms.kind in MEASUREMENTS, "measurement.kind", f"must be one of {MEASUREMENTS}")
    _check(len(ms.bands) >= 1, "measurement.bands", "need at least one analysis band")
    for i, band in enumerate(ms.bands):
        path = f"measurement.bands[{i}]"
        _check(band.half_width_hz > 0, path, "half_width_hz must be positive")
        _check(
            0 <= band.exclusion_half_width_hz < band.half_width_hz,
            path,
            "need 0 <= exclusion_half_width < half_width",
        )
        _check(0 < band.center_hz < nyq, path, "center_hz must lie inside (0, Nyquist)")
        top = band.center_hz + band.half_width_hz
        if ms.kind != "raw":
            top = b.beat_freq_hz + top
        _check(top < nyq, path, "band (folded to the beat for demod) must stay below Nyquist")
        mask = BandSpec(band.center_hz, band.half_width_hz, band.exclusion_half_width_hz).mask(freqs)
        _check(np.count_nonzero(mask) >= 2, path, "must hold at least two frequency bins")
    lo, hi = ms.normalization_band_hz
    _check(0 < lo < hi < nyq, "measurement.normalization_band_hz", "must satisfy 0 < lo < hi < Nyquist")
    _check(
        np.any((freqs >= lo) & (freqs <= hi)),
        "measurement.normalization_band_hz",
        "holds no frequency bin",
    )

    # Distinct carrier bins; the demod low-pass corner sits at half the beat.
    _check(b.beat_freq_hz >= grid.bin_hz, "beams.beat_freq_hz", f"must be at least one bin ({grid.bin_hz:g} Hz)")

    # Squeezer sideband pairs must cover every analysis band.  Demodulated
    # bands fold from beat +- band; same-frequency squeezing additionally
    # folds anti-squeezed components down from twice the beat.
    eps_needed = 0.0
    for band in ms.bands:
        top = band.center_hz + band.half_width_hz
        eps_needed = max(eps_needed, top if ms.kind == "raw" else b.beat_freq_hz + top)
        if cfg.scheme == "straightforward":
            reach = top if ms.kind == "raw" else 2.0 * b.beat_freq_hz + top
            eps_needed = max(eps_needed, reach)
    for source, (name, pick) in enumerate((("pickoff1", cfg.pickoff1), ("pickoff2", cfg.pickoff2))):
        if pick.squeezer is None:
            continue
        center = cfg.squeezer_centers()[source]
        margin = grid.edge_margin(center)
        _check(
            margin >= eps_needed,
            f"{name}.squeezer",
            f"sideband pairs reach only {margin:.0f} Hz from {center:.0f} Hz "
            f"but the analysis needs {eps_needed:.0f} Hz; widen the grid or move the anchor",
        )


def _fig_bands_raw(beat_hz: float, mod_hz: float) -> tuple[BandConfig, ...]:
    return (
        BandConfig("lower", beat_hz - mod_hz, 0.5e6, 0.04e6),
        BandConfig("upper", beat_hz + mod_hz, 0.5e6, 0.04e6),
    )


def _fig_band_demod(mod_hz: float) -> tuple[BandConfig, ...]:
    return (BandConfig("demod", mod_hz, 0.5e6, 0.05e6),)


def _proposed_pickoffs() -> tuple[PickoffConfig, PickoffConfig]:
    return (
        PickoffConfig(0.97, SqueezerConfig(pump_ratio=_OPO1_PUMP_RATIO)),
        PickoffConfig(0.97, SqueezerConfig(pump_ratio=_OPO2_PUMP_RATIO)),
    )


def _preset_fig3_raw() -> ExperimentConfig:
    p1, p2 = _proposed_pickoffs()
    return ExperimentConfig(
        name="fig3-raw",
        scheme="proposed",
        beams=BeamsConfig(classical_fraction=0.1),
        pickoff1=p1,
        pickoff2=p2,
        measurement=MeasurementConfig(
            kind="raw",
            bands=_fig_bands_raw(10e6, 3.11e6),
            normalization_band_hz=(6.0e6, 6.5e6),
        ),
        out_dir="out/fig3-raw",
    )


def _preset_fig4_demod() -> ExperimentConfig:
    p1, p2 = _proposed_pickoffs()
    return ExperimentConfig(
        name="fig4-demod",
        scheme="proposed",
        beams=BeamsConfig(classical_fraction=0.1),
        pickoff1=p1,
        pickoff2=p2,
        measurement=MeasurementConfig(
            kind="demod",
            arm_noise_rel_db=-2.0,
            arm_noise_excess_rel_db=-8.0,
            bands=_fig_band_demod(3.11e6),
            normalization_band_hz=(1.0e6, 3.0e6),
        ),
        out_dir="out/fig4-demod",
    )


def _preset_no_cross() -> ExperimentConfig:
    cfg = _preset_fig4_demod()
    return replace(
        cfg,
        name="appendixD-no-cross",
        measurement=replace(cfg.measurement, kind="demod-no-cross"),
        out_dir="out/appendixD-no-cross",
    )


def _preset_straightforward() -> ExperimentConfig:
    # Broadband pure-path squeezers so the flat-squeezing leakage floor
    # (3s + a) / 4 applies; detector idealized to isolate the effect.
    sq = SqueezerConfig(pump_ratio=_OPO1_PUMP_RATIO, hwhm_hz=3e9, escape_efficiency=0.8)
    return ExperimentConfig(
        name="appendixG-straightforward",
        scheme="straightforward",
        # Anchored lower so the pairs folding down from twice the beat stay
        # inside the grid for both carriers.
        beams=BeamsConfig(classical_fraction=0.0, anchor_hz=25e6),
        pickoff1=PickoffConfig(1.0, sq),
        pickoff2=PickoffConfig(1.0, sq),
        detector=DetectorConfig(quantum_efficiency=1.0, electronic_noise_rel_db=None),
        measurement=MeasurementConfig(
            kind="demod",
            bands=_fig_band_demod(3.11e6),
            normalization_band_hz=(1.0e6, 3.0e6),
        ),
        out_dir="out/appendixG-straightforward",
    )


def _preset_vacuum() -> ExperimentConfig:
    return ExperimentConfig(
        name="vacuum-selftest",
        scheme="unsqueezed",
        grid=GridConfig(frames=2000),
        beams=BeamsConfig(classical_fraction=0.0),
        pickoff1=PickoffConfig(0.97, None),
        pickoff2=PickoffConfig(0.97, None),
        measurement=MeasurementConfig(
            kind="raw",
            bands=_fig_bands_raw(10e6, 3.11e6),
            normalization_band_hz=(6.0e6, 6.5e6),
        ),
        out_dir="out/vacuum-selftest",
    )


def _preset_epr() -> ExperimentConfig:
    return ExperimentConfig(
        name="epr-identity",
        kind="epr",
        epr=EprConfig(draws=100),
        out_dir="out/epr-identity",
    )


def _preset_pump_sweep() -> ExperimentConfig:
    return ExperimentConfig(
        name="appendixE-pump-sweep",
        kind="opo-sweep",
        grid=GridConfig(n_samples=2500, frames=500),
        opo_sweep=OpoSweepConfig(),
        out_dir="out/appendixE-pump-sweep",
    )


PRESETS = {
    "fig3-raw": (
        "proposed scheme, raw beat spectrum, reductions at both modulation sidebands",
        _preset_fig3_raw,
    ),
    "fig4-demod": (
        "proposed scheme, demodulated phase spectrum with cross-spectrum readout",
        _preset_fig4_demod,
    ),
    "appendixD-no-cross": (
        "demodulated measurement using a single-arm auto-spectrum (no cross-spectrum)",
        _preset_no_cross,
    ),
    "appendixG-straightforward": (
        "same-frequency squeezing variant; demodulated phase noise rises above vacuum",
        _preset_straightforward,
    ),
    "epr-identity": (
        "sideband-recombination identity residual over randomized states and frequencies",
        _preset_epr,
    ),
    "appendixE-pump-sweep": (
        "squeezing spectra versus pump power, Monte-Carlo against the cavity model",
        _preset_pump_sweep,
    ),
    "vacuum-selftest": (
        "squeezers off; measured reduction must be statistically zero",
        _preset_vacuum,
    ),
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, desc) for name, (desc, _) in PRESETS.items()]


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; see list-presets")
    return PRESETS[name][1]()


def merge_config(cfg: ExperimentConfig, patch: dict) -> ExperimentConfig:
    """Shallow-by-section merge of a JSON patch onto a config."""
    base = to_dict(cfg)
    for key, value in patch.items():
        if key not in base:
            raise ConfigError(key, "unknown field")
        if isinstance(base[key], dict) and isinstance(value, dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return from_dict(base)
