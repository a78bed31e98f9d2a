"""Experiment configuration, validation and the preset catalog.

Configs are plain frozen dataclasses with JSON round-tripping.  Validation
raises ConfigError with a dotted field path so the CLI can point at the
offending entry.  The preset catalog expands to complete configs that pass
validation; every run records the hash of its expanded config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

from .fields import BandError, FrequencyGrid, SqueezerSpec
from .interferometer import SCHEMES

KINDS = ("heterodyne", "epr", "opo-sweep")
MEASUREMENTS = ("raw", "demod", "demod-no-cross")

# Matches an escape efficiency times pickoff and detector losses of about
# 20% total on the squeezed path.
_ESCAPE = 0.833
_OPO1_PUMP_RATIO = math.sqrt(90.0 / 600.0)
_OPO2_PUMP_RATIO = math.sqrt(80.0 / 600.0)


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

    def squeezer_spec(self, source: int, extra_angle_rad: float = 0.0) -> SqueezerSpec | None:
        pick = (self.pickoff1, self.pickoff2)[source]
        sq = pick.squeezer
        if sq is None:
            return None
        return SqueezerSpec(
            pump_ratio=sq.pump_ratio,
            hwhm_hz=sq.hwhm_hz,
            escape_efficiency=sq.escape_efficiency,
            squeeze_angle_rad=self.base_squeeze_angle() + sq.angle_offset_rad + extra_angle_rad,
            center_freq_hz=self.squeezer_centers()[source],
        )


def to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def _build(dc_type, data, path):
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    kwargs = {}
    fields = {f.name: f for f in dc_type.__dataclass_fields__.values()}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
        kwargs[key] = value
    return kwargs


def from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain JSON data, with field-path errors."""
    kwargs = _build(ExperimentConfig, data, "")
    if "grid" in kwargs:
        kwargs["grid"] = GridConfig(**_build(GridConfig, kwargs["grid"], "grid"))
    if "beams" in kwargs:
        kwargs["beams"] = BeamsConfig(**_build(BeamsConfig, kwargs["beams"], "beams"))
    for name in ("pickoff1", "pickoff2"):
        if name in kwargs:
            pk = _build(PickoffConfig, kwargs[name], name)
            if pk.get("squeezer") is not None:
                pk["squeezer"] = SqueezerConfig(
                    **_build(SqueezerConfig, pk["squeezer"], f"{name}.squeezer")
                )
            kwargs[name] = PickoffConfig(**pk)
    if "detector" in kwargs:
        kwargs["detector"] = DetectorConfig(**_build(DetectorConfig, kwargs["detector"], "detector"))
    if "measurement" in kwargs:
        ms = _build(MeasurementConfig, kwargs["measurement"], "measurement")
        if "bands" in ms:
            ms["bands"] = tuple(
                BandConfig(**_build(BandConfig, b, f"measurement.bands[{i}]"))
                for i, b in enumerate(ms["bands"])
            )
        if "normalization_band_hz" in ms:
            ms["normalization_band_hz"] = tuple(ms["normalization_band_hz"])
        kwargs["measurement"] = MeasurementConfig(**ms)
    if kwargs.get("epr") is not None:
        kwargs["epr"] = EprConfig(**_build(EprConfig, kwargs["epr"], "epr"))
    if kwargs.get("opo_sweep") is not None:
        ow = _build(OpoSweepConfig, kwargs["opo_sweep"], "opo_sweep")
        for key in ("pump_powers_mw", "band_hz"):
            if key in ow:
                ow[key] = tuple(ow[key])
        kwargs["opo_sweep"] = OpoSweepConfig(**ow)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError("", str(exc)) from None


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


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError at the first violated invariant."""
    _check(cfg.kind in KINDS, "kind", f"must be one of {KINDS}")
    _check(cfg.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    _check(cfg.seed >= 0, "seed", "must be a non-negative integer")
    g = cfg.grid
    _check(g.sample_rate_hz > 0, "grid.sample_rate_hz", "must be positive")
    _check(g.n_samples >= 16 and g.n_samples % 2 == 0, "grid.n_samples", "must be even and >= 16")
    _check(g.frames >= 1, "grid.frames", "must be >= 1")

    if cfg.kind == "epr":
        _check(cfg.epr is not None, "epr", "required for kind 'epr'")
        _check(cfg.epr.draws >= 1, "epr.draws", "must be >= 1")
        return
    if cfg.kind == "opo-sweep":
        _check(cfg.opo_sweep is not None, "opo_sweep", "required for kind 'opo-sweep'")
        ow = cfg.opo_sweep
        _check(ow.threshold_mw > 0, "opo_sweep.threshold_mw", "must be positive")
        for i, p in enumerate(ow.pump_powers_mw):
            _check(0 <= p < ow.threshold_mw, f"opo_sweep.pump_powers_mw[{i}]", "must be below threshold")
        _check(ow.hwhm_hz > 0, "opo_sweep.hwhm_hz", "must be positive")
        _check(0 <= ow.escape_efficiency <= 1, "opo_sweep.escape_efficiency", "must be in [0, 1]")
        return

    b = cfg.beams
    _check(b.e1 > 0 and b.e2 > 0, "beams.e1", "both carriers must be on for a heterodyne run")
    _check(b.beat_freq_hz > 0, "beams.beat_freq_hz", "must be positive")
    _check(
        b.mod_depth_rad == 0.0 or b.mod_freq_hz > 0,
        "beams.mod_freq_hz",
        "must be positive when mod_depth_rad is nonzero",
    )
    _check(0 <= b.classical_fraction < 1, "beams.classical_fraction", "must be in [0, 1)")
    if b.classical_fraction > 0:
        _check(b.e1 > 0 and b.e2 > 0, "beams.classical_fraction", "needs both carriers on")
    try:
        grid = cfg.frequency_grid()
        for f_hz, path in (
            (b.anchor_hz, "beams.anchor_hz"),
            (b.anchor_hz + b.beat_freq_hz, "beams.beat_freq_hz"),
        ):
            try:
                grid.bin_index(f_hz)
            except BandError as exc:
                raise ConfigError(path, str(exc)) from None
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("grid", str(exc)) from None

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

    ms = cfg.measurement
    _check(ms.kind in MEASUREMENTS, "measurement.kind", f"must be one of {MEASUREMENTS}")
    _check(math.isfinite(ms.lo_phase_rad), "measurement.lo_phase_rad", "must be finite")
    _check(len(ms.bands) >= 1, "measurement.bands", "need at least one analysis band")
    nyq = g.sample_rate_hz / 2.0
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
    lo, hi = ms.normalization_band_hz
    _check(0 < lo < hi < nyq, "measurement.normalization_band_hz", "must satisfy 0 < lo < hi < Nyquist")

    # Squeezer sideband pairs must cover every analysis band.  Demodulated
    # bands fold from beat +- band; same-frequency squeezing additionally
    # folds anti-squeezed components down from twice the beat.
    grid = cfg.frequency_grid()
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
