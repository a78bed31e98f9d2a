"""Experiment configuration, validation and the preset catalog.

Configs are plain frozen dataclasses with JSON round-tripping, one type
per run kind (``CONFIG_TYPES``) holding only the fields its run reads.
Validation raises ConfigError with a dotted field path so the CLI can point
at the offending entry.  The preset catalog expands to complete configs
that pass validation; every run records the hash of its expanded config.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import re
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, is_dataclass, replace

import numpy as np

from .fields import BandError, FrequencyGrid, SqueezerSpec
from .interferometer import SCHEMES, OpticalPath, base_squeeze_angle

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
# Frames are synthesized in blocks of complex rows, and every run writes
# one text row per rfft bin.  At 10^6 samples a 2-frame run peaks at
# 443 MB RSS in 6.8 s for fig3-raw and 322 MB in 7.9 s for the pump
# sweep, most of whose time goes to its 242 MB of spectrum text (2-vCPU
# Linux VM, Python 3.11, numpy 2.4).
MAX_SAMPLES = 1_000_000
# Carrier amplitudes in shot-noise units.  The budget weighs each source by
# the other carrier's power and classical phase noise scales as
# 1 / (E1 E2)^2, which leave the float range for much weaker carriers.
# At the upper bound the largest level a run forms, a periodogram bin of
# the beat 2 E1 E2 over MAX_SAMPLES samples, stays below
# (2 E1 E2 MAX_SAMPLES)^2 = 4e36, so every derived level is finite, and
# the float rounding of the carrier's phase ramp adds noise about 78 dB
# below the shot floor (20 dB less per decade of carrier).
MIN_CARRIER = 1e-6
MAX_CARRIER = 1e6
# Classical phase noise scales as 1 / (qe E1^2 E2^2): at qe = E1 = E2 =
# 1e-6 and a classical fraction of 1 - 2^-53, the largest variance the
# bounds admit is (2/3) 2^53 (2e-12) / 1e-30 = 1.2e34, which stays finite.
MIN_QUANTUM_EFFICIENCY = 1e-6
# The runner queues one job per 128-frame chunk, for every acquisition, before
# the first frame runs: 10^7 frames are 78k jobs, hours at today's rates.
MAX_FRAMES = 10**7


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Interval:
    """Numbers a bounded field admits; an infinite end is open."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def admits(self, x) -> bool:
        above = self.lo < x or (x == self.lo and not self.lo_open)
        return above and (x < self.hi or (x == self.hi and not self.hi_open))

    def __str__(self) -> str:
        return f"lie in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}{')' if self.hi_open else ']'}"


@dataclass(frozen=True)
class Pattern:
    """Strings a bounded field admits: whole matches of ``regex``."""

    regex: str

    def admits(self, s) -> bool:
        return re.fullmatch(self.regex, s) is not None

    def __str__(self) -> str:
        return f"match {self.regex}"


# Run names and band labels become summary keys such as band.LABEL.*.
IDENTIFIER = Pattern(r"[A-Za-z0-9_-]+")


def _bounded(default=MISSING, *, ge=None, gt=None, le=None, lt=None):
    """A field whose value must lie between the ends given, closed at ge
    and le, open at gt and lt.  ``_from_data`` checks every entry of a
    tuple, and an optional field only when it is set."""
    lo, hi = (ge if gt is None else gt), (le if lt is None else lt)
    lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
    return field(default=default, metadata={"bound": Interval(lo, hi, ge is None, le is None)})


@dataclass(frozen=True)
class GridConfig:
    sample_rate_hz: float = _bounded(125e6, gt=0)
    n_samples: int = _bounded(5000, ge=16, le=MAX_SAMPLES)
    frames: int = _bounded(12500, ge=1, le=MAX_FRAMES)


@dataclass(frozen=True)
class SqueezerConfig:
    """Squeezer knobs; center frequency and base angle follow the scheme."""

    pump_ratio: float = _bounded(ge=0, lt=1)
    hwhm_hz: float = _bounded(30e6, gt=0)
    escape_efficiency: float = _bounded(_ESCAPE, ge=0, le=1)
    angle_offset_rad: float = 0.0
    angle_jitter_rms_rad: float = _bounded(0.0, ge=0)


@dataclass(frozen=True)
class BeamsConfig:
    # Modulation depth keeps the signal peak ~20 dB above the shot floor
    # at these carrier amplitudes; the tone is off-grid, so a stronger
    # peak would leak past the exclusion zone into the analysis bands.
    e1: float = _bounded(1000.0, ge=MIN_CARRIER, le=MAX_CARRIER)
    e2: float = _bounded(1000.0, ge=MIN_CARRIER, le=MAX_CARRIER)
    beat_freq_hz: float = 10e6
    anchor_hz: float = 30e6
    mod_freq_hz: float = 3.11e6
    mod_depth_rad: float = 1e-3
    classical_fraction: float = _bounded(0.0, ge=0, lt=1)


@dataclass(frozen=True)
class PickoffConfig:
    reflectivity: float = _bounded(0.97, gt=0, le=1)
    squeezer: SqueezerConfig | None = None


@dataclass(frozen=True)
class DetectorConfig:
    quantum_efficiency: float = _bounded(0.99, ge=MIN_QUANTUM_EFFICIENCY, le=1)
    electronic_noise_rel_db: float | None = _bounded(-2.0, le=MAX_NOISE_REL_DB)
    clip_level: float | None = _bounded(None, gt=0)
    gain_ripple_db: float = _bounded(0.0, ge=-MAX_GAIN_RIPPLE_DB, le=MAX_GAIN_RIPPLE_DB)


@dataclass(frozen=True)
class BandConfig:
    label: str = field(metadata={"bound": IDENTIFIER})
    center_hz: float
    half_width_hz: float = _bounded(0.5e6, gt=0)
    exclusion_half_width_hz: float = _bounded(0.0, ge=0)

    def mask(self, freqs: np.ndarray) -> np.ndarray:
        """The bins of ``freqs`` within half_width_hz of the center, less
        those within exclusion_half_width_hz of it."""
        # Edge bins land on the boundaries up to float fuzz in the
        # frequency axis; the tolerance keeps them on one fixed side.
        tol = 1e-6 * max(self.half_width_hz, 1.0)
        d = np.abs(freqs - self.center_hz)
        return (d <= self.half_width_hz + tol) & (d > self.exclusion_half_width_hz + tol)


@dataclass(frozen=True)
class MeasurementConfig:
    """Readout chain and analysis bands.  The demod arms' readout noise is
    arm_noise_rel_db, plus arm_noise_excess_rel_db on lit acquisitions."""

    kind: str = "raw"
    lo_phase_rad: float = math.pi / 2.0
    arm_noise_rel_db: float | None = _bounded(None, le=MAX_NOISE_REL_DB)
    arm_noise_excess_rel_db: float | None = _bounded(None, le=MAX_NOISE_REL_DB)
    bands: tuple[BandConfig, ...] = ()
    normalization_band_hz: tuple[float, float] = (6.0e6, 6.5e6)


@dataclass(frozen=True)
class EprConfig:
    # The draws put 4-12 MHz beats, rounded down to a bin, on frames of
    # 2000-5000 samples: a 4 MHz beat spans a bin up to 8 GHz, and a
    # 12 MHz beat leaves room for the carrier and its partners above 48 MHz.
    sample_rate_hz: float = _bounded(125e6, gt=48e6, le=8e9)
    draws: int = _bounded(100, ge=1, le=MAX_FRAMES)
    residual_threshold: float = _bounded(1e-9, gt=0)


@dataclass(frozen=True)
class OpoSweepConfig:
    """Per-pump quadrature spectra squeezed about anchor_hz; frames from grid.frames."""

    anchor_hz: float = 30e6
    pump_powers_mw: tuple[float, ...] = _bounded((50.0, 100.0, 200.0, 300.0), ge=0)
    threshold_mw: float = _bounded(600.0, gt=0)
    hwhm_hz: float = _bounded(30e6, gt=0)
    escape_efficiency: float = _bounded(_ESCAPE, ge=0, le=1)
    band_hz: tuple[float, float] = (1e6, 20e6)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = field(default="custom", metadata={"bound": IDENTIFIER})
    kind: str = "heterodyne"
    scheme: str = "proposed"
    grid: GridConfig = field(default_factory=GridConfig)
    beams: BeamsConfig = field(default_factory=BeamsConfig)
    pickoff1: PickoffConfig = field(default_factory=PickoffConfig)
    pickoff2: PickoffConfig = field(default_factory=PickoffConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    seed: int = _bounded(20230811, ge=0)
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

    def optical_path(self, source: int) -> OpticalPath:
        """Path of source ``source``'s injected noise to the photocurrent,
        the one place the scheme and the pickoff config become what a beam
        injects.  Synthesis and the band budget both read this record.

        Its efficiency is pickoff reflectivity times detector quantum
        efficiency.  The squeezer sits at the scheme's base angle plus its
        offset and carries its jitter; the unsqueezed scheme and a pump
        ratio of 0 inject none.
        """
        pick = (self.pickoff1, self.pickoff2)[source]
        efficiency = pick.reflectivity * self.detector.quantum_efficiency
        sq = pick.squeezer
        if self.scheme == "unsqueezed" or sq is None or sq.pump_ratio <= 0.0:
            return OpticalPath(efficiency)
        spec = SqueezerSpec(
            pump_ratio=sq.pump_ratio,
            hwhm_hz=sq.hwhm_hz,
            escape_efficiency=sq.escape_efficiency,
            squeeze_angle_rad=base_squeeze_angle(self.scheme) + sq.angle_offset_rad,
            center_freq_hz=self.squeezer_centers()[source],
        )
        return OpticalPath(efficiency, spec, sq.angle_jitter_rms_rad)


@dataclass(frozen=True)
class IdentityConfig:
    name: str = field(default="custom", metadata={"bound": IDENTIFIER})
    kind: str = "epr"
    epr: EprConfig = field(default_factory=EprConfig)
    seed: int = _bounded(20230811, ge=0)
    out_dir: str = "out"


@dataclass(frozen=True)
class SweepConfig:
    name: str = field(default="custom", metadata={"bound": IDENTIFIER})
    kind: str = "opo-sweep"
    grid: GridConfig = field(default_factory=GridConfig)
    opo_sweep: OpoSweepConfig = field(default_factory=OpoSweepConfig)
    seed: int = _bounded(20230811, ge=0)
    out_dir: str = "out"

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid(self.grid.sample_rate_hz, self.grid.n_samples, self.opo_sweep.anchor_hz)


Config = ExperimentConfig | IdentityConfig | SweepConfig
CONFIG_TYPES = {"heterodyne": ExperimentConfig, "epr": IdentityConfig, "opo-sweep": SweepConfig}
KINDS = tuple(CONFIG_TYPES)


def to_dict(cfg: Config) -> dict:
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


def _from_data(tp, data, path: str, bound=None):
    """Build a value of annotation ``tp`` from JSON data: objects become
    config sections and lists tuples, entry by entry.  Numbers must be
    numbers and never bools, floats finite, integers integral, strings
    strings, and each must meet its field's bound."""
    inner = _optional_inner(tp)
    if inner is not None:
        return None if data is None else _from_data(inner, data, path, bound)
    if is_dataclass(tp):
        where = path or "config"  # the top level has no field name
        if not isinstance(data, dict):
            raise ConfigError(where, f"expected an object, got {type(data).__name__}")
        hints = _field_types(tp)
        kwargs = {}
        for key, value in data.items():
            sub = f"{path}.{key}" if path else key
            if key not in hints:
                raise ConfigError(sub, "unknown field")
            kwargs[key] = _from_data(hints[key], value, sub, tp.__dataclass_fields__[key].metadata.get("bound"))
        try:
            return tp(**kwargs)
        except TypeError as exc:
            raise ConfigError(where, str(exc)) from None
    if typing.get_origin(tp) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {type(data).__name__}")
        items = _tuple_items(tp, len(data), path)
        return tuple(_from_data(t, v, f"{path}[{i}]", bound) for i, (t, v) in enumerate(zip(items, data)))
    wanted = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"), str: (str, "a string")}
    if tp in wanted:
        kind, noun = wanted[tp]
        _check(isinstance(data, kind) and not isinstance(data, bool), path, f"must be {noun}, got {data!r}")
        _check(tp is not float or _finite(data), path, "must be finite")
        _check(bound is None or bound.admits(data), path, f"must {bound}, got {data!r}")
    return data


def from_dict(data: dict) -> Config:
    """Build the config of data's kind from plain JSON data, with field-path errors."""
    kind = data.get("kind", "heterodyne") if isinstance(data, dict) else "heterodyne"
    _check(isinstance(kind, str) and kind in KINDS, "kind", f"must be one of {KINDS}")
    return _from_data(CONFIG_TYPES[kind], data, "")


def config_hash(cfg: Config) -> str:
    """Hash of everything that determines the emitted numbers.

    It covers only fields the run reads: the output directory is excluded,
    so the same physics written somewhere else stays byte-identical.
    A numpy number is written as the Python number of its value.
    """
    payload = to_dict(cfg)
    payload.pop("out_dir", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain_number).encode()
    ).hexdigest()[:16]


def _plain_number(x):
    return int(x) if isinstance(x, numbers.Integral) else float(x)


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


def validate_config(cfg: Config) -> None:
    """Raise ConfigError at the first violated invariant.

    The config is first rebuilt from its plain data, so a mistyped,
    non-finite or out-of-bounds value is named by its path before any rule
    below, each of which reads several fields or the grid.
    """
    _from_data(type(cfg), to_dict(cfg), "")
    _check(CONFIG_TYPES.get(cfg.kind) is type(cfg), "kind", f"must be one of {KINDS}, matching the config")
    if cfg.kind == "epr":
        return

    g = cfg.grid
    _check(g.n_samples % 2 == 0, "grid.n_samples", "must be even")
    section = "opo_sweep" if cfg.kind == "opo-sweep" else "beams"
    anchor = getattr(cfg, section).anchor_hz
    nyq = g.sample_rate_hz / 2.0
    _check(-nyq < anchor < nyq, f"{section}.anchor_hz", "must lie strictly inside (-Nyquist, Nyquist)")
    grid = cfg.frequency_grid()
    _on_grid(grid, anchor, f"{section}.anchor_hz")
    # The frequency axis the runner's spectra are written on.
    freqs = np.fft.rfftfreq(g.n_samples, d=1.0 / g.sample_rate_hz)
    if cfg.kind == "opo-sweep":
        ow = cfg.opo_sweep
        _check(len(ow.pump_powers_mw) >= 1, "opo_sweep.pump_powers_mw", "need at least one pump power")
        for i, p in enumerate(ow.pump_powers_mw):
            _check(p < ow.threshold_mw, f"opo_sweep.pump_powers_mw[{i}]", "must be below threshold")
            # Outputs are tagged by the rounded power, and the monotone
            # check reads the list in order.
            _check(
                i == 0 or round(p) > round(ow.pump_powers_mw[i - 1]),
                f"opo_sweep.pump_powers_mw[{i}]",
                "must exceed the power before it when both are rounded to whole mW",
            )
        # Quadratures keep only the sidebands whose partners both lie in
        # the grid, so the band must stay within the anchor's margin.
        lo, hi = ow.band_hz
        margin = grid.edge_margin(anchor)
        _check(0 < lo < hi <= margin, "opo_sweep.band_hz", f"must satisfy 0 < lo < hi <= {margin:.0f} Hz")
        _check(np.any((freqs >= lo) & (freqs <= hi)), "opo_sweep.band_hz", "holds no frequency bin")
        return

    _check(cfg.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
    b = cfg.beams
    _check(
        b.mod_depth_rad == 0.0 or b.mod_freq_hz > 0,
        "beams.mod_freq_hz",
        "must be positive when mod_depth_rad is nonzero",
    )
    _on_grid(grid, b.anchor_hz + b.beat_freq_hz, "beams.beat_freq_hz")

    ms = cfg.measurement
    _check(ms.kind in MEASUREMENTS, "measurement.kind", f"must be one of {MEASUREMENTS}")
    _check(len(ms.bands) >= 1, "measurement.bands", "need at least one analysis band")
    labels = [band.label for band in ms.bands]
    for i, band in enumerate(ms.bands):
        path = f"measurement.bands[{i}]"
        _check(labels.index(band.label) == i, f"{path}.label", "repeats the label of an earlier band")
        _check(
            band.exclusion_half_width_hz < band.half_width_hz,
            path,
            "exclusion_half_width_hz must be below half_width_hz",
        )
        _check(0 < band.center_hz < nyq, path, "center_hz must lie inside (0, Nyquist)")
        top = band.center_hz + band.half_width_hz
        if ms.kind != "raw":
            top = b.beat_freq_hz + top
        _check(top < nyq, path, "band (folded to the beat for demod) must stay below Nyquist")
        _check(np.count_nonzero(band.mask(freqs)) >= 2, path, "must hold at least two frequency bins")
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


def _preset_epr() -> IdentityConfig:
    return IdentityConfig(name="epr-identity", out_dir="out/epr-identity")


def _preset_pump_sweep() -> SweepConfig:
    return SweepConfig(
        name="appendixE-pump-sweep",
        grid=GridConfig(n_samples=2500, frames=500),
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


def preset_config(name: str) -> Config:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; see list-presets")
    return PRESETS[name][1]()


def _merged(base, patch):
    """``patch`` over ``base``, object into object at every depth; any
    other patch value, and any object over a null section, replaces."""
    if isinstance(base, dict) and isinstance(patch, dict):
        return {**base, **{k: _merged(base.get(k), v) for k, v in patch.items()}}
    return patch


def merge_config(cfg: Config, patch: dict) -> Config:
    """Merge a JSON patch onto a config, nested objects field by field: a
    patch names only the fields it changes.  Lists replace whole, and a
    patch object over a null section must hold all its required fields."""
    base = to_dict(cfg)
    _check(isinstance(patch, dict), "config", f"a patch must be a JSON object, got {type(patch).__name__}")
    _check(patch.get("kind", base["kind"]) == base["kind"], "kind", "a patch cannot change a preset's kind")
    return from_dict(_merged(base, patch))
