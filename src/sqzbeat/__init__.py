"""Squeezed-light beat-note detection: Monte-Carlo simulator and analytic budgets."""

from .budgets import (
    NoiseBudget,
    SqueezingLevels,
    band_budget,
    classical_noise_limit,
    heterodyne_budget,
    phase_jitter_penalty,
    predicted_reduction,
    straightforward_phase_floor,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    from_dict,
    list_presets,
    preset_config,
    to_dict,
    validate_config,
)
from .dsp import (
    DegenerateSubtractionError,
    DspError,
    FilterSpec,
    chain_response,
    compensate_spectrum,
    postprocess,
)
from .fields import (
    BandError,
    FrequencyGrid,
    SqueezerSpec,
    apply_loss,
    apply_squeezer,
    epr_identity_residual,
    make_vacuum_field,
    quadrature_series,
)
from .interferometer import (
    OpticalPath,
    balanced_detect,
    classical_phase_variance,
    compose_beam,
    unsqueezed_shot_psd,
)
from .runner import RunSummary, run, run_preset

__version__ = "0.1.0"
