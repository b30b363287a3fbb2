"""heartfade: fading-rate estimation and repainting-strategy simulation
for painted memorial hearts."""

__version__ = "0.2.0"

from .acceptability import (
    AcceptabilityCurve,
    SurveyPoint,
    fit_acceptability,
    predict_agreement,
    threshold_for_agreement,
)
from .color import (
    LabColor,
    LabOffset,
    SrgbColor,
    apply_calibration,
    delta_e,
    derive_calibration,
    lab_to_srgb,
    srgb_to_lab,
)
from .ingest import (
    PixelGrid,
    Region,
    build_series,
    load_observations,
    mean_lab_of_region,
    parse_ppm,
)
from .rates import (
    AggregateRate,
    LineFit,
    Window,
    aggregate_rates,
    estimate_heart_rate,
    fit_line,
)
from .simulate import (
    SimConfig,
    SimResult,
    Strategy,
    SweepRow,
    paint1_config,
    paint2_config,
    run_simulation,
    sweep_fractions,
)
