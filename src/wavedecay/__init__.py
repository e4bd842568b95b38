"""Numerical laboratory for weakly dissipative 2D semilinear wave equations."""

__version__ = "0.1.0"

from .trig import (
    Direction,
    NonlinearityCoefficients,
    TrigPolynomial,
    cubic_to_trig_poly,
    eval_cubic_symbol,
    eval_quadratic_symbol,
    quadratic_to_trig_poly,
)
from .structure import (
    AgemiResult,
    AgemiStatus,
    ConditionReport,
    DecayPrediction,
    ZeroCase,
    ZeroClassification,
    ZeroInfo,
    analyze,
    check_agemi,
    check_quadratic_null,
    classify,
    predict_decay,
    verify_integrability,
)
from .profile_ode import (
    EnvelopeForcing,
    MatsumuraParams,
    ProfileSeries,
    RayConfig,
    TabulatedForcing,
    ZeroForcing,
    check_matsumura_bound,
    check_sqrtlog_decay,
    integrate_profile,
    matsumura_constant,
)
from .wave import (
    EnergySeries,
    InitialData,
    RayTap,
    SolverConfig,
    WaveField,
    check_propagation,
    energy,
    make_initial_data,
    residual_forcing,
    run,
)
