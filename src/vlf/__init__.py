"""Variable-length feedback coding: bounds, schedules, and simulation.

The package models a transmitter that keeps sending until the receiver's
running decision statistic clears a threshold, confirms the tentative
message with a short binary hypothesis test, and falls back to a second
communication phase after a rejection.  It covers memoryless channels with
known statistics and universal decoders that learn the channel from a
training prefix, over both finite alphabets and the power-constrained
Gaussian channel.

Layers:

* :mod:`vlf.channel`    - channel models, capacity, information density,
                          the input checks;
* :mod:`vlf.bounds`     - achievability / converse bounds, schedules and
                          their tail exponents;
* :mod:`vlf.engine`     - Monte Carlo simulation of the coding scheme;
* :mod:`vlf.ensemble`   - competitor-codeword race strategies and the count
                          tables of the empirical-information metrics;
* :mod:`vlf.oracle`     - slow exact re-computations used for validation,
                          with the reference joint type, empirical mutual
                          information, correlation metric and type-class
                          bound (it loads scipy, so it is not imported here);
* :mod:`vlf.cli`        - the ``vlf`` command-line tool;
* :mod:`vlf.errors`     - the ``VlfError`` hierarchy.
"""

from .bounds import (
    BoundReport,
    VlfParams,
    achievability_bound,
    asymptotic_schedule,
    asymptotic_schedule_for_message_count,
    channel_stats,
    converse_bound,
    optimize_params,
    single_phase_bound,
    tail_exponents,
    universal_schedule,
)
from .channel import (
    Dmc,
    GaussianChannel,
    binary_entropy,
    bsc,
    capacity,
    control_pair,
    entropy,
    gaussian_information_density,
    information_density_table,
    kl_divergence,
    load_dmc,
    mutual_information,
    output_distribution,
    parse_channel_spec,
)
from .engine import (
    McEstimate,
    SchemeConfig,
    TrialOutcome,
    aggregate_records,
    empirical_mi_passage_times,
    info_density_passage_times,
    run_monte_carlo,
    simulate_trial,
    trial_records,
)
from .errors import (
    DimensionMismatch,
    EpsTooSmall,
    HorizonTooSmall,
    Infeasible,
    InsufficientTraining,
    NotADistribution,
    StateExplosion,
    VlfError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
