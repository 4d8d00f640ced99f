"""Blind two-channel speech separation toolkit.

Recovers two sources from two instantaneous mixtures by decomposing the
mixtures with a critical-band undecimated wavelet packet filterbank,
selecting the most non-Gaussian subband by kurtosis, estimating the
unmixing matrix there with FastICA, and applying it to the time-domain
mixtures. Ships a SOBI baseline and a projection-based evaluation suite
(SIR, SDR, segmental and overall SNR).
"""

from .audio_io import (
    MixingMatrix,
    Signal,
    decimate_to_8k,
    mix,
    read_wav,
    synth_source,
    write_wav,
)
from .errors import (
    BssError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
    UnsupportedRateError,
    WavFormatError,
)
from .filterbank import (
    CbTree,
    FilterPair,
    build_cb_tree,
    db4_filters,
    decompose_nodes,
    walk,
)
from .metrics import (
    MetricsReport,
    align,
    bss_decompose,
    evaluate_pair,
    overall_snr,
    sdr,
    segmental_snr,
    sir,
)
from .pipeline import (
    METHOD_FASTICA,
    METHOD_PROPOSED,
    METHOD_SOBI,
    METHODS,
    SeparationResult,
    separate,
    separate_baseline,
    separate_proposed,
)
from .separators import (
    IcaOptions,
    UnmixingModel,
    apply_unmixing,
    fastica,
    joint_diagonalize,
    sobi,
)
from .stats import (
    NodeScore,
    fit_whitening,
    score_nodes,
    select_best_node,
)

__version__ = "0.1.0"
