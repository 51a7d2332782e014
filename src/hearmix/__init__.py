"""Music remixing and enhancement for hearing-aid listeners.

The pipeline ensembles VDBO stems from several separators, repairs the
"other" track with the mixture residual, remixes to listener gains,
normalizes loudness to the input, applies NAL-R amplification from the
listener's audiogram, and compresses only when enough samples clip.
Supporting tools cover WAV I/O, HRTF crosstalk simulation, salient-segment
selection, and SDR evaluation.
"""

from .audio import (
    FLOAT_32,
    PCM_16,
    PCM_24,
    AlignmentError,
    AudioBuffer,
    TruncatedFileError,
    UnsupportedCodecError,
    WavFormat,
    WavReadError,
    ZeroLengthAudioError,
    db_to_linear,
    ensure_aligned,
    linear_to_db,
    read_wav,
    write_wav,
)
from .hearing import (
    AUDIOMETRIC_FREQUENCIES,
    DEFAULT_NALR_TAPS,
    Audiogram,
    FirFilter,
    Listener,
    apply_fir,
    design_nalr_fir,
    load_listener,
    nalr_insertion_gains,
    nalr_process,
)
from .levels import (
    CLIP_TRIGGER_COUNT,
    ClipReport,
    CompressorParams,
    LoudnessLufs,
    UndefinedLoudnessError,
    compress,
    count_clipped,
    integrated_loudness,
    normalize_to_loudness,
    should_compress,
)
from .metrics import (
    SDR_CAP_DB,
    EnhanceReport,
    SdrBreakdown,
    SdrScore,
    evaluate_song,
    sdr,
)
from .pipeline import (
    MUTE,
    STAGE_ORDER,
    BatchJob,
    BatchManifest,
    EnhanceOptions,
    GainSpec,
    build_reference,
    enhance,
    load_gains,
    load_manifest,
    remix,
    run_batch,
)
from .spatial import CrosstalkKernel, apply_crosstalk, identity_kernel, load_kernel
from .stems import (
    TRACK_NAMES,
    DirectoryStemProvider,
    NoisyOracleStemProvider,
    Segment,
    StemSet,
    blend_other,
    compute_residual,
    ensemble_average,
    provider_from_spec,
    salient_segments,
)

__version__ = "0.1.0"
