"""Mussel-raft platform census from ten-band reflectance stacks.

Two-stage pipeline: a water mask (NDWI+Otsu or an MLP classifier,
followed by morphology cleanup), then a small MLP that flags platform
pixels inside the water, vetted by blob geometry (size, Euler number,
solidity). Ships a synthetic scene generator and TFA/TFR scoring so
everything is verifiable without satellite data.
"""

from .bandstack import (
    BandId,
    BandStack,
    FEATURE_ORDER,
    GeoRef,
    load_band_stack,
    read_pgm16,
    resample_plane,
    save_band_stack,
    write_pgm16,
)
from .blobs import Blob, BlobFilter, compute_features, filter_blobs, label_components
from .datasets import (
    LabeledPixels,
    SceneTruth,
    SynthParams,
    default_platform_training_set,
    default_water_training_set,
    extract_platform_samples,
    generate_synthetic_scene,
    load_spectra,
    synthetic_pixel_dataset,
    write_synthetic_scene,
)
from .errors import RaftCensusError
from .evaluation import (
    MatchPair,
    MetricsReport,
    compute_rates,
    evaluate_census,
    match_centroids,
)
from .mlp import (
    ConfusionMatrix,
    MlpModel,
    TrainConfig,
    evaluate_confusion,
    forward_batch,
    init_model,
    load_model,
    loss_and_gradient,
    save_model,
    train,
)
from .morphology import (
    BitMask,
    StructElem,
    bottom_hat,
    closing,
    dilate,
    erode,
    opening,
    square,
)
from .pipeline import (
    Census,
    CensusConfig,
    CensusRecord,
    PipelineArtifacts,
    RejectedBlob,
    census_to_csv,
    census_to_geojson,
    platform_mask,
    run_census,
    run_pipeline,
)
from .waterdetect import (
    MlpWater,
    NdwiOtsu,
    clean_water_mask,
    compute_ndwi,
    otsu_threshold,
    water_mask_mlp,
    water_mask_ndwi,
)

__version__ = "0.1.0"
