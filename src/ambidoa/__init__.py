"""ambidoa: synthetic first-order-Ambisonics DOA estimation workbench."""

from .geometry import (
    SphereGrid,
    build_grid,
    great_circle,
    haversine_angles,
    nearest_class,
    to_cartesian,
    to_spherical,
)
from .acoustics import (
    PathSet,
    RoomConfig,
    Scene,
    energy_decay_curve,
    estimate_rt60,
    image_source_paths,
    sabine_rt60,
    sample_scenes,
    trace_paths,
)
from .foa import FoaIR, FoaSignal, encode_plane_wave, encode_srir, foa_gains
from .features import (
    FeatureTensor,
    Spectrogram,
    convolve_foa,
    intensity_features,
    mix_noise,
    sample_snr,
    speech_shaped_noise,
    stft,
)

__version__ = "0.1.0"
