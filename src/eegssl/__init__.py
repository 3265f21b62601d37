"""Desk-scale self-supervised EEG pretraining pipeline.

Preprocessing, cross-montage channel mapping and patching, masked
dual-encoder training with EMA targets, and linear-probe evaluation — all
deterministic and verifiable on a CPU.
"""

from .config import RunConfig, TrainConfig
from .data import (Checkpoint, Montage, Recording, SegmentBatch,
                   load_checkpoint, load_segments, read_recording,
                   save_checkpoint, save_segments, write_recording)
from .encoder import EncoderConfig, init_param_store
from .errors import DivergenceError, FormatError, ValidationError
from .evaluate import (FeatureSet, LinearProbe, MetricsReport, compute_metrics,
                       extract_features, fit_probe, predict_scores)
from .optim import (ScheduleConfig, adamw_step, ema_update, lr_at,
                    momentum_at, wd_at)
from .preprocess import PreprocConfig, lowpass, preprocess, resample
from .synth import Oscillation, SynthSpec, synth_labeled_dataset, synth_recording
from .trainer import (GradCheckReport, TrainLogRecord, grad_check, grad_stats,
                      init_checkpoint, run_pretraining, train_step)

__version__ = "0.1.0"
