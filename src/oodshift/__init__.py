"""Quantification of diversity and correlation shift between two labeled
environments, with synthetic generators, baseline metrics, and benchmark
ranking scores."""

from .data import LabeledDataset, Rng, load_csv, save_csv, split_train_val
from .datagen import (
    ColoredSpec,
    LatentSpec,
    gen_colored,
    gen_latent,
    irm_colored_default,
    latent_spec_a,
    latent_spec_tv,
    random_latent_spec,
)
from .density import KdeModel, kde_fit, kde_logpdf, kde_pdf, kde_sample
from .discriminator import ExtractorModel, MlpConfig, extract, grad_check, train
from .estimator import (
    EstimatorConfig,
    ShiftEstimate,
    estimate,
    estimate_pipeline,
    oracle_shift,
    sweep,
)
from .baselines import compare_table, emd, mmd, ni
from .benchscore import (
    AccuracyTable,
    cell_score,
    cell_scores,
    load_accuracy_table,
    load_fixture,
    ranking_scores,
)

__all__ = [
    "LabeledDataset", "Rng", "load_csv", "save_csv", "split_train_val",
    "ColoredSpec", "LatentSpec", "gen_colored", "gen_latent", "irm_colored_default",
    "latent_spec_a", "latent_spec_tv", "random_latent_spec",
    "KdeModel", "kde_fit", "kde_logpdf", "kde_pdf", "kde_sample",
    "ExtractorModel", "MlpConfig", "extract", "grad_check", "train",
    "EstimatorConfig", "ShiftEstimate", "estimate", "estimate_pipeline", "oracle_shift",
    "sweep",
    "compare_table", "emd", "mmd", "ni",
    "AccuracyTable", "cell_score", "cell_scores", "load_accuracy_table", "load_fixture",
    "ranking_scores",
]
__version__ = "0.1.0"
