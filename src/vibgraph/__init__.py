"""vibgraph: DTW-similarity graphs and a variational graph autoencoder with
soft-voting ensemble classification for vibration fault diagnosis."""

from .segmentation import (TimeSeries, WindowSelection,
                           shannon_entropy, average_entropy, select_window,
                           segment)
from .features import (feature_matrix, minmax_normalize, minmax_scale,
                       stat_features, temporal_features, psd_top3,
                       FEATURE_NAMES, FEATURE_DIM)
from .graph import (FaultGraph, dtw_distance, similarity, pairwise_distances,
                    threshold_from_percentile, build_graph, save_graph,
                    load_graph, PairBudgetError)
from .gae import GaeConfig, TrainedGAE, train, embed, encode, decode
from .ensemble import (EnsembleModel, fit_ensemble, fit_ensemble_weights,
                       cross_entropy, train_random_forest,
                       train_gradient_boosting, train_regularized_boosting,
                       train_mlp_classifier, predict_base, save_ensemble, load_ensemble)
from .stats import (confusion_matrix, precision_recall_f1,
                    accuracy, paired_ttest, wilcoxon_signed_rank, f1_summary,
                    evaluation_report)
from .data import read_manifest, load_series, block_reduce

__version__ = "0.1.0"
