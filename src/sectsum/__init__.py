"""sectsum: joint extractive summarization and section segmentation.

A numpy toolkit that scores every sentence of a long document twice (does it
belong in the summary? does it start or end a section?) with a small
inter-sentence attention encoder trained from heuristic labels, optionally
regularized by a determinantal repulsion term that discourages redundant
summaries. Includes corpus tooling, greedy reference labeling, overlap and
segmentation metrics, and a command line front end.
"""

from .corpus import (
    CUE_PHRASES,
    CorpusError,
    Document,
    LabelSet,
    Sentence,
    SynthConfig,
    generate_synthetic,
    parse_corpus,
    relabel_boundaries,
    split_corpus,
    tokenize,
    write_corpus,
)
from .dpp import (
    DppLoss,
    SingularMinorError,
    ZeroNormError,
    brute_force_subset_sum,
    dpp_loss_and_grad,
)
from .encoder import (
    CheckpointError,
    EncodedDocument,
    FeatureConfig,
    ModelParams,
    NumericsError,
    backward_document,
    base_features,
    encode_forward,
    forward_document,
    heads_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import (
    EvalReport,
    approx_randomization_test,
    boundary_proximity_histogram,
    evaluate_full,
    seg_f1,
    windowdiff,
    with_references,
)
from .inference import (
    DEFAULT_BOUNDARY_THRESHOLD,
    Prediction,
    predict_boundaries,
    predict_document,
    read_predictions,
    render_summary,
    select_top_k,
    write_predictions,
)
from .oracle import (
    SegLabelConvention,
    boundary_labels,
    build_labels,
    candidate_score,
    greedy_summary_labels,
)
from .rouge import RougeScore, rouge_l, rouge_n
from .training import (
    BatchLoss,
    FitResult,
    GradCheckReport,
    TrainConfig,
    TrainingError,
    Variant,
    fit,
    grad_check,
    total_loss,
)

__version__ = "0.1.0"
