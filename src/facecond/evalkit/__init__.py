"""Free-text evaluation toolkit: label extraction and task metrics."""

from .metrics import (
    BP4D_AUS,
    DISFA_AUS,
    check_au_list,
    compute_avg_f1,
    compute_mae,
    compute_mean_attr_accuracy,
    compute_uar_war,
    confusion_matrix,
    parse_failure_rate,
)
from .parsing import (
    match_synonyms,
    match_synonyms_all,
    parse_age,
    parse_aus,
    split_sentences,
    strip_negatives,
    vote_chunks,
)
from .report import (
    EvalRecord,
    confusion_csv_rows,
    extract_prediction,
    load_eval_records,
    score_records,
)
from .taxonomy import (
    TAXONOMY_TASKS,
    Taxonomy,
    default_negation_cues,
    default_taxonomy,
    load_negation_cues,
    load_taxonomy,
    taxonomy_from_mapping,
)

__all__ = [
    "BP4D_AUS",
    "DISFA_AUS",
    "EvalRecord",
    "TAXONOMY_TASKS",
    "Taxonomy",
    "check_au_list",
    "compute_avg_f1",
    "compute_mae",
    "compute_mean_attr_accuracy",
    "compute_uar_war",
    "confusion_csv_rows",
    "confusion_matrix",
    "default_negation_cues",
    "default_taxonomy",
    "extract_prediction",
    "load_eval_records",
    "load_negation_cues",
    "load_taxonomy",
    "match_synonyms",
    "match_synonyms_all",
    "parse_age",
    "parse_aus",
    "parse_failure_rate",
    "score_records",
    "split_sentences",
    "strip_negatives",
    "taxonomy_from_mapping",
    "vote_chunks",
]
