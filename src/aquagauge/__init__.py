"""Water-quality index scoring, WQI forecasting and fish-disease diagnosis."""

from .errors import AquagaugeError, LengthMismatch, NonFinite
from .forecast import (
    EvalReport,
    SupervisedTask,
    build_feature_rows,
    build_supervised,
    evaluate,
    mse,
    percentile_error,
    r_squared,
    split_by_station,
)
from .gbm import (
    FeatureMatrix,
    GbmModel,
    Hyperparams,
    RegressionTree,
    best_split,
    deserialize_model,
    fit_tree,
    gbm_fit,
    init_constant,
    negative_gradient,
    predict_matrix,
    serialize_model,
)
from .ingest import (
    Dataset,
    WaterSample,
    coerce_numeric,
    impute_missing,
    parse_dataset,
    parse_month_year,
)
from .rules import Diagnosis, Rule, RuleSet, default_ruleset, diagnose, load_rules
from .wqi import (
    LEGACY_NCO,
    NORMATIVE,
    SubIndices,
    WeightedScores,
    WqiRecord,
    compute_wqi,
)

__version__ = "0.1.0"
