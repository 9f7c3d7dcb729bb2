"""Toolkit for analyzing corpora of LaTeX paper sources.

Pipeline: harvest sources from an arXiv-compatible API, tokenize them,
extract comments (syntactically and against a formal compilation-oracle
model), measure document structure, then aggregate into corpus statistics,
discriminative vocabularies, trends and a subject classifier.
"""

from .classify import (
    FEATURE_NAMES,
    EvalReport,
    LogisticModel,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    train_classifier,
    train_test_split,
)
from .comments import (
    CommentSpan,
    CompilationOracle,
    NormalizingOracle,
    detect_ignore_macros,
    extract_line_comments,
    extract_macro_comments,
    is_comment,
    is_maximal_comment,
    partition_maximal_comments,
    reference_oracle,
    semantic_comments,
)
from .errors import Diagnostic, TexcorpusError
from .features import (
    ExtractionResult,
    FeatureVector,
    extract_document,
    inline_sources,
)
from .harvest import (
    CorpusStore,
    FileType,
    PaperRecord,
    classify_payload,
    harvest_into_store,
    parse_listing_feed,
    unpack,
)
from .lexer import (
    SourceDocument,
    Token,
    TokenKind,
    alphabetic_words,
    detect_main_file,
    group_closers,
    tokenize,
)
from .stats import (
    CorpusSummary,
    FilterSpec,
    FrequencyTable,
    TrendFit,
    build_table,
    discriminative,
    linear_trend,
    package_incidence,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CommentSpan",
    "CompilationOracle",
    "CorpusStore",
    "CorpusSummary",
    "Diagnostic",
    "EvalReport",
    "ExtractionResult",
    "FEATURE_NAMES",
    "FeatureVector",
    "FileType",
    "FilterSpec",
    "FrequencyTable",
    "LogisticModel",
    "NormalizingOracle",
    "PaperRecord",
    "SourceDocument",
    "TexcorpusError",
    "Token",
    "TokenKind",
    "TrainConfig",
    "TrendFit",
    "alphabetic_words",
    "build_table",
    "classify_payload",
    "detect_ignore_macros",
    "detect_main_file",
    "discriminative",
    "evaluate",
    "extract_document",
    "extract_line_comments",
    "extract_macro_comments",
    "group_closers",
    "harvest_into_store",
    "inline_sources",
    "is_comment",
    "is_maximal_comment",
    "linear_trend",
    "load_model",
    "package_incidence",
    "parse_listing_feed",
    "partition_maximal_comments",
    "reference_oracle",
    "save_model",
    "semantic_comments",
    "summarize",
    "tokenize",
    "train_classifier",
    "train_test_split",
    "unpack",
]
