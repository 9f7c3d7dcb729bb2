"""Toolkit for analyzing corpora of LaTeX paper sources.

Pipeline: harvest sources from an arXiv-compatible API, tokenize them,
extract comments (syntactically and against a formal compilation-oracle
model), measure document structure, then aggregate into corpus statistics,
discriminative vocabularies, trends and a subject classifier.

Each public name is imported from its module on first access, so
importing the package, or one module of it, loads numpy only when a
classifier name is used and requests only when a network fetch is made.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module (relative to this package) that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        ".classify": (
            "FEATURE_NAMES",
            "EvalReport",
            "LogisticModel",
            "TrainConfig",
            "evaluate",
            "save_model",
            "train_classifier",
            "train_test_split",
        ),
        ".comments": (
            "CommentSpan",
            "NormalizingOracle",
            "detect_ignore_macros",
            "extract_line_comments",
            "extract_macro_comments",
            "is_comment",
            "is_maximal_comment",
            "partition_maximal_comments",
            "reference_oracle",
            "semantic_comments",
        ),
        ".errors": ("Diagnostic", "TexcorpusError"),
        ".features": (
            "ExtractionResult",
            "FeatureVector",
            "extract_document",
            "inline_sources",
        ),
        ".harvest": (
            "CorpusStore",
            "FileType",
            "PaperRecord",
            "classify_payload",
            "harvest_into_store",
            "parse_listing_feed",
            "unpack",
        ),
        ".lexer": (
            "SourceDocument",
            "Token",
            "TokenKind",
            "TokenStream",
            "alphabetic_words",
            "detect_main_file",
            "group_closers",
            "tokenize",
        ),
        ".stats": (
            "CorpusSummary",
            "FilterSpec",
            "FrequencyTable",
            "TrendFit",
            "build_table",
            "discriminative",
            "linear_trend",
            "package_incidence",
            "summarize",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value
