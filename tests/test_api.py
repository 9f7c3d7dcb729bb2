"""The package's public name list, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import texcorpus
from texcorpus.cli import FEATURES_SCHEMA, NdjsonWriter, feature_record
from texcorpus.synth import two_class_corpus

SRC = Path(texcorpus.__file__).resolve().parent.parent


def test_all_is_sorted_and_unique():
    assert list(texcorpus.__all__) == sorted(set(texcorpus.__all__))


def test_every_exported_name_resolves():
    for name in texcorpus.__all__:
        assert hasattr(texcorpus, name), name


def heavy_modules_after(code: str) -> list[str]:
    """Which of numpy and requests a fresh interpreter holds after running code."""
    probe = f"{code}\nimport sys\nprint(sorted({{'numpy', 'requests'}} & sys.modules.keys()))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


class TestLazyImports:
    def test_cli_import_loads_neither(self):
        assert heavy_modules_after("import texcorpus.cli") == []

    def test_package_import_loads_neither(self):
        assert heavy_modules_after("import texcorpus") == []

    def test_stats_command_loads_neither(self, tmp_path):
        features = tmp_path / "features.ndjson"
        with NdjsonWriter(features, FEATURES_SCHEMA) as out:
            for fv in two_class_corpus(10, seed=0):
                out.write(feature_record(fv))
        argv = ["stats", "--features", str(features), "--out", str(tmp_path / "o")]
        code = f"from texcorpus.cli import main\nassert main({argv!r}) == 0"
        assert heavy_modules_after(code) == []

    def test_classifier_name_loads_numpy(self):
        code = "import texcorpus\ntexcorpus.train_classifier"
        assert heavy_modules_after(code) == ["numpy"]

    def test_names_resolve_to_their_modules(self):
        from texcorpus import classify, harvest

        assert texcorpus.train_classifier is classify.train_classifier
        assert texcorpus.harvest_into_store is harvest.harvest_into_store
        assert not hasattr(texcorpus, "no_such_name")

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from texcorpus import *", namespace)
        assert set(texcorpus.__all__) <= namespace.keys()
