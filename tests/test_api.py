"""What importing the package, its CLI and its classifier loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import texcorpus
from synth import two_class_corpus
from texcorpus.cli import FEATURES_SCHEMA, NdjsonWriter, feature_record

SRC = Path(texcorpus.__file__).resolve().parent.parent


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
        assert heavy_modules_after("import texcorpus.classify") == ["numpy"]
