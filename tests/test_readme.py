"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = python_blocks()
    (tmp_path / "main.tex").write_text(
        "\\documentclass{article}\n\\usepackage{graphicx}\n"
        "\\begin{document}\nSome words % a note\n\\end{document}\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == [
        "10 ('graphicx',)",
        "line 75 82 ' a note'",
        "[(2, 8)]",
    ]


def test_environment_table_lists_the_variables_the_source_reads():
    source = pathlib.Path(__file__).parent.parent / "src"
    read = set()
    for path in source.rglob("*.py"):
        read |= set(re.findall(r"\bTEXCORPUS_[A-Z_]+\b", path.read_text(encoding="utf-8")))
    table = set(re.findall(r"^\| `(TEXCORPUS_[A-Z_]+)` \|", README.read_text(encoding="utf-8"), re.M))
    assert read
    assert table == read


def test_module_map_names_every_module():
    package = pathlib.Path(__file__).parent.parent / "src" / "texcorpus"
    modules = {f"texcorpus.{path.stem}" for path in package.glob("*.py")} - {"texcorpus.__init__"}
    text = README.read_text(encoding="utf-8")
    module_map = text[text.index("Module map:") : text.index("## Testing")]
    mapped = set(re.findall(r"^\* `(texcorpus\.\w+)`", module_map, re.M))
    assert modules
    assert mapped == modules
