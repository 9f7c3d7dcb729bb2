"""The corpus store: one directory per harvested paper.

``harvest`` writes papers here and ``extract`` reads them back. Stored
paths pass the same member-name check as archive members, so neither a
save nor a load reaches outside an entry.
"""

from __future__ import annotations

import json
import os
import posixpath
import re
import shutil
from pathlib import Path

from .errors import TexcorpusError
from .lexer import SourceDocument
from .records import iso_date


class PathTraversal(TexcorpusError):
    """An archive member tries to escape the extraction root."""


class CorruptMeta(TexcorpusError):
    """A stored document's metadata cannot be read back."""


def _check_member_name(name: str, doc_id: str) -> str:
    """Validate and normalize an archive member path of paper ``doc_id``."""
    if "\x00" in name:
        raise PathTraversal(f"{doc_id}: member name contains NUL: {name!r}")
    if name.startswith("/") or re.match(r"^[A-Za-z]:[/\\]", name):
        raise PathTraversal(f"{doc_id}: absolute member path: {name!r}")
    norm = posixpath.normpath(name.replace("\\", "/"))
    if norm == ".." or norm.startswith("../") or norm.startswith("/"):
        raise PathTraversal(f"{doc_id}: member path escapes root: {name!r}")
    return norm


CORPUS_SCHEMA = "texcorpus.corpus.v1"

_SAFE_ID_RE = re.compile(r"[^A-Za-z0-9._-]")


def _safe_id(doc_id: str) -> str:
    return _SAFE_ID_RE.sub("_", doc_id)


class CorpusStore:
    """File-based document store: one directory per paper.

    Layout: <root>/<safe id>/meta.json plus the source files under
    files/. The metadata file is written last, to a temporary file moved
    into place, so its presence marks a complete save; saving an
    already-present id is a no-op. Only saving creates directories:
    reading a store that does not exist finds no ids.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _dir(self, doc_id: str) -> Path:
        return self.root / _safe_id(doc_id)

    def contains(self, doc_id: str) -> bool:
        return (self._dir(doc_id) / "meta.json").is_file()

    def save(self, doc: SourceDocument) -> bool:
        """Store a document; returns False when it was already present.

        A save that fails partway removes the entry's directory if it made
        it, so no files are left without a meta.json, and re-raises.
        """
        if self.contains(doc.id):
            return False
        directory = self._dir(doc.id)
        created = not directory.exists()
        files_dir = directory / "files"
        paths = []
        try:
            files_dir.mkdir(parents=True, exist_ok=True)
            for path, data in doc.files:
                norm = _check_member_name(path, doc.id)
                target = files_dir / norm
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
                paths.append(norm)
            meta = {
                "schema": CORPUS_SCHEMA,
                "id": doc.id,
                "category": doc.category,
                "timestamp": doc.timestamp.isoformat() if doc.timestamp else None,
                "page_count": doc.page_count,
                "main_file": doc.main_file,
                "files": paths,
            }
            partial = directory / "meta.json.tmp"
            partial.write_text(
                json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            os.replace(partial, directory / "meta.json")
        except BaseException:
            if created:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        return True

    def load(self, doc_id: str) -> SourceDocument:
        return self._load_dir(self._dir(doc_id))

    def _load_dir(self, directory: Path) -> SourceDocument:
        """Read one stored document. A meta.json that is not what ``save``
        writes, including a listed path outside the entry, is CorruptMeta."""
        name = directory.name
        try:
            meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise CorruptMeta(f"{name}: {exc}") from exc
        if not isinstance(meta, dict):
            raise CorruptMeta(f"{name}: meta.json is not a JSON object")
        if meta.get("schema") != CORPUS_SCHEMA:
            raise CorruptMeta(f"{name}: unrecognized schema {meta.get('schema')!r}")

        def value(key: str, kind: type, optional: bool = True):
            found = meta.get(key)
            # JSON yields exact types, so this also refuses a bool as an int
            if (found is None and optional) or type(found) is kind:
                return found
            raise CorruptMeta(f"{name}: {key} is not a {kind.__name__}")

        doc_id = value("id", str, optional=False)
        rel_paths = value("files", list, optional=False)
        files = []
        for rel in rel_paths:
            if not isinstance(rel, str):
                raise CorruptMeta(f"{name}: a listed file is not a string")
            try:
                rel = _check_member_name(rel, name)
                files.append((rel, (directory / "files" / rel).read_bytes()))
            except PathTraversal as exc:
                raise CorruptMeta(str(exc)) from exc
            except OSError as exc:
                raise CorruptMeta(f"{name}: unreadable {rel!r}") from exc
        timestamp = value("timestamp", str)
        try:
            return SourceDocument(
                id=doc_id,
                files=files,
                main_file=value("main_file", str),
                timestamp=iso_date(timestamp) if timestamp else None,
                category=value("category", str) or "",
                page_count=value("page_count", int),
            )
        except ValueError as exc:
            raise CorruptMeta(f"{name}: {exc}") from exc

    def ids(self) -> list[str]:
        """Stored ids, sorted by directory name; none for a missing root."""
        if not self.root.exists():
            return []
        out = []
        for directory in sorted(self.root.iterdir()):
            if (directory / "meta.json").is_file():
                out.append(directory.name)
        return out
