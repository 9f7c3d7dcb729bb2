"""Harvesting papers from an arXiv-compatible listing API.

Feed parsing is pure (bytes in, records out) and networking goes through a
single module-level ``http_fetch`` that tests can replace. Downloaded
payloads are classified by declared content type first and by leading magic
bytes second, then unpacked with hard safety limits: archive members may not
escape the extraction root, be links, or exceed a cumulative size cap.
Documents land in the corpus store of ``texcorpus.store``.
"""

from __future__ import annotations

import io
import os
import re
import tarfile
import time
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from typing import Callable, TypeVar
from urllib.parse import urlencode

from .errors import Diagnostic, TexcorpusError
from .lexer import MAX_PAGE_COUNT, SourceDocument
from .store import CorpusStore, PathTraversal, _check_member_name

USER_AGENT = "texcorpus/0.1 (batch corpus harvester)"

DEFAULT_API_BASE = "http://export.arxiv.org/api/query"
DEFAULT_SOURCE_BASE = "https://arxiv.org/e-print"
DEFAULT_DELAY = 3.0
DEFAULT_SIZE_CAP = 256 * 1024 * 1024
# retries of one request after a rate limit or a transport failure
MAX_RETRIES = 3
# The longest Retry-After honoured, in seconds. A value that is not a number
# from 0 to this counts as absent, so the backoff applies: time.sleep refuses
# NaN, a negative number or one near 1e10, and a longer wait stalls a harvest.
MAX_RETRY_AFTER = 86_400.0


def api_base() -> str:
    return os.environ.get("TEXCORPUS_API_BASE", DEFAULT_API_BASE)


def source_base() -> str:
    return os.environ.get("TEXCORPUS_SOURCE_BASE", DEFAULT_SOURCE_BASE)


class HttpError(TexcorpusError):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status
        self.url = url


class RateLimited(HttpError):
    """The server asked us to back off (429 or 503)."""

    def __init__(self, status: int, url: str, retry_after: float | None = None):
        super().__init__(status, url)
        self.retry_after = retry_after


class TransportError(TexcorpusError):
    """A request failed before any HTTP status arrived (connection, timeout)."""


class FeedParseError(TexcorpusError):
    """The listing feed is not well-formed or lacks required elements."""


class UnknownPayload(TexcorpusError):
    """A downloaded payload matches no recognized file type."""


class UnsupportedPayload(TexcorpusError):
    """The payload type is recognized but holds no TeX sources."""


class ArchiveCorrupt(TexcorpusError):
    """A source archive cannot be decompressed or read."""


class SizeCapExceeded(TexcorpusError):
    """An archive expands past the configured size limit."""


FetchFn = Callable[..., tuple[int, dict, bytes]]
T = TypeVar("T")


def http_fetch(
    url: str, params: dict | None = None, timeout: float = 30.0
) -> tuple[int, dict, bytes]:
    """GET a URL, returning (status, headers, body).

    The body is returned as the server sent it: the request asks for no
    content coding and nothing is inflated here, so every decompression
    happens in ``unpack``, under its size cap. An error status is a result
    like any other. A failure to get a whole response, such as a refused
    connection, a timeout, a malformed status line or a body cut short,
    raises an OSError.
    """
    import http.client
    import urllib.error
    import urllib.request  # only a network fetch needs them

    if params:
        url += ("&" if "?" in url else "?") + urlencode(params)
    request = urllib.request.Request(url, headers={"User-Agent": USER_AGENT})
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, dict(exc.headers), exc.read()
    except http.client.HTTPException as exc:
        # not an OSError, yet as much a transport fault as a reset connection
        raise ConnectionError(f"{exc!r}") from exc


def _request(
    url: str, fetch: FetchFn | None, params: dict | None = None
) -> tuple[dict, bytes]:
    """One GET through ``fetch`` (default http_fetch); (headers, body) of a
    success, with the header names in lower case.

    Any OSError from ``fetch`` becomes TransportError. A 429 or 503 raises
    RateLimited, carrying its Retry-After when that is a number from 0 to
    MAX_RETRY_AFTER; another error status raises HttpError.
    """
    try:
        status, headers, body = (fetch or http_fetch)(url, params=params)
    except OSError as exc:
        raise TransportError(f"transport error for {url}: {exc}") from exc
    headers = {name.lower(): value for name, value in headers.items()}
    if status in (429, 503):
        try:
            retry_after = float(headers.get("retry-after"))
        except (TypeError, ValueError):
            retry_after = None
        usable = retry_after is not None and 0 <= retry_after <= MAX_RETRY_AFTER
        raise RateLimited(status, url, retry_after if usable else None)
    if status >= 400:
        raise HttpError(status, url)
    return headers, body


def _retrying(call: Callable[[], T], delay: float, sleep: Callable[[float], None]) -> T:
    """``call()``, retried up to MAX_RETRIES times after RateLimited or
    TransportError; the last attempt's error propagates, as do all others.
    Each retry waits for the server's usable Retry-After, or else
    ``delay * 2**attempt``."""
    for attempt in range(1, MAX_RETRIES + 1):
        try:
            return call()
        except (RateLimited, TransportError) as exc:
            wait = exc.retry_after if isinstance(exc, RateLimited) else None
            sleep(delay * 2**attempt if wait is None else wait)
    return call()


@dataclass(frozen=True)
class PaperRecord:
    """One listing entry, as much of it as the pipeline uses."""

    id: str
    title: str
    primary_category: str
    categories: tuple[str, ...]
    timestamp: date | None
    page_count: int | None


@dataclass(frozen=True)
class FeedPage:
    records: tuple[PaperRecord, ...]
    total_results: int


_NS = {
    "atom": "http://www.w3.org/2005/Atom",
    "arxiv": "http://arxiv.org/schemas/atom",
    "opensearch": "http://a9.com/-/spec/opensearch/1.1/",
}

_VERSION_RE = re.compile(r"v\d+$")
_PAGES_RE = re.compile(r"(\d+)\s*pages?\b", re.IGNORECASE)


def _entry_id(raw: str) -> str:
    """Bare paper id from an abs URL, version suffix removed."""
    tail = raw.rsplit("/abs/", 1)[-1] if "/abs/" in raw else raw
    return _VERSION_RE.sub("", tail.strip())


def _entry_date(raw: str) -> date:
    return datetime.fromisoformat(raw.replace("Z", "+00:00")).date()


def parse_listing_feed(xml_bytes: bytes) -> FeedPage:
    """Parse one Atom page of listing results.

    Raises FeedParseError on malformed XML or entries missing an id or
    publication date. Page counts come from the free-text comment field
    when it mentions one from 1 to MAX_PAGE_COUNT; otherwise they are None.
    """
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError as exc:
        raise FeedParseError(f"feed is not well-formed XML: {exc}") from exc

    entries = root.findall("atom:entry", _NS)
    total_text = root.findtext("opensearch:totalResults", namespaces=_NS)
    try:
        total = len(entries) if total_text is None else int(total_text)
    except ValueError as exc:
        raise FeedParseError(f"bad opensearch:totalResults: {total_text!r}") from exc

    records = []
    for entry in entries:
        raw_id = entry.findtext("atom:id", namespaces=_NS)
        if not raw_id:
            raise FeedParseError("entry without an id")
        published = entry.findtext("atom:published", namespaces=_NS)
        if not published:
            raise FeedParseError(f"entry {raw_id} lacks a published date")
        try:
            timestamp = _entry_date(published)
        except ValueError as exc:
            raise FeedParseError(
                f"entry {raw_id} has bad published date {published!r}"
            ) from exc
        title = (entry.findtext("atom:title", namespaces=_NS) or "").strip()
        categories = tuple(
            el.get("term", "")
            for el in entry.findall("atom:category", _NS)
            if el.get("term")
        )
        primary_el = entry.find("arxiv:primary_category", _NS)
        primary = primary_el.get("term", "") if primary_el is not None else ""
        if not primary and categories:
            primary = categories[0]
        comment = entry.findtext("arxiv:comment", namespaces=_NS) or ""
        pages_match = _PAGES_RE.search(comment)
        page_count = None
        if pages_match:
            # int() refuses a string of over 4,300 digits
            digits = pages_match.group(1).lstrip("0")
            if 0 < len(digits) <= 16 and int(digits) <= MAX_PAGE_COUNT:
                page_count = int(digits)
        records.append(
            PaperRecord(
                id=_entry_id(raw_id),
                title=title,
                primary_category=primary,
                categories=categories,
                timestamp=timestamp,
                page_count=page_count,
            )
        )
    return FeedPage(records=tuple(records), total_results=total)


def query_listing(
    category: str,
    start: int = 0,
    page_size: int = 100,
    from_date: date | None = None,
    to_date: date | None = None,
    fetch: FetchFn | None = None,
) -> tuple[list[PaperRecord], FeedPage]:
    """Fetch and parse one page of the listing for a category.

    Entries whose primary category differs (they match the query through a
    cross-list) are dropped from the records; the page keeps them.
    """
    query = f"cat:{category}"
    if from_date and to_date:
        query += (
            f" AND submittedDate:[{from_date:%Y%m%d}0000"
            f" TO {to_date:%Y%m%d}2359]"
        )
    params = {
        "search_query": query,
        "start": start,
        "max_results": page_size,
        "sortBy": "submittedDate",
        "sortOrder": "ascending",
    }
    _, body = _request(api_base(), fetch, params)
    page = parse_listing_feed(body)
    records = [r for r in page.records if r.primary_category == category]
    return records, page


def harvest_listing(
    category: str,
    max_records: int,
    page_size: int = 100,
    from_date: date | None = None,
    to_date: date | None = None,
    fetch: FetchFn | None = None,
    delay: float = DEFAULT_DELAY,
    sleep: Callable[[float], None] = time.sleep,
    diagnostics: list[Diagnostic] | None = None,
) -> list[PaperRecord]:
    """Page through the listing until max_records unique papers are seen.

    Waits ``delay`` seconds between page requests. Each page request is
    retried as ``_retrying`` says. When a page still fails with an HTTP or
    transport error, or is malformed, the papers of the pages read before
    it are returned, with a diagnostic naming the page's offset; a first
    page that fails raises. Pages that only repeat known ids stop the walk, as does
    reaching the feed's reported total.
    """
    seen: dict[str, PaperRecord] = {}
    start = 0
    while len(seen) < max_records:
        try:
            records, page = _retrying(
                lambda: query_listing(category, start, page_size, from_date, to_date, fetch),
                delay,
                sleep,
            )
        except (HttpError, TransportError, FeedParseError) as exc:
            if start == 0:
                raise
            if diagnostics is not None:
                message = f"{category}: listing page at offset {start} failed: {exc}"
                diagnostics.append(Diagnostic("harvest", message))
            break
        if not page.records:
            break
        new = 0
        for record in records:
            if record.id not in seen:
                seen[record.id] = record
                new += 1
        if new == 0 and records:
            break  # page repeated known ids only; server is not advancing
        start += len(page.records)
        if start >= page.total_results:
            break
        if len(seen) < max_records:
            sleep(delay)
    return list(seen.values())[:max_records]


class FileType(Enum):
    PDF = "pdf"
    EPRINT = "x-eprint"
    EPRINT_TAR = "x-eprint-tar"
    POSTSCRIPT = "postscript"
    HTML = "html"
    DOCX = "docx"


_CONTENT_TYPE_MAP = {
    "application/pdf": FileType.PDF,
    "application/x-eprint-tar": FileType.EPRINT_TAR,
    "application/x-eprint": FileType.EPRINT,
    "application/postscript": FileType.POSTSCRIPT,
    "text/html": FileType.HTML,
    "application/vnd.openxmlformats-officedocument.wordprocessingml.document": (
        FileType.DOCX
    ),
}

_GZIP_MAGIC = b"\x1f\x8b"
_TEX_MARKERS = (b"\\documentclass", b"\\documentstyle", b"\\begin{document}")


def _gunzip_head(payload: bytes, limit: int) -> bytes:
    d = zlib.decompressobj(wbits=47)
    return d.decompress(payload[:65536], limit)


def classify_payload(content: bytes, content_type: str | None = None) -> FileType:
    """Decide what a downloaded payload is.

    The declared content type wins when it maps to a known type; otherwise
    leading magic bytes decide. Gzip payloads are peeked into to separate
    tar archives from single compressed files. Raises UnknownPayload when
    nothing matches.
    """
    if content_type:
        base = content_type.split(";", 1)[0].strip().lower()
        mapped = _CONTENT_TYPE_MAP.get(base)
        if mapped is not None:
            return mapped

    if content.startswith(b"%PDF"):
        return FileType.PDF
    if content.startswith(b"%!"):
        return FileType.POSTSCRIPT
    if content.startswith(_GZIP_MAGIC):
        try:
            head = _gunzip_head(content, 1024)
        except zlib.error:
            return FileType.EPRINT
        if len(head) >= 262 and head[257:262] == b"ustar":
            return FileType.EPRINT_TAR
        return FileType.EPRINT
    if content.startswith(b"PK\x03\x04"):
        if b"[Content_Types].xml" in content[:4096]:
            return FileType.DOCX
        raise UnknownPayload("zip payload that is not a word-processor document")
    head_lower = content[:1024].lower()
    if b"<html" in head_lower or b"<!doctype html" in head_lower:
        return FileType.HTML
    if any(marker in content[:65536] for marker in _TEX_MARKERS):
        return FileType.EPRINT
    raise UnknownPayload(f"unrecognized payload starting {content[:8]!r}")


def _gunzip_capped(payload: bytes, cap: int, doc_id: str) -> bytes:
    """The first gzip or zlib stream in ``payload``, decompressed; bytes after
    it are ignored. More than ``cap`` bytes out raise SizeCapExceeded."""
    try:
        out = zlib.decompressobj(wbits=47).decompress(payload, cap + 1)
    except zlib.error as exc:
        raise ArchiveCorrupt(f"{doc_id}: bad gzip stream: {exc}") from exc
    if len(out) > cap:
        raise SizeCapExceeded(
            f"{doc_id}: decompressed size exceeds cap of {cap} bytes"
        )
    return out


class _NotATar(Exception):
    """Internal: payload was labeled tar but is not readable as one."""


def _unpack_tar(
    raw: bytes, doc_id: str, size_cap: int
) -> list[tuple[str, bytes]]:
    try:
        tf = tarfile.open(fileobj=io.BytesIO(raw), mode="r:")
    except tarfile.TarError as exc:
        raise _NotATar(str(exc)) from exc
    files: list[tuple[str, bytes]] = []
    total = 0
    with tf:
        for member in tf:
            if member.issym() or member.islnk():
                raise PathTraversal(
                    f"{doc_id}: link member {member.name!r} rejected"
                )
            if not member.isreg():
                continue
            norm = _check_member_name(member.name, doc_id)
            total += member.size
            if total > size_cap:
                raise SizeCapExceeded(
                    f"{doc_id}: archive exceeds cap of {size_cap} bytes"
                )
            handle = tf.extractfile(member)
            if handle is None:
                continue
            files.append((norm, handle.read()))
    if not files:
        raise ArchiveCorrupt(f"{doc_id}: archive holds no regular files")
    return files


def unpack(
    payload: bytes,
    file_type: FileType,
    *,
    doc_id: str,
    category: str = "",
    timestamp: date | None = None,
    page_count: int | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
    diagnostics: list[Diagnostic] | None = None,
) -> SourceDocument:
    """Turn a downloaded source payload into a SourceDocument.

    Only TeX payload types unpack; PDF and friends raise
    UnsupportedPayload. A payload labeled as a tar archive that gunzips to
    something unreadable as tar is kept as a single file, with a
    diagnostic, since mislabeled single-file submissions do occur.
    """
    if file_type is FileType.EPRINT_TAR:
        raw = _gunzip_capped(payload, size_cap, doc_id)
        try:
            files = _unpack_tar(raw, doc_id, size_cap)
        except _NotATar as exc:
            if not raw:
                raise ArchiveCorrupt(f"{doc_id}: empty payload: {exc}") from exc
            if diagnostics is not None:
                diagnostics.append(
                    Diagnostic(
                        "unpack",
                        f"{doc_id}: labeled as tar but not readable as one; "
                        "kept as a single file",
                    )
                )
            files = [("main.tex", raw)]
    elif file_type is FileType.EPRINT:
        if payload.startswith(_GZIP_MAGIC):
            content = _gunzip_capped(payload, size_cap, doc_id)
        else:
            if len(payload) > size_cap:
                raise SizeCapExceeded(
                    f"{doc_id}: payload exceeds cap of {size_cap} bytes"
                )
            content = payload
        files = [("main.tex", content)]
    else:
        raise UnsupportedPayload(f"{doc_id}: no TeX sources in {file_type.value}")
    return SourceDocument(
        id=doc_id,
        files=files,
        timestamp=timestamp,
        category=category,
        page_count=page_count,
    )


@dataclass
class HarvestReport:
    """Counts from one harvest run."""

    listed: int = 0
    stored: int = 0
    already_present: int = 0
    unsupported: int = 0
    failed: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)


def fetch_source(
    paper_id: str, fetch: FetchFn | None = None
) -> tuple[bytes, str | None]:
    """Download one paper's source payload; returns (bytes, content type)."""
    url = f"{source_base().rstrip('/')}/{paper_id}"
    headers, body = _request(url, fetch)
    return body, headers.get("content-type")


def harvest_into_store(
    category: str,
    max_records: int,
    store: CorpusStore,
    from_date: date | None = None,
    to_date: date | None = None,
    page_size: int = 100,
    fetch: FetchFn | None = None,
    delay: float = DEFAULT_DELAY,
    sleep: Callable[[float], None] = time.sleep,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> HarvestReport:
    """List papers in a category, download their sources, store them.

    Waits ``delay`` seconds before each download; downloads are retried
    like listing pages, as ``_retrying`` says. A paper that still fails to
    download, is unsupported or corrupt, or cannot be written to the store
    is counted and reported as a diagnostic; it never aborts the run.
    """
    report = HarvestReport()
    records = harvest_listing(
        category,
        max_records,
        page_size=page_size,
        from_date=from_date,
        to_date=to_date,
        fetch=fetch,
        delay=delay,
        sleep=sleep,
        diagnostics=report.diagnostics,
    )
    report.listed = len(records)
    for record in records:
        if store.contains(record.id):
            report.already_present += 1
            continue
        sleep(delay)
        try:
            payload, content_type = _retrying(
                lambda: fetch_source(record.id, fetch=fetch), delay, sleep
            )
            file_type = classify_payload(payload, content_type)
            doc = unpack(
                payload,
                file_type,
                doc_id=record.id,
                category=record.primary_category,
                timestamp=record.timestamp,
                page_count=record.page_count,
                size_cap=size_cap,
                diagnostics=report.diagnostics,
            )
        except (UnknownPayload, UnsupportedPayload) as exc:
            report.unsupported += 1
            report.diagnostics.append(Diagnostic("harvest", str(exc)))
            continue
        except (
            HttpError,
            TransportError,
            ArchiveCorrupt,
            PathTraversal,
            SizeCapExceeded,
        ) as exc:
            report.failed += 1
            report.diagnostics.append(Diagnostic("harvest", str(exc)))
            continue
        try:
            store.save(doc)
        except OSError as exc:
            report.failed += 1
            report.diagnostics.append(
                Diagnostic("harvest", f"{record.id}: could not store: {exc}")
            )
        else:
            report.stored += 1
    return report
