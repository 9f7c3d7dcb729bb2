"""Feed parsing, payload classification, safe unpacking, and the store."""

import gzip
import io
import json
import socket
import tarfile
import threading
from datetime import date
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlencode

import pytest

from texcorpus import harvest
from texcorpus.cli import main
from texcorpus.harvest import (
    MAX_RETRIES,
    ArchiveCorrupt,
    FeedParseError,
    FileType,
    HttpError,
    RateLimited,
    SizeCapExceeded,
    TransportError,
    UnknownPayload,
    UnsupportedPayload,
    classify_payload,
    harvest_into_store,
    harvest_listing,
    http_fetch,
    parse_listing_feed,
    query_listing,
    unpack,
)
from texcorpus.lexer import MAX_PAGE_COUNT, SourceDocument
from texcorpus.store import CorpusStore, CorruptMeta, PathTraversal

FEED_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<feed xmlns="http://www.w3.org/2005/Atom"'
    ' xmlns:opensearch="http://a9.com/-/spec/opensearch/1.1/"'
    ' xmlns:arxiv="http://arxiv.org/schemas/atom">\n'
)


def feed(entries, total=None, start=0, per_page=None):
    if total is None:
        total = len(entries)
    if per_page is None:
        per_page = len(entries)
    body = FEED_HEADER
    body += f"<opensearch:totalResults>{total}</opensearch:totalResults>"
    body += f"<opensearch:startIndex>{start}</opensearch:startIndex>"
    body += f"<opensearch:itemsPerPage>{per_page}</opensearch:itemsPerPage>"
    for entry in entries:
        body += entry
    body += "</feed>"
    return body.encode()


def entry(
    paper_id="cs/0101001v1",
    published="2001-01-05T10:00:00Z",
    primary="cs.AI",
    categories=("cs.AI",),
    comment=None,
    title="A paper",
):
    parts = [f"<entry><id>http://arxiv.org/abs/{paper_id}</id>"]
    parts.append(f"<published>{published}</published>")
    parts.append(f"<title>{title}</title>")
    if comment is not None:
        parts.append(f"<arxiv:comment>{comment}</arxiv:comment>")
    if primary is not None:
        parts.append(f'<arxiv:primary_category term="{primary}"/>')
    for cat in categories:
        parts.append(f'<category term="{cat}"/>')
    parts.append("</entry>")
    return "".join(parts)


def tar_gz(members):
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    return gzip.compress(buf.getvalue())


def source(members=(("main.tex", b"\\documentclass{article} body"),)):
    return (200, {"Content-Type": "application/x-eprint-tar"}, tar_gz(members))


def serve(listing, downloads):
    """A fetch that answers any listing request with ``listing`` and each
    download from its paper's list of responses, the last one repeating.
    A response that is an exception is raised. ``fetch.fetches`` records
    the paper id of each download."""
    fetches = []

    def fetch(url, params=None, timeout=30.0):
        if params is not None:
            return (200, {}, listing)
        paper_id = url.split("/e-print/", 1)[1]
        fetches.append(paper_id)
        responses = downloads[paper_id]
        response = responses.pop(0) if len(responses) > 1 else responses[0]
        if isinstance(response, Exception):
            raise response
        return response

    fetch.fetches = fetches
    return fetch


class TestFeedParsing:
    def test_fields_extracted(self):
        page = parse_listing_feed(
            feed([entry(comment="12 pages, 3 figures", categories=("cs.AI", "math.LO"))])
        )
        record = page.records[0]
        assert record.id == "cs/0101001"
        assert record.primary_category == "cs.AI"
        assert record.categories == ("cs.AI", "math.LO")
        assert record.timestamp == date(2001, 1, 5)
        assert record.page_count == 12
        assert record.title == "A paper"
        assert page.total_results == 1

    def test_version_suffix_stripped(self):
        page = parse_listing_feed(feed([entry(paper_id="math/0212345v17")]))
        assert page.records[0].id == "math/0212345"

    def test_new_style_id(self):
        page = parse_listing_feed(feed([entry(paper_id="2101.00001v2")]))
        assert page.records[0].id == "2101.00001"

    def test_page_count_variants(self):
        for comment, expected in [
            ("1 page", 1),
            ("35 Pages, color figures", 35),
            ("no page info", None),
            ("latex, 10pt", None),
            ("0 pages", None),
            ("007 pages", 7),
            ("9007199254740991 pages", MAX_PAGE_COUNT),
            ("9007199254740992 pages", None),
            ("10000000000000000 pages", None),
            ("1" * 5000 + " pages", None),
        ]:
            page = parse_listing_feed(feed([entry(comment=comment)]))
            assert page.records[0].page_count == expected, comment

    def test_timezone_offset_date(self):
        page = parse_listing_feed(
            feed([entry(published="2001-01-06T23:30:00-05:00")])
        )
        assert page.records[0].timestamp == date(2001, 1, 6)

    def test_missing_primary_falls_back_to_first_category(self):
        page = parse_listing_feed(
            feed([entry(primary=None, categories=("math.CO",))])
        )
        assert page.records[0].primary_category == "math.CO"

    def test_malformed_xml(self):
        with pytest.raises(FeedParseError):
            parse_listing_feed(b"<feed><unclosed>")

    def test_entry_without_published_date(self):
        bad = feed(["<entry><id>http://arxiv.org/abs/x/1</id></entry>"])
        with pytest.raises(FeedParseError):
            parse_listing_feed(bad)

    def test_empty_feed(self):
        page = parse_listing_feed(feed([], total=0))
        assert page.records == ()
        assert page.total_results == 0


class TestQueryListing:
    def fake_fetch(self, responses):
        calls = []

        def fetch(url, params=None, timeout=30.0):
            calls.append((url, dict(params or {})))
            return responses[len(calls) - 1]

        fetch.calls = calls
        return fetch

    def test_query_and_filtering(self, monkeypatch):
        monkeypatch.setenv("TEXCORPUS_API_BASE", "http://api")
        body = feed(
            [
                entry(paper_id="cs/1v1", primary="cs.AI"),
                entry(paper_id="math/2v1", primary="math.CO", categories=("cs.AI",)),
            ]
        )
        fetch = self.fake_fetch([(200, {}, body)])
        records, page = query_listing("cs.AI", fetch=fetch)
        assert [r.id for r in records] == ["cs/1"]
        assert len(page.records) == 2
        url, params = fetch.calls[0]
        assert url == "http://api"
        assert params["search_query"] == "cat:cs.AI"
        assert params["sortBy"] == "submittedDate"

    def test_date_window_in_query(self):
        fetch = self.fake_fetch([(200, {}, feed([]))])
        query_listing(
            "cs.AI",
            from_date=date(2000, 1, 1),
            to_date=date(2002, 12, 31),
            fetch=fetch,
        )
        query = fetch.calls[0][1]["search_query"]
        assert "submittedDate:[200001010000 TO 200212312359]" in query

    def test_http_error(self):
        fetch = self.fake_fetch([(404, {}, b"")])
        with pytest.raises(HttpError):
            query_listing("cs.AI", fetch=fetch)

    def test_rate_limit_carries_retry_after(self):
        fetch = self.fake_fetch([(503, {"Retry-After": "7"}, b"")])
        with pytest.raises(RateLimited) as err:
            query_listing("cs.AI", fetch=fetch)
        assert err.value.retry_after == 7.0


class TestHarvestListing:
    def test_paginates_and_dedupes(self):
        pages = [
            (200, {}, feed([entry(paper_id="cs/1v1"), entry(paper_id="cs/2v1")],
                           total=4, start=0, per_page=2)),
            (200, {}, feed([entry(paper_id="cs/2v2"), entry(paper_id="cs/3v1")],
                           total=4, start=2, per_page=2)),
        ]
        calls = []

        def fetch(url, params=None, timeout=30.0):
            calls.append(params["start"])
            return pages[len(calls) - 1]

        naps = []
        records = harvest_listing(
            "cs.AI", 10, page_size=2, fetch=fetch, delay=0.5, sleep=naps.append
        )
        assert [r.id for r in records] == ["cs/1", "cs/2", "cs/3"]
        assert calls == [0, 2]
        assert naps == [0.5]  # one inter-page pause

    def test_stops_at_max_records(self):
        def fetch(url, params=None, timeout=30.0):
            return (
                200,
                {},
                feed([entry(paper_id="cs/1v1"), entry(paper_id="cs/2v1")], total=100),
            )

        records = harvest_listing("cs.AI", 2, fetch=fetch, delay=0, sleep=lambda s: None)
        assert len(records) == 2

    def test_retries_on_rate_limit(self):
        attempts = []

        def fetch(url, params=None, timeout=30.0):
            attempts.append(1)
            if len(attempts) < 3:
                return (503, {}, b"")
            return (200, {}, feed([entry()]))

        naps = []
        records = harvest_listing(
            "cs.AI", 1, fetch=fetch, delay=1.0, sleep=naps.append
        )
        assert len(records) == 1
        assert len(attempts) == 3
        assert naps == [2.0, 4.0]  # exponential backoff

    @pytest.mark.parametrize("header", ["nan", "-5", "inf", "-inf", "1e20", "soon"])
    def test_unusable_retry_after_backs_off(self, header):
        attempts = []

        def fetch(url, params=None, timeout=30.0):
            attempts.append(1)
            if len(attempts) < 3:
                return (429, {"Retry-After": header}, b"")
            return (200, {}, feed([entry()]))

        naps = []
        records = harvest_listing("cs.AI", 1, fetch=fetch, delay=1.0, sleep=naps.append)
        assert len(records) == 1
        assert naps == [2.0, 4.0]

    def test_unusable_retry_after_ends_in_rate_limited(self):
        def fetch(url, params=None, timeout=30.0):
            return (503, {"Retry-After": "nan"}, b"")

        naps = []
        with pytest.raises(RateLimited) as err:
            harvest_listing("cs.AI", 1, fetch=fetch, delay=1.0, sleep=naps.append)
        assert err.value.retry_after is None
        assert naps == [2.0, 4.0, 8.0]

    def test_gives_up_after_max_retries(self):
        attempts = []

        def fetch(url, params=None, timeout=30.0):
            attempts.append(1)
            return (429, {}, b"")

        with pytest.raises(RateLimited):
            harvest_listing("cs.AI", 1, fetch=fetch, delay=0.0, sleep=lambda s: None)
        assert len(attempts) == 1 + 3

    def test_retries_on_transport_error(self):
        attempts = []

        def fetch(url, params=None, timeout=30.0):
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionResetError("connection reset")
            return (200, {}, feed([entry()]))

        naps = []
        records = harvest_listing("cs.AI", 1, fetch=fetch, delay=1.0, sleep=naps.append)
        assert len(records) == 1
        assert len(attempts) == 3
        assert naps == [2.0, 4.0]  # the rate-limit backoff

    def test_gives_up_after_max_transport_errors(self):
        attempts = []

        def fetch(url, params=None, timeout=30.0):
            attempts.append(1)
            raise TimeoutError("read timed out")

        with pytest.raises(TransportError):
            harvest_listing("cs.AI", 1, fetch=fetch, delay=0.0, sleep=lambda s: None)
        assert len(attempts) == 1 + 3


UNAVAILABLE = (503, {}, b"")
MALFORMED = (200, {}, b"<feed><unclosed")


def listing_then(second, downloads):
    """A fetch serving a listing of two papers whose first page, one paper,
    is read and whose second answers ``second`` every time. ``fetch.starts``
    records each listing request's offset."""
    first = feed([entry(paper_id="cs/1v1")], total=2, start=0, per_page=1)
    serve_download = serve(b"", downloads)
    starts = []

    def fetch(url, params=None, timeout=30.0):
        if params is None:
            return serve_download(url)
        starts.append(params["start"])
        return (200, {}, first) if params["start"] == 0 else second

    fetch.starts = starts
    return fetch


class TestListingPageThatStaysUnavailable:
    def test_papers_listed_before_it_are_kept(self):
        fetch = listing_then(UNAVAILABLE, {})
        diagnostics = []
        records = harvest_listing(
            "cs.AI", 2, page_size=1, fetch=fetch, delay=0, sleep=lambda s: None,
            diagnostics=diagnostics,
        )
        assert [r.id for r in records] == ["cs/1"]
        assert fetch.starts == [0, 1, 1, 1, 1]
        [diagnostic] = diagnostics
        assert diagnostic.stage == "harvest"
        assert diagnostic.message.startswith("cs.AI: listing page at offset 1 failed: HTTP 503")

    def test_harvest_stores_them_and_exits_0(self, tmp_path, capsys, monkeypatch):
        fetch = listing_then(UNAVAILABLE, {"cs/1": [source()]})
        monkeypatch.setattr(harvest, "http_fetch", fetch)
        argv = ["harvest", "--category", "cs.AI", "--max", "2", "--page-size", "1"]
        assert main([*argv, "--delay", "0", "--store", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert (record["listed"], record["stored"], record["failed"]) == (1, 1, 0)
        [line] = err.splitlines()
        assert "listing page at offset 1 failed" in line
        assert CorpusStore(tmp_path).ids() == ["cs_1"]
        assert fetch.starts == [0, 1, 1, 1, 1]

    def test_a_malformed_page_keeps_them_too(self, tmp_path, capsys, monkeypatch):
        fetch = listing_then(MALFORMED, {"cs/1": [source()]})
        monkeypatch.setattr(harvest, "http_fetch", fetch)
        argv = ["harvest", "--category", "cs.AI", "--max", "2", "--page-size", "1"]
        assert main([*argv, "--delay", "0", "--store", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert (record["listed"], record["stored"], record["failed"]) == (1, 1, 0)
        [line] = err.splitlines()
        assert "listing page at offset 1 failed: feed is not well-formed XML" in line
        assert CorpusStore(tmp_path).ids() == ["cs_1"]
        assert fetch.starts == [0, 1]  # a malformed page is not retried

    def test_a_first_page_that_still_fails_exits_2(self, tmp_path, capsys, monkeypatch):
        starts = []

        def fetch(url, params=None, timeout=30.0):
            starts.append(params["start"])
            return UNAVAILABLE

        monkeypatch.setattr(harvest, "http_fetch", fetch)
        argv = ["harvest", "--category", "cs.AI", "--max", "2", "--page-size", "1"]
        assert main([*argv, "--delay", "0", "--store", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "record": "error",
            "message": f"HTTP 503 for {harvest.api_base()}",
        }
        assert starts == [0] * (MAX_RETRIES + 1)
        assert CorpusStore(tmp_path).ids() == []


class TestClassifyPayload:
    def test_content_type_wins(self):
        assert classify_payload(b"anything", "application/pdf") is FileType.PDF
        assert (
            classify_payload(b"x", "application/x-eprint-tar; charset=binary")
            is FileType.EPRINT_TAR
        )

    def test_magic_pdf_and_postscript(self):
        assert classify_payload(b"%PDF-1.5 ...") is FileType.PDF
        assert classify_payload(b"%!PS-Adobe-3.0") is FileType.POSTSCRIPT

    def test_gzip_tar_vs_single(self):
        archive = tar_gz([("main.tex", b"hello")])
        assert classify_payload(archive) is FileType.EPRINT_TAR
        single = gzip.compress(b"\\documentclass{article}")
        assert classify_payload(single) is FileType.EPRINT

    def test_plain_tex_text(self):
        assert (
            classify_payload(b"\\documentclass{article}\\begin{document}")
            is FileType.EPRINT
        )

    def test_html(self):
        assert classify_payload(b"<!DOCTYPE html><html>") is FileType.HTML

    def test_docx_zip(self):
        payload = b"PK\x03\x04" + b"junk [Content_Types].xml junk"
        assert classify_payload(payload) is FileType.DOCX

    def test_plain_zip_unknown(self):
        with pytest.raises(UnknownPayload):
            classify_payload(b"PK\x03\x04 nothing else")

    def test_garbage_unknown(self):
        with pytest.raises(UnknownPayload):
            classify_payload(b"\x00\x01\x02\x03 garbage")


class TestUnpack:
    def test_tar_preserves_order_and_paths(self):
        payload = tar_gz(
            [("main.tex", b"\\documentclass{article}"), ("figs/a.eps", b"%!eps")]
        )
        doc = unpack(
            payload,
            FileType.EPRINT_TAR,
            doc_id="cs/1",
            category="cs.AI",
            timestamp=date(2001, 1, 5),
            page_count=9,
        )
        assert [p for p, _ in doc.files] == ["main.tex", "figs/a.eps"]
        assert doc.multi_file and doc.category == "cs.AI" and doc.page_count == 9

    def test_single_gzipped_file(self):
        doc = unpack(
            gzip.compress(b"\\documentclass{article}"),
            FileType.EPRINT,
            doc_id="cs/2",
        )
        assert doc.files == [("main.tex", b"\\documentclass{article}")]

    def test_uncompressed_single_file(self):
        doc = unpack(b"\\documentclass{book}", FileType.EPRINT, doc_id="cs/3")
        assert doc.files[0][1] == b"\\documentclass{book}"

    @pytest.mark.parametrize(
        "name",
        ["/etc/passwd", "../../escape.tex", "a/../../b.tex", "..", "x/../../../y"],
    )
    def test_traversal_names_rejected(self, name):
        payload = tar_gz([(name, b"evil")])
        with pytest.raises(PathTraversal, match="^x: "):
            unpack(payload, FileType.EPRINT_TAR, doc_id="x")

    def test_inner_dotdot_that_stays_inside_is_fine(self):
        payload = tar_gz([("a/../b.tex", b"ok")])
        doc = unpack(payload, FileType.EPRINT_TAR, doc_id="x")
        assert doc.files == [("b.tex", b"ok")]

    def test_symlink_rejected(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            info = tarfile.TarInfo("evil.tex")
            info.type = tarfile.SYMTYPE
            info.linkname = "/etc/passwd"
            tf.addfile(info)
        with pytest.raises(PathTraversal):
            unpack(gzip.compress(buf.getvalue()), FileType.EPRINT_TAR, doc_id="x")

    def test_hardlink_rejected(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            info = tarfile.TarInfo("evil.tex")
            info.type = tarfile.LNKTYPE
            info.linkname = "target"
            tf.addfile(info)
        with pytest.raises(PathTraversal):
            unpack(gzip.compress(buf.getvalue()), FileType.EPRINT_TAR, doc_id="x")

    def test_member_size_cap(self):
        payload = tar_gz([("big.tex", b"A" * 50_000)])
        with pytest.raises(SizeCapExceeded):
            unpack(payload, FileType.EPRINT_TAR, doc_id="x", size_cap=10_000)

    def test_gzip_bomb_cap(self):
        bomb = gzip.compress(b"\x00" * 1_000_000)
        with pytest.raises(SizeCapExceeded):
            unpack(bomb, FileType.EPRINT, doc_id="x", size_cap=10_000)

    def test_gzip_of_exactly_the_cap_is_accepted(self):
        doc = unpack(
            gzip.compress(b"A" * 10_000), FileType.EPRINT, doc_id="x", size_cap=10_000
        )
        assert doc.files == [("main.tex", b"A" * 10_000)]

    def test_gzip_one_byte_over_the_cap_is_rejected(self):
        payload = gzip.compress(b"A" * 10_001)
        with pytest.raises(SizeCapExceeded, match="^x: "):
            unpack(payload, FileType.EPRINT, doc_id="x", size_cap=10_000)

    def test_bytes_after_the_gzip_member_are_ignored(self):
        payload = gzip.compress(b"\\documentclass{article}") + b"trailing junk"
        doc = unpack(payload, FileType.EPRINT, doc_id="x", size_cap=23)
        assert doc.files == [("main.tex", b"\\documentclass{article}")]

    def test_corrupt_gzip(self):
        with pytest.raises(ArchiveCorrupt):
            unpack(b"\x1f\x8b garbage", FileType.EPRINT_TAR, doc_id="x")

    def test_mislabeled_tar_falls_back_to_single_file(self):
        payload = gzip.compress(b"\\documentclass{article} just one file")
        diagnostics = []
        doc = unpack(
            payload, FileType.EPRINT_TAR, doc_id="x", diagnostics=diagnostics
        )
        assert doc.files[0][0] == "main.tex"
        assert any("single file" in d.message for d in diagnostics)

    def test_unsupported_types(self):
        for file_type in (FileType.PDF, FileType.POSTSCRIPT, FileType.HTML, FileType.DOCX):
            with pytest.raises(UnsupportedPayload):
                unpack(b"x", file_type, doc_id="x")

    def test_directories_skipped_empty_archive_rejected(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            info = tarfile.TarInfo("subdir")
            info.type = tarfile.DIRTYPE
            tf.addfile(info)
        with pytest.raises(ArchiveCorrupt):
            unpack(gzip.compress(buf.getvalue()), FileType.EPRINT_TAR, doc_id="x")


class TestCorpusStore:
    def doc(self, doc_id="cs/0101001"):
        return SourceDocument(
            id=doc_id,
            files=[("main.tex", b"\\documentclass{article}"), ("sub/b.tex", b"b")],
            category="cs.AI",
            timestamp=date(2001, 1, 5),
            page_count=12,
        )

    def test_round_trip(self, tmp_path):
        store = CorpusStore(tmp_path)
        assert store.save(self.doc()) is True
        loaded = store.load("cs/0101001")
        assert loaded.id == "cs/0101001"
        assert loaded.files == self.doc().files
        assert loaded.category == "cs.AI"
        assert loaded.timestamp == date(2001, 1, 5)
        assert loaded.page_count == 12

    def test_idempotent_save(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.save(self.doc())
        assert store.save(self.doc()) is False

    def test_ids_sorted(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.save(self.doc("b/2"))
        store.save(self.doc("a/1"))
        assert store.ids() == ["a_1", "b_2"]

    def test_load_checks_schema(self, tmp_path):
        store = CorpusStore(tmp_path)
        bad = tmp_path / "x"
        bad.mkdir()
        (bad / "meta.json").write_text(json.dumps({"schema": "other"}))
        with pytest.raises(CorruptMeta):
            store.load("x")

    def test_save_rejects_a_path_outside_the_entry(self, tmp_path):
        doc = SourceDocument(id="cs/9", files=[("../../x.tex", b"x")])
        with pytest.raises(PathTraversal, match="^cs/9: member path escapes root"):
            CorpusStore(tmp_path).save(doc)
        assert not (tmp_path.parent / "x.tex").exists()

    def test_reading_never_creates_the_root(self, tmp_path):
        root = tmp_path / "store"
        assert CorpusStore(root).ids() == []
        assert not root.exists()
        CorpusStore(root).save(self.doc())
        assert CorpusStore(root).ids() == ["cs_0101001"]

    def test_failed_metadata_write_leaves_no_entry(self, tmp_path, monkeypatch):
        real_write_text = Path.write_text

        def half_then_fail(path, text, *args, **kwargs):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        store = CorpusStore(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", half_then_fail)
            with pytest.raises(OSError):
                store.save(self.doc())
        assert not store.contains("cs/0101001")
        assert store.ids() == []

        assert store.save(self.doc()) is True
        assert store.load("cs/0101001").files == self.doc().files
        assert sorted(p.name for p in (tmp_path / "cs_0101001").iterdir()) == [
            "files",
            "meta.json",
        ]


class TestMalformedMeta:
    """Each malformed meta.json fails its own document, not the extract run."""

    @staticmethod
    def store(root):
        store = CorpusStore(root)
        for n in range(3):
            store.save(
                SourceDocument(
                    id=f"cs/{n}",
                    files=[("main.tex", f"\\documentclass{{article}} paper{n}".encode())],
                    category="cs.AI",
                    timestamp=date(2001, 1, n + 1),
                    page_count=3,
                )
            )
        return store

    def extract_with_meta(self, tmp_path, capsys, meta_text):
        self.store(tmp_path / "store")
        (tmp_path / "store" / "cs_1" / "meta.json").write_text(meta_text, encoding="utf-8")
        out, words = tmp_path / "f.ndjson", tmp_path / "w.ndjson"
        argv = ["extract", "--corpus", str(tmp_path / "store"), "--out", str(out)]
        code = main([*argv, "--words", str(words)])
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()[1:]]
        return code, ids, capsys.readouterr().err, words.read_text()

    @pytest.mark.parametrize(
        "change",
        [
            {"files": 5},
            {"files": [5]},
            {"files": None},
            {"id": 7},
            {"page_count": 0},
            {"page_count": MAX_PAGE_COUNT + 1},
            {"page_count": "3"},
            {"page_count": True},
            {"timestamp": "2012-13-45"},
            {"timestamp": 2012},
            # read as dates by Python 3.11 and later only
            {"timestamp": "20120102"},
            {"timestamp": "2012-W01-1"},
            {"main_file": "nope.tex"},
            {"category": ["cs.AI"]},
            {"files": ["."]},
        ],
        ids=repr,
    )
    def test_bad_field(self, tmp_path, capsys, change):
        meta = {
            "schema": "texcorpus.corpus.v1",
            "id": "cs/1",
            "category": "cs.AI",
            "timestamp": "2001-01-02",
            "page_count": 3,
            "main_file": None,
            "files": ["main.tex"],
            **change,
        }
        code, ids, err, _ = self.extract_with_meta(tmp_path, capsys, json.dumps(meta))
        assert (code, ids) == (0, ["cs/0", "cs/2"])
        assert "[extract] cs_1: cs_1: " in err

    @pytest.mark.parametrize(
        "text", ["[" * 1000 + "]" * 1000, "[1]", "{", ""], ids=["deep", "list", "cut", "empty"]
    )
    def test_bad_json(self, tmp_path, capsys, text):
        code, ids, err, _ = self.extract_with_meta(tmp_path, capsys, text)
        assert (code, ids) == (0, ["cs/0", "cs/2"])
        assert "[extract] cs_1: cs_1: " in err

    def test_listed_path_outside_the_entry_is_not_read(self, tmp_path, capsys):
        (tmp_path / "secret.tex").write_text("classified", encoding="utf-8")
        meta = {"schema": "texcorpus.corpus.v1", "id": "cs/1", "files": ["../../../secret.tex"]}
        code, ids, err, words = self.extract_with_meta(tmp_path, capsys, json.dumps(meta))
        assert (code, ids) == (0, ["cs/0", "cs/2"])
        assert "[extract] cs_1: cs_1: member path escapes root: '../../../secret.tex'" in err
        assert "classified" not in words

    def test_load_raises_corrupt_meta(self, tmp_path):
        store = self.store(tmp_path)
        (tmp_path / "cs_1" / "meta.json").write_text('{"schema": "texcorpus.corpus.v1"}')
        with pytest.raises(CorruptMeta, match="^cs_1: id is not a str"):
            store.load("cs/1")


class TestHarvestIntoStore:
    def test_end_to_end_with_fake_fetch(self, tmp_path):
        listing = feed(
            [
                entry(paper_id="cs/1v1", comment="5 pages"),
                entry(paper_id="cs/2v1"),
                entry(paper_id="cs/3v1"),
            ]
        )
        payloads = {
            "cs/1": (
                200,
                {"Content-Type": "application/x-eprint-tar"},
                tar_gz([("main.tex", b"\\documentclass{article} one")]),
            ),
            "cs/2": (200, {"Content-Type": "application/pdf"}, b"%PDF-1.4"),
            "cs/3": (404, {}, b""),
        }

        def fetch(url, params=None, timeout=30.0):
            if params is not None:
                return (200, {}, listing)
            return payloads[url.rsplit("/", 2)[-2] + "/" + url.rsplit("/", 1)[-1]]

        store = CorpusStore(tmp_path)
        report = harvest_into_store(
            "cs.AI", 3, store, fetch=fetch, delay=0, sleep=lambda s: None
        )
        assert report.listed == 3
        assert report.stored == 1
        assert report.unsupported == 1
        assert report.failed == 1
        doc = store.load("cs/1")
        assert doc.page_count == 5
        assert doc.category == "cs.AI"

        # second run: already present, nothing re-fetched
        report2 = harvest_into_store(
            "cs.AI", 1, store, fetch=fetch, delay=0, sleep=lambda s: None
        )
        assert report2.already_present == 1
        assert report2.stored == 0

    def test_transport_error_on_a_paper_is_counted_not_raised(self, tmp_path):
        listing = feed([entry(paper_id="cs/1v1"), entry(paper_id="cs/2v1")])
        source = tar_gz([("main.tex", b"\\documentclass{article} two")])

        def fetch(url, params=None, timeout=30.0):
            if params is not None:
                return (200, {}, listing)
            if url.endswith("/cs/1"):
                raise ConnectionResetError(f"connection reset while fetching {url}")
            return (200, {"Content-Type": "application/x-eprint-tar"}, source)

        store = CorpusStore(tmp_path)
        report = harvest_into_store(
            "cs.AI", 2, store, fetch=fetch, delay=0, sleep=lambda s: None
        )
        assert (report.listed, report.stored, report.failed) == (2, 1, 1)
        assert store.ids() == ["cs_2"]
        [diagnostic] = report.diagnostics
        assert diagnostic.stage == "harvest"
        assert "transport error" in diagnostic.message
        assert "/cs/1" in diagnostic.message

    @pytest.mark.parametrize(
        "fault, backoff",
        [
            ((503, {"Retry-After": "0"}, b""), 0.0),
            ((503, {"RETRY-AFTER": "5"}, b""), 5.0),
            ((429, {}, b""), 1.0),
            (ConnectionResetError("connection reset"), 1.0),
        ],
        ids=["503-retry-after-0", "503-upper-case-retry-after", "429", "connection-reset"],
    )
    def test_one_shot_download_fault_is_retried(self, tmp_path, fault, backoff):
        fetch = serve(feed([entry(paper_id="cs/1v1")]), {"cs/1": [fault, source()]})
        naps = []
        store = CorpusStore(tmp_path)
        report = harvest_into_store(
            "cs.AI", 1, store, fetch=fetch, delay=0.5, sleep=naps.append
        )
        assert (report.stored, report.failed) == (1, 0)
        assert store.ids() == ["cs_1"]
        assert fetch.fetches == ["cs/1", "cs/1"]
        assert naps == [0.5, backoff]  # the pause before the download, the retry's
        assert report.diagnostics == []

    def test_download_that_stays_unavailable_fails_after_the_last_retry(self, tmp_path):
        fetch = serve(feed([entry(paper_id="cs/1v1")]), {"cs/1": [(503, {}, b"")]})
        naps = []
        report = harvest_into_store(
            "cs.AI", 1, CorpusStore(tmp_path), fetch=fetch, delay=0.5, sleep=naps.append
        )
        assert (report.stored, report.failed) == (0, 1)
        assert fetch.fetches == ["cs/1"] * (MAX_RETRIES + 1)
        assert naps == [0.5, 1.0, 2.0, 4.0]  # the pause, then 2d, 4d and 8d
        [diagnostic] = report.diagnostics
        assert diagnostic.message.startswith("HTTP 503 for ")

    def test_not_found_is_not_retried(self, tmp_path):
        fetch = serve(feed([entry(paper_id="cs/1v1")]), {"cs/1": [(404, {}, b"")]})
        naps = []
        report = harvest_into_store(
            "cs.AI", 1, CorpusStore(tmp_path), fetch=fetch, delay=0.5, sleep=naps.append
        )
        assert (report.stored, report.failed) == (0, 1)
        assert fetch.fetches == ["cs/1"]
        assert naps == [0.5]

    def test_content_type_name_is_case_insensitive(self, tmp_path):
        _, _, archive = source()
        pdf = (200, {"Content-type": "application/pdf"}, archive)
        fetch = serve(feed([entry(paper_id="cs/1v1")]), {"cs/1": [pdf]})
        store = CorpusStore(tmp_path)
        report = harvest_into_store(
            "cs.AI", 1, store, fetch=fetch, delay=0, sleep=lambda s: None
        )
        assert (report.stored, report.unsupported, report.failed) == (0, 1, 0)
        assert store.ids() == []


UNSTORABLE = {
    # the file ``a`` stands where the directory ``a/`` must go
    "file-and-directory": source([("a", b"x"), ("a/main.tex", b"\\documentclass{article}")]),
    "name-too-long": source([("x" * 296 + ".tex", b"\\documentclass{article}")]),
}


# writable, and a tree that would collide with what the file-and-directory
# payload wrote before it failed
STORABLE = [("a/main.tex", b"\\documentclass{article}")]


class TestStoreWriteFailure:
    """A paper the store cannot write is counted as failed and leaves
    nothing in the store; the next is stored."""

    LISTING = feed([entry(paper_id="cs/1v1"), entry(paper_id="cs/2v1")])

    def fetch(self, case):
        return serve(self.LISTING, {"cs/1": [UNSTORABLE[case]], "cs/2": [source()]})

    @pytest.mark.parametrize("case", sorted(UNSTORABLE))
    def test_harvest_into_store_goes_on(self, tmp_path, case):
        store = CorpusStore(tmp_path)
        report = harvest_into_store(
            "cs.AI", 2, store, fetch=self.fetch(case), delay=0, sleep=lambda s: None
        )
        assert (report.listed, report.stored, report.failed) == (2, 1, 1)
        assert store.ids() == ["cs_2"]
        assert not (tmp_path / "cs_1").exists()
        [diagnostic] = report.diagnostics
        assert diagnostic.stage == "harvest"
        assert diagnostic.message.startswith("cs/1: could not store: ")

        # a later harvest of a payload the store can write stores it
        fetch = serve(self.LISTING, {"cs/1": [source(STORABLE)], "cs/2": [source()]})
        again = harvest_into_store("cs.AI", 2, store, fetch=fetch, delay=0, sleep=lambda s: None)
        assert (again.stored, again.already_present, again.failed) == (1, 1, 0)
        assert store.ids() == ["cs_1", "cs_2"]
        assert store.load("cs/1").files == STORABLE

    def test_failed_save_keeps_a_directory_it_did_not_make(self, tmp_path):
        (tmp_path / "cs_1").mkdir()
        (tmp_path / "cs_1" / "kept").write_bytes(b"")
        doc = SourceDocument(id="cs/1", files=[("a", b"x"), ("a/main.tex", b"y")])
        with pytest.raises(FileExistsError):
            CorpusStore(tmp_path).save(doc)
        assert (tmp_path / "cs_1" / "kept").exists()
        assert not (tmp_path / "cs_1" / "meta.json").exists()

    @pytest.mark.parametrize("case", sorted(UNSTORABLE))
    def test_harvest_command_goes_on(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.setattr(harvest, "http_fetch", self.fetch(case))
        argv = ["harvest", "--category", "cs.AI", "--max", "2", "--delay", "0"]
        assert main([*argv, "--store", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert (record["stored"], record["failed"]) == (1, 1)
        assert "cs/1: could not store: " in err
        assert CorpusStore(tmp_path).ids() == ["cs_2"]
        assert not (tmp_path / "cs_1").exists()

        fetch = serve(self.LISTING, {"cs/1": [source(STORABLE)], "cs/2": [source()]})
        monkeypatch.setattr(harvest, "http_fetch", fetch)
        assert main([*argv, "--store", str(tmp_path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["stored"], record["failed"]) == (1, 0)
        assert CorpusStore(tmp_path).ids() == ["cs_1", "cs_2"]


def test_harvest_reads_no_delay_from_the_environment(tmp_path, capsys, monkeypatch):
    # The delay has one source, --delay; an environment variable once set it
    # too, unchecked. Its name is split so that no search finds it in use.
    monkeypatch.setenv("TEXCORPUS_" + "DELAY", "abc")
    monkeypatch.setattr(harvest, "http_fetch", serve(feed([]), {}))
    argv = ["harvest", "--category", "cs.AI", "--max", "1"]
    assert main([*argv, "--store", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["listed"] == 0


# 5,000,000 zero bytes, gzipped to under 5 KB
BOMB = gzip.compress(bytes(5_000_000))

ROUTES = {
    "/ok": (200, {"Content-Type": "application/x-eprint-tar"}, b"payload"),
    "/missing": (404, {}, b"not here"),
    "/busy": (503, {"Retry-After": "7"}, b""),
    "/bomb": (200, {"Content-Encoding": "gzip"}, BOMB),
    # the connection closes 90 bytes short of the promised body
    "/truncated": (200, {"Content-Length": "100"}, b"0123456789"),
    # a status of None sends the body raw, with no status line or headers
    "/garbled": (None, {}, b"garbage\r\n"),
    "/api/query": (200, {}, feed([entry(paper_id="cs/1v1"), entry(paper_id="cs/2v1")])),
    "/e-print/cs/1": (200, {"Content-Length": "100"}, b"0123456789"),
    "/e-print/cs/2": source(),
}


class RouteHandler(BaseHTTPRequestHandler):
    """Answers each path in ROUTES and records what each request sent."""

    def do_GET(self):
        path, _, query = self.path.partition("?")
        self.server.seen.append(
            (query, self.headers["User-Agent"], self.headers["Accept-Encoding"])
        )
        status, headers, body = ROUTES[path]
        if status is not None:
            self.send_response(status)
            for name, value in {"Content-Length": len(body), **headers}.items():
                self.send_header(name, str(value))
            self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass  # keep request lines off the test output


@pytest.fixture
def server():
    """A ThreadingHTTPServer on a free loopback port, serving ROUTES."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), RouteHandler)
    httpd.seen = []
    # a short poll interval, so shutdown() does not wait half a second
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def url_of(httpd, path):
    host, port = httpd.server_address[:2]
    return f"http://{host}:{port}{path}"


class TestHttpFetch:
    def test_ok_returns_body_and_headers(self, server):
        params = {"search_query": "cat:cs.AI AND x", "start": 0}
        status, headers, body = http_fetch(url_of(server, "/ok"), params=params)
        assert (status, body) == (200, b"payload")
        assert headers["Content-Type"] == "application/x-eprint-tar"
        # http.client's own Accept-Encoding, which asks for no content coding
        assert server.seen == [(urlencode(params), harvest.USER_AGENT, "identity")]

    def test_not_found_is_http_error(self, server):
        with pytest.raises(HttpError) as err:
            harvest._request(url_of(server, "/missing"), None)
        assert type(err.value) is HttpError
        assert err.value.status == 404

    def test_unavailable_is_rate_limited_with_retry_after(self, server):
        with pytest.raises(RateLimited) as err:
            harvest._request(url_of(server, "/busy"), None)
        assert (err.value.status, err.value.retry_after) == (503, 7.0)

    def test_gzip_encoded_body_arrives_as_sent(self, server):
        status, headers, body = http_fetch(url_of(server, "/bomb"))
        assert status == 200
        assert headers["Content-Encoding"] == "gzip"
        assert body == BOMB

    @pytest.mark.parametrize(
        "path, fault",
        [("/truncated", "IncompleteRead"), ("/garbled", "BadStatusLine")],
    )
    def test_incomplete_response_is_transport_error(self, server, path, fault):
        # http.client raises these as HTTPException, which is no OSError
        with pytest.raises(TransportError, match=fault):
            harvest._request(url_of(server, path), None)

    def test_harvest_counts_a_truncated_download_as_failed(
        self, server, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TEXCORPUS_API_BASE", url_of(server, "/api/query"))
        monkeypatch.setenv("TEXCORPUS_SOURCE_BASE", url_of(server, "/e-print"))
        argv = ["harvest", "--category", "cs.AI", "--max", "2", "--delay", "0"]
        assert main([*argv, "--store", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["listed"], report["stored"], report["failed"]) == (2, 1, 1)
        # one listing request, then cs/1 on every attempt, then cs/2 once
        downloads = [seen for seen in server.seen if not seen[0]]
        assert len(downloads) == MAX_RETRIES + 2
        assert CorpusStore(tmp_path).contains("cs/2")
        assert not CorpusStore(tmp_path).contains("cs/1")

    def test_base_without_a_scheme_ends_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TEXCORPUS_API_BASE", "export.arxiv.org/api/query")
        argv = ["harvest", "--category", "cs.AI", "--max", "1", "--delay", "0"]
        assert main([*argv, "--store", str(tmp_path)]) == 1
        assert "unknown url type" in capsys.readouterr().err

    def test_listing_query_joins_a_base_query_with_ampersand(self, server):
        http_fetch(url_of(server, "/ok?key=1"), params={"start": 0})
        assert server.seen[0][0] == "key=1&start=0"

    def test_server_that_never_answers_is_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as silent:
            host, port = silent.getsockname()
            fetch = partial(http_fetch, timeout=0.2)
            with pytest.raises(TransportError, match="timed out"):
                harvest._request(f"http://{host}:{port}/", fetch)
