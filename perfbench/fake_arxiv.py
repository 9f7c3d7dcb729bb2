"""An in-process stand-in for the arXiv listing API and source server.

It is passed to ``harvest_into_store`` through the ``fetch`` and ``sleep``
hooks, so harvesting runs without a network and without waiting. Faults
planted by the generator (a rate-limited listing page, transient 503s on
downloads, a dropped connection) fire once each, like real transient
failures: a client that retries gets the payload on its next attempt.
"""

from __future__ import annotations

import requests

from corpus import Inputs


class FakeArxiv:
    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.docs = {doc.id: doc for doc in inputs.docs()}
        self.fired: set = set()
        self.listing_retries = 0
        self.sleeps: list[float] = []

    def _fire_once(self, key, planted: set) -> bool:
        if key in planted and key not in self.fired:
            self.fired.add(key)
            return True
        return False

    def fetch(self, url: str, params: dict | None = None, timeout: float = 30.0) -> tuple[int, dict, bytes]:
        faults = self.inputs.faults
        if params is not None:
            category = params["search_query"].split()[0].removeprefix("cat:")
            key = (category, int(params["start"]))
            if self._fire_once(key, faults.rate_limited_pages):
                self.listing_retries += 1
                return 429, {"Retry-After": "0"}, b"rate limited"
            return 200, {"Content-Type": "application/atom+xml"}, self.inputs.pages[key]
        paper_id = url.rsplit("/", 1)[-1]
        if self._fire_once(paper_id, faults.connection_error):
            raise requests.ConnectionError(f"connection reset while fetching {url}")
        if self._fire_once(paper_id, faults.transient_503):
            return 503, {"Retry-After": "0"}, b"service unavailable"
        doc = self.docs.get(paper_id)
        if doc is None:
            return 404, {}, b"not found"
        return 200, {"Content-Type": doc.content_type}, doc.payload

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
