"""Outside-in tracing: spans and counters recorded around calls into each
sketchdec module, without changing any file of the library.

Every boundary is wrapped from the outside:

* ``lm``          -- a forwarding proxy around the backend times every public
                     method and forwards every other attribute;
* ``constraints`` -- ``compute_mask`` and ``advance`` are replaced in every
                     loaded ``sketchdec`` module that imported them, and
                     ``MaskState.start`` on its class;
* ``sketch``      -- the chunk source's ``pending`` method, per source object;
* ``scoring``     -- ``Hypothesis.__init__`` (counted) and
                     ``Hypothesis.rank_key`` (timed);
* ``remote``      -- a ``requests.Session`` subclass handed to
                     ``RemoteCompletionsLM``.

Spans stay in memory; ``Tracer.dump`` writes them out once the run is over.
"""
from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter
from time import perf_counter

import requests

from mock_service import SERVER_TIME_HEADER
from sketchdec import constraints, scoring


class Tracer:
    """Spans (name, start, end, parent span, request id) and counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.request_id = 0
        self._stack: list[int] = []
        self._last_request: tuple[int, bool] | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- aggregation -------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Total seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_time(self, name: str) -> float:
        """Seconds inside spans called ``name`` not covered by their children."""
        total = 0.0
        for span_name, start, end, _, _ in self.spans:
            if span_name == name:
                total += end - start
        for span_name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                total -= end - start
        return total

    def dump(self, path) -> None:
        """Write spans and counters as JSON: one row per span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[n], round(a - t0, 9), round(b - t0, 9), p, r]
            for n, a, b, p, r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "request"],
                    "names": names,
                    "counts": dict(self.counts),
                    "spans": rows,
                },
                f,
                separators=(",", ":"),
            )

    # -- remote bookkeeping ------------------------------------------------

    def note_request(self, failed: bool) -> None:
        """Count a request; one that follows a failure in the same backend
        call is a retry."""
        parent = self._stack[-1] if self._stack else -1
        if self._last_request == (parent, True):
            self.counts["remote.retries"] += 1
        self._last_request = (parent, failed)


class BackendProxy:
    """Forwards every attribute to the wrapped backend.

    Public methods come back timed as ``lm.<method>`` spans, so a backend
    method added later is counted without a change here.  The prefix
    tokens a call conditions on are counted for ``next_distribution`` and
    ``score_forced``.
    """

    def __init__(self, inner, tracer: Tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        tracer = self._tracer
        span = "lm." + name

        def traced(*args, **kwargs):
            if name == "next_distribution":
                tracer.counts["lm.prefix_tokens"] += len(args[0])
            elif name == "score_forced":
                n, m = len(args[0]), len(args[1])  # prefix, continuation
                tracer.counts["lm.score_forced.tokens"] += m
                tracer.counts["lm.prefix_tokens"] += n * m + m * (m - 1) // 2
            return tracer.call(span, attr, *args, **kwargs)

        return traced

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


class TimingSession(requests.Session):
    """Session that records every HTTP request while ``tracer`` is set."""

    def __init__(self):
        super().__init__()
        self.tracer: Tracer | None = None

    def request(self, method, url, *args, **kwargs):
        tracer = self.tracer
        if tracer is None:
            return super().request(method, url, *args, **kwargs)
        counts = tracer.counts
        counts["remote.requests"] += 1
        try:
            resp = tracer.call(
                "remote.request", super().request, method, url, *args, **kwargs
            )
        except requests.RequestException:
            tracer.note_request(failed=True)
            raise
        failed = resp.status_code >= 500
        tracer.note_request(failed)
        if failed:
            counts["remote.http_5xx"] += 1
        counts["remote.bytes_out"] += len(resp.request.body or b"")
        counts["remote.bytes_in"] += len(resp.content)
        server_s = resp.headers.get(SERVER_TIME_HEADER)
        if server_s is not None:
            counts["remote.server_s"] += float(server_s)
        return resp


def _patch_module_functions(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Replace compute_mask and advance wherever a sketchdec module holds them."""
    compute_mask, advance = constraints.compute_mask, constraints.advance
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("sketchdec"):
            continue
        for attr_name, value in list(vars(module).items()):
            if value is compute_mask:
                wrapped = _counting_mask(tracer, value)
            elif value is advance:
                wrapped = tracer.wrap("constraints.advance", value)
            else:
                continue
            stack.enter_context(_swap(module, attr_name, wrapped))


def _counting_mask(tracer: Tracer, fn):
    def compute_mask(state, vocab):
        mask = tracer.call("constraints.compute_mask", fn, state, vocab)
        tracer.counts["constraints.mask_allowed"] += len(mask)
        tracer.counts["constraints.mask_scanned"] += len(vocab)
        return mask

    return compute_mask


@contextlib.contextmanager
def _swap(owner, name: str, value):
    original = owner.__dict__[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def instrumented(tracer: Tracer, sources=()):
    """Patch the library's module boundaries for the duration of the block.

    ``sources`` are chunk-source objects whose ``pending`` is timed.
    """
    with contextlib.ExitStack() as stack:
        _patch_module_functions(stack, tracer)

        start = constraints.MaskState.__dict__["start"].__func__

        def mask_start(cls, spec):
            return tracer.call("constraints.mask_start", start, cls, spec)

        stack.enter_context(
            _swap(constraints.MaskState, "start", classmethod(mask_start))
        )

        hyp = scoring.Hypothesis
        init = hyp.__init__

        def counting_init(self, *args, **kwargs):
            tracer.counts["scoring.hypotheses"] += 1
            init(self, *args, **kwargs)

        stack.enter_context(_swap(hyp, "__init__", counting_init))
        stack.enter_context(
            _swap(hyp, "rank_key", tracer.wrap("scoring.rank_key", hyp.rank_key))
        )

        for source in sources:
            source.pending = tracer.wrap("sketch.pending", source.pending)
            stack.callback(delattr, source, "pending")
        yield tracer
