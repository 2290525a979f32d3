"""HTTP backend speaking the OpenAI-style completions protocol.

The service owns the tokenizer, so token identities are discovered at
runtime: every distinct token string returned by the API is interned into
a growing registry, and registry indices are what the decoders see.  Index
0 is reserved for end-of-sequence (rendered as ``eos_text``, empty by
default).  ``detokenize`` leaves end-of-sequence out whatever ``eos_text``
is, so its piece is empty and no prompt contains it; the ``text`` a caller
passes for a prefix must follow the same rule.

Only the top-k log-probabilities are available per step, so each
distribution the backend returns is truncated (``complete=False``) and
decoders handle constrained variables by filtering candidate texts,
falling back to forced-scoring whole constraint members when the filter
comes up empty.

The environment is read once per backend, at construction: the proxies
for its one URL (honouring ``NO_PROXY``) and the CA bundle.  Every request
then carries them explicitly, so ``requests`` does not scan the
environment again on each call, and a later change to the environment is
not seen.  ``.netrc`` is not consulted either, so a matching entry cannot
replace the ``Bearer`` API key with Basic auth.

Each retried attempt is logged at INFO on the ``sketchdec.remote`` logger,
with its cause and backoff delay; the library adds no handler.
"""
from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from typing import Sequence

import requests

from .errors import (
    BackendUnavailable,
    ContextTooLong,
    ForcedScoringUnsupported,
    ForcedTextMisaligned,
)
from .lm import LMBackend, TokenDistribution, ordered_sum

API_KEY_ENV = "SKETCHDEC_API_KEY"

logger = logging.getLogger(__name__)


class TokenRegistry:
    """Interns token strings; index 0 is end-of-sequence.

    Only strings the service returns are interned, so it holds at most the
    service's distinct token strings plus EOS; it is never pruned.  Like a
    ``Vocabulary``, it keeps the backend's tokenizations and the decoders'
    OneOf index over it."""

    def __init__(self, eos_text: str = ""):
        self.eos_index = 0
        self._texts: list[str] = [eos_text]
        self._by_text: dict[str, int] = {eos_text: 0}
        self._tokenized: dict[str, tuple[int, ...]] = {}
        self._one_of: dict = {}
        self._lock = threading.Lock()

    def token_text(self, index: int) -> str:
        return self._texts[index]

    def intern(self, text: str) -> int:
        """The text's index; a miss appends it under the lock, so two
        threads never give one text two indices."""
        idx = self._by_text.get(text)
        if idx is None:
            with self._lock:
                idx = self._by_text.get(text)
                if idx is None:
                    idx = len(self._texts)
                    self._texts.append(text)
                    self._by_text[text] = idx
        return idx

    def __len__(self) -> int:
        return len(self._texts)


class RemoteCompletionsLM(LMBackend):
    """Backend over POST {base_url}/v1/completions.

    Transient failures (connection errors, timeouts, 5xx) are retried with
    exponential backoff and jitter; anything else becomes a typed error.
    The API key is read from the SKETCHDEC_API_KEY environment variable
    when not passed explicitly; requests are sent without an Authorization
    header if neither is present.

    Proxies and the CA bundle are taken from the environment once, when the
    backend is built, and the session's ``trust_env`` is switched off: later
    changes to the environment are not seen, and ``.netrc`` is never read.
    A session shared by several backends is read for each backend's URL as
    its caller left it: the environment counts unless the caller had
    switched ``trust_env`` off before the first backend was built.  Other
    code that sends through a passed-in session afterwards gets no proxies
    or ``.netrc`` from the environment either.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        top_k: int = 20,
        eos_text: str = "",
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.5,
        session: requests.Session | None = None,
    ):
        if not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s!r}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.top_k = top_k
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base = backoff_base
        self.session = session or requests.Session()
        self._url = f"{self.base_url}/v1/completions"
        # the session's trust_env before any backend switched it off, kept on
        # the session, so a session shared by several backends is still
        # read for each one's URL
        self.session.trust_env = vars(self.session).setdefault(
            "_sketchdec_trust_env", self.session.trust_env
        )
        env = self.session.merge_environment_settings(self._url, {}, None, None, None)
        self._send_settings = {k: env[k] for k in ("proxies", "verify", "cert")}
        self.session.trust_env = False
        self.vocab = TokenRegistry(eos_text=eos_text)
        self._rng = random.Random(0x5EED)

    # -- transport -----------------------------------------------------------

    def _post(self, payload: dict) -> dict:
        url = self._url
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        cause = ""
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                delay *= 1.0 + 0.25 * self._rng.random()
                logger.info(
                    "%s attempt %d of %d failed (%s); retrying in %.3f s",
                    url, attempt, self.retries + 1, cause, delay,
                )
                time.sleep(delay)
            try:
                resp = self.session.post(
                    url,
                    json=payload,
                    headers=headers,
                    timeout=self.timeout_s,
                    **self._send_settings,
                )
            except requests.RequestException as e:
                last_error, cause = e, type(e).__name__
                continue
            if resp.status_code >= 500:
                last_error = BackendUnavailable(
                    f"{url} answered {resp.status_code}"
                )
                cause = f"HTTP {resp.status_code}"
                continue
            if resp.status_code >= 400:
                detail = _error_detail(resp)
                if "context" in detail.lower() and "length" in detail.lower():
                    raise ContextTooLong(detail)
                raise BackendUnavailable(
                    f"{url} answered {resp.status_code}: {detail}"
                )
            try:
                data = resp.json()
            except ValueError as e:
                raise BackendUnavailable(f"{url} returned malformed JSON: {e}") from e
            # a malformed body is not retried, the same as malformed JSON
            if not isinstance(data, dict):
                raise BackendUnavailable(f"{url} returned JSON that is not an object")
            return data
        raise BackendUnavailable(
            f"{url} unreachable after {self.retries + 1} attempts: {last_error}"
        )

    # -- token plumbing --------------------------------------------------

    def detokenize(self, tokens: Sequence[int]) -> str:
        reg = self.vocab
        return "".join(
            reg.token_text(t) for t in tokens if t != reg.eos_index
        )

    def _segment(self, text: str) -> list[int]:
        """Split text into service tokens via a zero-completion echo call."""
        if text == "":
            return []
        data = self._post(
            {
                "model": self.model,
                "prompt": text,
                "max_tokens": 0,
                "echo": True,
                "logprobs": 0,
            }
        )
        lp = _choice_logprobs(data)
        pieces = lp.get("tokens")
        if not isinstance(pieces, list) or "".join(_strings(pieces)) != text:
            raise ForcedScoringUnsupported(
                "echo response does not reproduce the prompt text"
            )
        return [self.vocab.intern(p) for p in pieces]

    # -- scoring ---------------------------------------------------------

    def next_distribution(
        self, prefix: Sequence[int], text: str | None = None
    ) -> TokenDistribution:
        prompt = self.detokenize(prefix) if text is None else text
        data = self._post(
            {
                "model": self.model,
                "prompt": prompt,
                "max_tokens": 1,
                "temperature": 0,
                "logprobs": self.top_k,
            }
        )
        lp = _choice_logprobs(data)
        tops = lp.get("top_logprobs")
        if not isinstance(tops, list) or not tops or not isinstance(tops[0], dict):
            raise BackendUnavailable("completion response carries no top_logprobs")
        # the registry interns the EOS text at its index, so EOS maps too
        entries = [
            (self.vocab.intern(piece), _number(logprob))
            for piece, logprob in tops[0].items()
        ]
        return TokenDistribution.from_pairs(entries, complete=False)

    def score_forced(
        self,
        prefix: Sequence[int],
        continuation: Sequence[int],
        text: str | None = None,
    ) -> list[float]:
        """Log-probabilities of a forced continuation via prompt echo.

        The continuation region is located by character offset.  When the
        service tokenizes the region exactly as the registry does, scores
        are per token; otherwise the regional total is attributed to the
        first continuation token so that sums are preserved.  When the
        service merges the prefix's last characters with the
        continuation's first, ``ForcedTextMisaligned`` is raised: that
        prefix cannot be scored, and a decoder drops only its hypothesis.
        """
        if not continuation:
            return []
        reg = self.vocab
        if any(t == reg.eos_index for t in continuation):
            # the protocol cannot echo an end-of-sequence token
            raise ForcedScoringUnsupported(
                "forced scoring of end-of-sequence is not supported remotely"
            )
        prefix_text = self.detokenize(prefix) if text is None else text
        cont_text = self.detokenize(continuation)
        data = self._post(
            {
                "model": self.model,
                "prompt": prefix_text + cont_text,
                "max_tokens": 0,
                "echo": True,
                "logprobs": 0,
            }
        )
        lp = _choice_logprobs(data)
        pieces = lp.get("tokens")
        logprobs = lp.get("token_logprobs")
        offsets = lp.get("text_offset")
        if not (
            isinstance(pieces, list)
            and isinstance(logprobs, list)
            and isinstance(offsets, list)
            and len(pieces) == len(logprobs) == len(offsets)
        ):
            raise ForcedScoringUnsupported("echo response lacks aligned logprobs")
        _strings(pieces)
        if not all(type(off) is int for off in offsets):
            raise BackendUnavailable(
                "completion response carries a non-integer text offset"
            )
        start = None
        for i, off in enumerate(offsets):
            if off == len(prefix_text):
                start = i
                break
        if start is None:
            raise ForcedTextMisaligned(
                "no token boundary aligns with the forced continuation"
            )
        region = list(zip(pieces[start:], logprobs[start:]))
        if "".join(p for p, _ in region) != cont_text:
            raise ForcedTextMisaligned(
                "echoed tokens do not reproduce the forced continuation"
            )
        if any(v is None for _, v in region):
            raise ForcedScoringUnsupported(
                "service reports no log-probability inside the continuation"
            )
        if len(region) == len(continuation) and all(
            p == reg.token_text(t) for (p, _), t in zip(region, continuation)
        ):
            return [_number(v) for _, v in region]
        total = ordered_sum(_number(v) for _, v in region)
        return [total] + [0.0] * (len(continuation) - 1)


def _choice_logprobs(data: dict) -> dict:
    choices = data.get("choices")
    if not isinstance(choices, list) or not choices:
        raise BackendUnavailable("completion response carries no choices")
    if not isinstance(choices[0], dict):
        raise BackendUnavailable("completion response's first choice is not an object")
    lp = choices[0].get("logprobs")
    if not isinstance(lp, dict):
        raise BackendUnavailable("completion response carries no logprobs block")
    return lp


def _strings(pieces: list) -> list:
    """The echoed token pieces, which must all be strings."""
    for piece in pieces:
        if not isinstance(piece, str):
            raise BackendUnavailable(
                f"completion response carries a non-string token: {piece!r:.80}"
            )
    return pieces


def _number(value) -> float:
    """A log-probability from a response body, which must be a JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BackendUnavailable(
            f"completion response carries a non-numeric log-probability: {value!r:.80}"
        )
    return float(value)


def _error_detail(resp) -> str:
    try:
        body = resp.json()
        if isinstance(body, dict):
            err = body.get("error")
            if isinstance(err, dict) and "message" in err:
                return str(err["message"])
            if isinstance(err, str):
                return err
        return json.dumps(body)[:200]
    except ValueError:
        return (resp.text or "")[:200]
