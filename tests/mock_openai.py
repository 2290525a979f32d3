"""In-process completions service backed by a table model.

Serves the two request shapes the HTTP backend issues: prompt echo with
zero completion tokens (tokenization and forced scoring) and a one-token
completion with top-k log-probabilities.  Failure injection knobs cover
the retry, exhaustion, and typed-error paths.
"""
from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from sketchdec.lm import LMBackend, greedy_tokenize

# how often the serving loop checks for shutdown: close() waits up to this
# long (socketserver's default of 0.5 s made every teardown that long)
POLL_INTERVAL_S = 0.02


class MockCompletions:
    """The service's answers over a table model, without a server."""

    def __init__(self, backend: LMBackend, null_first_logprob: bool = False):
        self.backend = backend
        # standard services report no log-probability for the first prompt
        # token; the table can, so serving it is opt-out
        self.null_first_logprob = null_first_logprob

    def answer(self, payload: dict) -> dict:
        prompt = payload.get("prompt", "")
        if payload.get("max_tokens") == 0 and payload.get("echo"):
            return self._echo(prompt)
        return self._one_token(prompt, int(payload.get("logprobs") or 1))

    def _echo(self, prompt: str) -> dict:
        vocab = self.backend.vocab
        tokens = greedy_tokenize(vocab, prompt)
        pieces = [vocab.token_text(t) for t in tokens]
        logprobs: list[float | None] = list(
            self.backend.score_forced((), tokens)
        )
        if self.null_first_logprob and logprobs:
            logprobs[0] = None
        offsets = []
        pos = 0
        for piece in pieces:
            offsets.append(pos)
            pos += len(piece)
        return {
            "choices": [
                {
                    "text": prompt,
                    "index": 0,
                    "finish_reason": "length",
                    "logprobs": {
                        "tokens": pieces,
                        "token_logprobs": logprobs,
                        "text_offset": offsets,
                    },
                }
            ]
        }

    def _one_token(self, prompt: str, top_k: int) -> dict:
        vocab = self.backend.vocab
        tokens = greedy_tokenize(vocab, prompt)
        dist = self.backend.next_distribution(tokens)
        top: dict[str, float] = {}
        for index, logprob in dist.entries[:top_k]:
            if math.isinf(logprob):
                continue
            top[vocab.token_text(index)] = logprob
        best_index = dist.entries[0][0]
        return {
            "choices": [
                {
                    "text": vocab.token_text(best_index),
                    "index": 0,
                    "finish_reason": "length",
                    "logprobs": {
                        "tokens": [vocab.token_text(best_index)],
                        "token_logprobs": [dist.entries[0][1]],
                        "top_logprobs": [top],
                    },
                }
            ]
        }


class MockCompletionsServer(MockCompletions):
    """``MockCompletions`` served over HTTP on a local port."""

    def __init__(self, backend: LMBackend, null_first_logprob: bool = False):
        super().__init__(backend, null_first_logprob)
        self.fail_next = 0  # answer this many upcoming requests with a 500
        self.error_once: tuple[int, str] | None = None
        self.requests: list[dict] = []
        self.auth_headers: list[str | None] = []

        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, status: int, payload: dict):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                owner.requests.append(payload)
                owner.auth_headers.append(self.headers.get("Authorization"))
                if owner.fail_next > 0:
                    owner.fail_next -= 1
                    self._send(500, {"error": {"message": "injected failure"}})
                    return
                if owner.error_once is not None:
                    status, message = owner.error_once
                    owner.error_once = None
                    self._send(status, {"error": {"message": message}})
                    return
                if self.path != "/v1/completions":
                    self._send(404, {"error": {"message": "no such route"}})
                    return
                self._send(200, owner.answer(payload))

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL_S},
            daemon=True,
        )
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def close(self):
        # shutdown() returns once serve_forever next polls its flag
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
