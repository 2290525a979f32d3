"""Mock OpenAI-style completions service for the remote-mock workload.

Run as a child process so that its Python work does not share the decoding
process's interpreter lock:

    python3 perfbench/mock_service.py --src src

It prints the port it listens on, then serves until its standard input
closes.  The service answers the two request shapes ``RemoteCompletionsLM``
issues -- prompt echo with zero completion tokens, and a one-token
completion with top-k log-probabilities -- from the bundled fig1 and json
table models, chosen by the prompt.  Every request sleeps
``SERVICE_DELAY_MS``, and every ``FAIL_EVERY``-th request is answered with
HTTP 500.  The time spent computing each answer, without the injected
delay, is returned in the ``X-Mock-Service-Seconds`` header.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVER_TIME_HEADER = "X-Mock-Service-Seconds"
SERVICE_DELAY_MS = 1.0
FAIL_EVERY = 40


class Models:
    """The table models served, picked by prompt.

    A prompt that opens with a json record's narrative gets that record's
    table.  Any other prompt gets the fig1 table when its vocabulary can
    segment it and a json table otherwise; the two vocabularies share no
    non-empty text, so the choice never changes a segmentation.
    """

    def __init__(self):
        from sketchdec.errors import UnsegmentableText
        from sketchdec.lm import greedy_tokenize
        from sketchdec.tasks import fig1, jsonfmt

        self._unsegmentable = UnsegmentableText
        self._tokenize = greedy_tokenize
        self.fig1 = fig1.fig1_backend()
        self.records = {
            jsonfmt.PROMPT_PREFIX + r.narrative + jsonfmt.JSON_MARKER:
                jsonfmt.record_backend(r)
            for r in jsonfmt.RECORDS
        }
        self.any_json = next(iter(self.records.values()))

    def pick(self, prompt: str):
        for head, backend in self.records.items():
            if prompt.startswith(head):
                return backend
        try:
            self._tokenize(self.fig1.vocab, prompt)
            return self.fig1
        except self._unsegmentable:
            return self.any_json

    def echo(self, prompt: str) -> dict:
        backend = self.pick(prompt)
        vocab = backend.vocab
        tokens = self._tokenize(vocab, prompt)
        pieces = [vocab.token_text(t) for t in tokens]
        offsets = []
        pos = 0
        for piece in pieces:
            offsets.append(pos)
            pos += len(piece)
        logprobs = {
            "tokens": pieces,
            "token_logprobs": list(backend.score_forced((), tokens)),
            "text_offset": offsets,
        }
        return {"choices": [{"text": prompt, "index": 0, "logprobs": logprobs}]}

    def one_token(self, prompt: str, top_k: int) -> dict:
        backend = self.pick(prompt)
        vocab = backend.vocab
        dist = backend.next_distribution(self._tokenize(vocab, prompt))
        top = {
            vocab.token_text(i): lp
            for i, lp in dist.entries[:top_k]
            if not math.isinf(lp)
        }
        best, best_lp = dist.entries[0]
        logprobs = {
            "tokens": [vocab.token_text(best)],
            "token_logprobs": [best_lp],
            "top_logprobs": [top],
        }
        text = vocab.token_text(best)
        return {"choices": [{"text": text, "index": 0, "logprobs": logprobs}]}


def make_server(models: Models) -> ThreadingHTTPServer:
    lock = threading.Lock()
    served = [0]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as a real service
        disable_nagle_algorithm = True  # no delayed-ACK stall per response

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: dict, compute_s: float) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header(SERVER_TIME_HEADER, repr(compute_s))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            with lock:
                served[0] += 1
                fail = served[0] % FAIL_EVERY == 0
            if fail:
                status, answer = 500, {"error": {"message": "injected failure"}}
            elif self.path != "/v1/completions":
                status, answer = 404, {"error": {"message": "no such route"}}
            else:
                prompt = payload.get("prompt", "")
                if payload.get("max_tokens") == 0 and payload.get("echo"):
                    status, answer = 200, models.echo(prompt)
                else:
                    top_k = int(payload.get("logprobs") or 1)
                    status, answer = 200, models.one_token(prompt, top_k)
            compute_s = time.perf_counter() - start
            time.sleep(SERVICE_DELAY_MS / 1000.0)
            self._send(status, answer, compute_s)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding sketchdec")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    server = make_server(Models())
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
