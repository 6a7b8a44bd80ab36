"""Replaying stub of a policy server and a web-search server.

The stub runs in a process of its own, so the client process measured by
the ``remote-policy`` workload holds only what the program needs to drive
``RemotePolicy`` and ``RemoteWebTool``:

    python3 benchmarks/stub.py --kg KG --qa QA --web WEB --fraction F \\
        --ikg-seed S --max-iters N --delay SECONDS

It loads the inputs, derives the same IKG as the client, runs the scripted
oracle over every question through :class:`RecordingPolicy` and
:class:`RecordingWeb`, which keep every segment and every search result,
then prints one JSON line ``{"port": ...}`` and serves until its standard
input closes. :class:`ReplayServer` answers the package's ``RemotePolicy``
and ``RemoteWebTool`` wire protocols from those recordings. It is a plain
``HTTPServer`` served by one thread, so requests are handled one at a time,
each after a fixed injected delay that stands in for model latency.
HTTP/1.0 closes every connection after its response. ``GET /stats`` returns
the request, byte and miss counts per route.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

from kgqa_env.qa import QAExample
from kgqa_env.rollout import Policy
from kgqa_env.web import WebTool


def conversation_key(conversation: str) -> str:
    return hashlib.sha256(conversation.encode("utf-8")).hexdigest()


class RecordingPolicy(Policy):
    """Delegates to ``inner`` and records each segment under the digest of
    the conversation that produced it."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.segments: dict[str, str] = {}

    def reset(self, example: QAExample) -> None:
        self.inner.reset(example)

    def next_segment(self, conversation: str) -> str:
        segment = self.inner.next_segment(conversation)
        self.segments[conversation_key(conversation)] = segment
        return segment


class RecordingWeb(WebTool):
    """Delegates to ``inner`` and records each result under (query, k)."""

    def __init__(self, inner: WebTool):
        self.inner = inner
        self.results: dict[tuple[str, int], list[str]] = {}

    def search(self, query: str, k: int) -> list[str]:
        snippets = self.inner.search(query, k)
        self.results[(query, k)] = snippets
        return snippets


class _Handler(BaseHTTPRequestHandler):
    server: "ReplayServer"

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, {"error": "unknown path"})
            return
        srv = self.server
        self._reply(200, {"requests": srv.requests, "bytes_in": srv.bytes_in, "misses": srv.misses})

    def do_POST(self) -> None:
        srv = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        srv.requests[self.path] += 1
        srv.bytes_in[self.path] += len(body)
        time.sleep(srv.delay_s)
        payload = None
        try:
            req = json.loads(body)
            if self.path == "/policy":
                segment = srv.segments.get(conversation_key(req["conversation"]))
                payload = None if segment is None else {"segment": segment}
            elif self.path == "/web":
                snippets = srv.results.get((req["query"], req["k"]))
                payload = None if snippets is None else {"snippets": snippets}
        except (ValueError, KeyError, TypeError):
            pass
        if payload is None:
            srv.misses[self.path] += 1
            self._reply(404, {"error": "no recording for this request"})
        else:
            self._reply(200, payload)

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class ReplayServer(HTTPServer):
    """``/policy`` answers with the recorded segment for the conversation
    sent, ``/web`` with the recorded snippets for (query, k). Unknown
    requests get 404 and count as misses. Counts requests and request bytes
    per route."""

    def __init__(self, segments: dict[str, str], results: dict[tuple[str, int], list[str]], delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.segments = segments
        self.results = results
        self.delay_s = delay_s
        self.requests: Counter = Counter()
        self.bytes_in: Counter = Counter()
        self.misses: Counter = Counter()
        self._thread = threading.Thread(target=self.serve_forever, name="replay-server", daemon=True)
        self._thread.start()

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("replay server thread did not stop")


def record(kg_path: str, qa_path: str, web_path: str, fraction: float, ikg_seed: int,
           max_iterations: int) -> tuple[RecordingPolicy, RecordingWeb]:
    """Oracle rollouts over every question of ``qa_path`` on the IKG that
    ``sample_ikg(fraction, ikg_seed)`` derives, recorded for replay."""
    from kgqa_env.kg import load_triples, sample_ikg
    from kgqa_env.policies import ScriptedOracle
    from kgqa_env.qa import load_qa
    from kgqa_env.rollout import RolloutConfig, run_rollout
    from kgqa_env.web import OfflineWebTool

    batch = load_qa(qa_path)
    graph, _ = sample_ikg(load_triples(kg_path), batch, fraction, ikg_seed)
    policy, searches = RecordingPolicy(ScriptedOracle()), RecordingWeb(OfflineWebTool.from_path(web_path))
    cfg = RolloutConfig(max_iterations=max_iterations)
    for ex in batch:
        run_rollout(policy, graph, searches, ex, cfg)
    return policy, searches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record oracle rollouts, then replay them over HTTP.")
    parser.add_argument("--kg", required=True)
    parser.add_argument("--qa", required=True)
    parser.add_argument("--web", required=True)
    parser.add_argument("--fraction", type=float, required=True)
    parser.add_argument("--ikg-seed", type=int, required=True)
    parser.add_argument("--max-iters", type=int, required=True)
    parser.add_argument("--delay", type=float, required=True)
    args = parser.parse_args(argv)

    policy, searches = record(args.kg, args.qa, args.web, args.fraction, args.ikg_seed, args.max_iters)
    server = ReplayServer(policy.segments, searches.results, args.delay)
    try:
        print(json.dumps({"port": server.server_address[1], "segments": len(policy.segments),
                          "searches": len(searches.results)}), flush=True)
        sys.stdin.read()  # serve until the client closes our standard input
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
