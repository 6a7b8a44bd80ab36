import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from kgqa_env.data import TOY_ALIASES, TOY_KG, TOY_QA, TOY_WEB_CORPUS
from kgqa_env.kg import Triple, load_triples
from kgqa_env.qa import QAExample, load_qa
from kgqa_env.web import OfflineWebTool

DATA = Path(__file__).parent / "data"
TK1_PATH = DATA / "tk1.tsv"


@pytest.fixture(scope="session")
def tk1():
    return load_triples(TK1_PATH)


@pytest.fixture(scope="session")
def tk1_example():
    return QAExample(
        id="tk1-q1",
        question="What country uses the Iranian rial?",
        topic_entities=("Iranian_rial",),
        answers=(("Iran", "Islamic Republic of Iran"),),
        critical_triples=(Triple("Iranian_rial", "currency_of", "Iran"),),
        plan="S1: Ans(country | currency_of(Iranian rial, ?))",
    )


@pytest.fixture(scope="session")
def tk1_web():
    return OfflineWebTool([
        (["iranian", "rial", "currency"], "The Iranian rial is the currency of Iran."),
    ])


@pytest.fixture(scope="session")
def toy_kg():
    return load_triples(TOY_KG, TOY_ALIASES)


@pytest.fixture(scope="session")
def toy_qa():
    return load_qa(TOY_QA)


@pytest.fixture(scope="session")
def toy_web():
    return OfflineWebTool.from_path(TOY_WEB_CORPUS)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.raw.append((self.headers.get("Content-Type"), raw))
        body = json.loads(raw or b"{}")
        self.server.requests.append((self.path, body))
        route = self.server.routes.get(self.path)
        if route is None:
            status, payload = 404, {"error": "no route"}
        else:
            status, payload = route(body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output clean
        pass


class StubServer:
    """In-process HTTP server for exercising the remote wire protocols."""

    def __init__(self):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.routes = {}
        self._server.requests = []
        self._server.raw = []
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def requests(self):
        return self._server.requests

    @property
    def raw(self):
        """(Content-Type, body bytes) of every request, in arrival order."""
        return self._server.raw

    def route(self, path, handler):
        """handler(body) -> (status, payload); a bytes payload is sent as is."""
        self._server.routes[path] = handler

    def url(self, path=""):
        host, port = self._server.server_address
        return f"http://{host}:{port}{path}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()
