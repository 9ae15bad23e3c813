"""External-corrector demo against a local stub chat-completions server.

Starts an in-process HTTP server that answers every chat-completions
request with a canned revision, then routes a disfluent caption through
the correction pipeline in external mode.

Usage: python scripts/correction_stub_demo.py
"""

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from audiocap.fluency import API_KEY_ENV, CorrectorConfig, correction_pipeline


class StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        print("-- request model:", body["model"])
        print("-- request temperature:", body["temperature"])
        print("-- prompt:")
        print(body["messages"][0]["content"])
        reply = {"choices": [{"message": {
            "content": "a man speaks while a horse gallops"}}]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def main() -> int:
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"

    os.environ.setdefault(API_KEY_ENV, "sk-demo")  # the stub ignores the token
    cfg = CorrectorConfig(mode="external", endpoint=endpoint)
    text = "a man speaks and a horse gallops and a man speaks and"
    result = correction_pipeline(text, cfg)
    print("-- input: ", text)
    print("-- output:", result.text)
    print("-- pre prob:", result.pre.probability,
          "rules:", result.pre.triggered_rules)
    print("-- post prob:", result.post.probability)
    server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
