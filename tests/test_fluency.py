import json
import math
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import cli, metrics
from audiocap import fluency as fl
from audiocap.fluency import (CorrectorConfig, ErrorAssessment,
                              REVISION_PROMPT, TEXT_SLOT,
                              build_revision_request, correct_external,
                              correct_with_rules, correction_pipeline,
                              detect_errors)

SRC = Path(__file__).resolve().parents[1] / "src"
LOOP = "a car drives by a car drives by a car drives by"
# endpoints the client must refuse or fail on with HttpError; "{reply}" is
# a local file holding a valid completion, which must never be read
BAD_ENDPOINTS = [
    pytest.param("not-a-url", id="no-scheme"),
    pytest.param("http://127.0.0.1:abc/x", id="bad-port"),
    pytest.param("http://[::1", id="bad-ipv6-host"),
    pytest.param("file://{reply}", id="file-scheme"),
    pytest.param("http:///v1", id="no-host"),
]


class StubServer:
    """In-process chat-completions endpoint with a scripted response queue.

    Each response is sent `stall` seconds after its request arrives.
    """

    def __init__(self, script, stall=0.0):
        self.script = list(script)  # [(status, body), ...]: a JSON value,
        # or a str or bytes sent as they are
        self.requests = []  # (path, headers dict, parsed json body)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                outer.requests.append((self.path, dict(self.headers), body))
                if stall:  # some tests replace time.sleep with a recorder
                    time.sleep(stall)
                status, payload = (outer.script.pop(0) if outer.script
                                   else (500, {"error": "script exhausted"}))
                if not isinstance(payload, (str, bytes)):
                    payload = json.dumps(payload)
                raw = payload.encode() if isinstance(payload, str) else payload
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def completion(text):
    return {"choices": [{"message": {"content": text}}]}


def external_cfg(endpoint, mode="external", **over):
    return CorrectorConfig(mode=mode, endpoint=endpoint, **over)


@pytest.fixture(autouse=True)
def no_retries(monkeypatch):
    """One attempt and no sleeps unless a test sets the client policy."""
    monkeypatch.setattr(fl, "RETRIES", 0)
    monkeypatch.setattr(fl, "BACKOFF_S", 0.0)


class TestDetector:
    def test_phrase_loop_fires_r1(self):
        a = detect_errors(LOOP)
        assert a.probability == 0.95
        assert "R1" in a.triggered_rules

    def test_trailing_conjunction_fires_r2(self):
        a = detect_errors("a man speaks and")
        assert a.probability == 0.95
        assert a.triggered_rules == ["R2"]

    def test_short_caption_fires_r3(self):
        assert detect_errors("hello").triggered_rules == ["R3"]
        assert detect_errors("").triggered_rules == ["R3"]

    def test_stutter_fires_r4(self):
        a = detect_errors("the dog dog dog barks")
        assert a.triggered_rules == ["R4"]

    def test_clean_caption_scores_zero(self):
        a = detect_errors("rain falls on a tin roof")
        assert a.probability == 0.0
        assert a.triggered_rules == []

    def test_two_repeats_do_not_fire(self):
        assert detect_errors("the dog dog barks loudly").probability == 0.0
        assert detect_errors(
            "a car drives by a car drives by then stops").probability == 0.0

    @given(st.lists(st.sampled_from(["a", "dog", "and", "runs", "the"]),
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_probability_is_binary(self, words):
        a = detect_errors(" ".join(words))
        assert a.probability in (0.0, 0.95)
        assert bool(a.triggered_rules) == (a.probability == 0.95)


class TestRuleCorrector:
    def test_collapses_phrase_loop(self):
        assert correct_with_rules(LOOP) == "a car drives by"

    def test_collapses_stutter(self):
        assert correct_with_rules("the dog dog dog barks") == "the dog barks"

    def test_strips_trailing_conjunctions(self):
        assert correct_with_rules("a man speaks and") == "a man speaks"
        assert correct_with_rules("water drips of the and") == "water drips"

    def test_longest_unit_collapses_first(self):
        # collapsing unigrams first would leave "a a a" unreachable as a
        # phrase; the full 2-gram loop must go in one move
        out = correct_with_rules("a b a b a b a b")
        assert out == "a b"

    def test_leaves_clean_text_alone(self):
        text = "rain falls on a tin roof"
        assert correct_with_rules(text) == text

    def test_punctuation_normalized(self):
        assert correct_with_rules("A man, speaks AND") == "a man speaks"

    @given(st.lists(st.sampled_from(["a", "b", "c", "and", "then", "dog"]),
                    max_size=15))
    @settings(max_examples=1000, deadline=None)
    def test_idempotent_and_rules_cleared(self, words):
        text = " ".join(words)
        once = correct_with_rules(text)
        assert correct_with_rules(once) == once
        post = detect_errors(once)
        assert "R1" not in post.triggered_rules
        assert "R4" not in post.triggered_rules
        assert "R2" not in post.triggered_rules


def parent_loop(tokens, sizes):
    """`fluency._loop` as it compared list slices before the run scan; its
    oracle. Cubic in the token count."""
    for n in sizes:
        for i in range(len(tokens) - 3 * n + 1):
            unit = tokens[i:i + n]
            k = 1
            while tokens[i + k * n:i + (k + 1) * n] == unit:
                k += 1
            if k >= 3:
                return i, n, k
    return None


def loop_size_orders(tokens):
    """The unit-size orders of R1, R4 and `correct_with_rules`."""
    return (range(3, len(tokens) // 3 + 1), (1,),
            range(len(tokens) // 3, 0, -1))


class TestLoopScan:
    @given(st.lists(st.sampled_from(["a", "b", "c", "and", "then", "dog",
                                     "runs", "the"]), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_slice_oracle(self, tokens):
        for sizes in loop_size_orders(tokens):
            assert fl._loop(tokens, sizes) == parent_loop(tokens, sizes)

    def test_matches_slice_oracle_on_3200_distinct_words(self):
        # the oracle's worst case: no loop, so every size and start is tried
        tokens = [f"w{i}" for i in range(3200)]
        sizes = loop_size_orders(tokens)[0]
        assert fl._loop(tokens, sizes) == parent_loop(tokens, sizes) is None


class TestPipelineGate:
    def test_clean_text_passes_through_identically(self):
        text = "rain falls on a tin roof"
        res = correction_pipeline(text, CorrectorConfig())
        assert res.text is text
        assert not res.corrected
        assert res.post is res.pre

    def test_probability_at_threshold_not_corrected(self):
        stub = lambda t: ErrorAssessment(probability=0.90,
                                         triggered_rules=["stub"])
        res = correction_pipeline(LOOP, CorrectorConfig(), detector=stub)
        assert not res.corrected
        assert res.text == LOOP

    def test_probability_above_threshold_corrected(self):
        res = correction_pipeline(LOOP, CorrectorConfig())
        assert res.corrected
        assert res.text == "a car drives by"
        assert res.post.probability == 0.0

    def test_one_gate_for_penalty_correction_and_cli(self):
        # exactly at the gate neither penalizes nor corrects; one ulp above,
        # both do, and the corrector's and the CLI's defaults are the gate
        gate = metrics.FLUENCY_GATE
        for prob, fires in ((gate, False), (math.nextafter(gate, 1.0), True)):
            stub = lambda t: ErrorAssessment(probability=prob,
                                             triggered_rules=["stub"])
            res = correction_pipeline(LOOP, CorrectorConfig(), detector=stub)
            assert res.corrected is fires
            assert (metrics.spider_fl(0.5, prob) != 0.5) is fires
        args = cli.build_parser().parse_args(["correct", "--text", LOOP])
        assert args.threshold == CorrectorConfig().threshold == gate

    def test_custom_threshold(self):
        cfg = CorrectorConfig(threshold=0.99)
        assert not correction_pipeline(LOOP, cfg).corrected

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CorrectorConfig(threshold=1.5)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            CorrectorConfig(mode="llm")

    def test_package_import_loads_only_numpy_and_stdlib(self):
        # the HTTP client loads only when the external corrector runs
        code = ("import json, sys; before = set(sys.modules); "
                "import audiocap, audiocap.cli; "
                "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
                "print(json.dumps({'third_party': sorted("
                "new - sys.stdlib_module_names), 'http': sorted("
                "{'urllib.request', 'http.client'} & set(sys.modules))}))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert run.returncode == 0, run.stderr
        loaded = json.loads(run.stdout)
        assert set(loaded["third_party"]) <= {"audiocap", "numpy"}
        assert loaded["http"] == []

    def test_package_import_loads_no_submodule(self):
        # each name has one import path, its submodule; the root binds none
        code = ("import sys; import audiocap; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('audiocap.')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


class TestExternalCorrector:
    def test_request_body_and_verbatim_prompt(self):
        with StubServer([(200, completion("a car drives by"))]) as srv:
            out = correct_external(LOOP, external_cfg(srv.endpoint))
        assert out == "a car drives by"
        path, headers, body = srv.requests[0]
        assert body["model"] == "gpt-3.5-turbo"
        assert body["temperature"] == 0
        assert body["messages"][0]["role"] == "user"
        content = body["messages"][0]["content"]
        assert content == REVISION_PROMPT.replace(TEXT_SLOT, LOOP)
        assert "rain is falling on a tin roof ==> " \
               "rain is falling on the tin roof" in content
        assert content.endswith(f"{LOOP} ==>")
        assert headers["Authorization"] == "Bearer sk-test"

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv(fl.API_KEY_ENV, "sk-test-123")
        with StubServer([(200, completion("ok caption"))]) as srv:
            correct_external("a dog barks", external_cfg(srv.endpoint))
        _, headers, _ = srv.requests[0]
        assert headers["Authorization"] == "Bearer sk-test-123"

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv(fl.API_KEY_ENV)
        cfg = external_cfg("http://127.0.0.1:9/v1")
        with pytest.raises(fl.MissingApiKey):
            correct_external("a dog barks", cfg)

    def test_retries_then_succeeds(self, monkeypatch):
        monkeypatch.setattr(fl, "RETRIES", 1)
        script = [(500, {"error": "overloaded"}),
                  (200, completion("a dog barks"))]
        with StubServer(script) as srv:
            out = correct_external("dog dog dog", external_cfg(srv.endpoint))
        assert out == "a dog barks"
        assert len(srv.requests) == 2

    def test_server_errors_exhaust_retries(self, monkeypatch):
        monkeypatch.setattr(fl, "RETRIES", 2)
        script = [(500, {}), (503, {}), (502, {})]
        with StubServer(script) as srv:
            with pytest.raises(fl.HttpError):
                correct_external("x", external_cfg(srv.endpoint))
            assert len(srv.requests) == 3

    def test_client_error_fails_immediately(self, monkeypatch):
        monkeypatch.setattr(fl, "RETRIES", 2)
        with StubServer([(404, {"error": "nope"})]) as srv:
            with pytest.raises(fl.HttpError):
                correct_external("x", external_cfg(srv.endpoint))
            assert len(srv.requests) == 1

    def test_malformed_response(self):
        with StubServer([(200, {"choices": []})]) as srv:
            with pytest.raises(fl.MalformedResponse):
                correct_external("x", external_cfg(srv.endpoint))

    def test_non_string_content(self):
        with StubServer([(200, {"choices": [{"message": {"content": 5}}]})]) as srv:
            with pytest.raises(fl.MalformedResponse):
                correct_external("x", external_cfg(srv.endpoint))

    def test_connection_error(self):
        cfg = external_cfg("http://127.0.0.1:9/unreachable")
        with pytest.raises(fl.HttpError):
            correct_external("x", cfg)

    @pytest.mark.parametrize("endpoint", BAD_ENDPOINTS)
    def test_bad_endpoint(self, tmp_path, endpoint):
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps(completion("read from a file")))
        cfg = external_cfg(endpoint.format(reply=reply))
        with pytest.raises(fl.HttpError):
            correct_external("x", cfg)

    def test_stalled_server_times_out(self, monkeypatch):
        monkeypatch.setattr(fl, "TIMEOUT_S", 0.2)
        with StubServer([(200, completion("too late"))], stall=1.0) as srv:
            with pytest.raises(fl.Timeout):
                correct_external("x", external_cfg(srv.endpoint))

    def test_no_endpoint(self):
        with pytest.raises(fl.HttpError):
            correct_external("x", CorrectorConfig(mode="external"))

    def test_quote_stripping(self):
        with StubServer([(200, completion('"a dog barks"'))]) as srv:
            assert correct_external("x", external_cfg(srv.endpoint)) == \
                "a dog barks"

    def test_backoff_schedule(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(fl.time, "sleep", sleeps.append)
        monkeypatch.setattr(fl, "RETRIES", 2)
        monkeypatch.setattr(fl, "BACKOFF_S", 1.5)
        script = [(500, {}), (500, {}), (200, completion("ok fine"))]
        with StubServer(script) as srv:
            correct_external("x", external_cfg(srv.endpoint))
        assert sleeps == [1.5, 3.0]


class TestFallbackMode:
    def test_unreachable_endpoint_falls_back_to_rules(self):
        cfg = external_cfg("http://127.0.0.1:9/unreachable",
                           mode="external_with_rules_fallback")
        res = correction_pipeline(LOOP, cfg)
        assert res.corrected
        assert res.text == "a car drives by"
        assert res.warnings and "used rules" in res.warnings[0]

    def test_working_endpoint_preferred(self):
        with StubServer([(200, completion("a car passes"))]) as srv:
            cfg = external_cfg(srv.endpoint,
                               mode="external_with_rules_fallback")
            res = correction_pipeline(LOOP, cfg)
        assert res.text == "a car passes"
        assert res.warnings == []

    def test_deeply_nested_reply_falls_back_to_rules(self):
        with StubServer([(200, "[" * 100_000)]) as srv:
            cfg = external_cfg(srv.endpoint,
                               mode="external_with_rules_fallback")
            res = correction_pipeline(LOOP, cfg)
        assert res.text == "a car drives by"
        assert res.warnings and "used rules" in res.warnings[0]

    def test_external_mode_propagates_error(self):
        cfg = external_cfg("http://127.0.0.1:9/unreachable", mode="external")
        with pytest.raises(fl.HttpError):
            correction_pipeline(LOOP, cfg)
