"""Fluency error detection and gated post-correction.

A deterministic rule detector stands in for a learned error classifier:
each rule fires at a fixed 0.95 probability, strictly above the
activation gate, `metrics.FLUENCY_GATE`, which also gates SPIDEr-FL.
Correction is rule-based (loop collapse, stutter collapse,
trailing-conjunction strip) or delegated to an external chat-completions
endpoint with a fixed revision prompt.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

from .metrics import FLUENCY_GATE, metric_tokenize
from .nn import require_at_least

RULE_PROBABILITY = 0.95
TRAILING_CONJUNCTIONS = ("and", "then", "with", "of", "a", "the", "to")

REVISION_PROMPT = ("Revise the sentence to make it more correct and idiomatic: "
                   "\n rain is falling on a tin roof ==> "
                   "rain is falling on the tin roof \n <Text> ==>")
TEXT_SLOT = "<Text>"

MODES = ("rules", "external", "external_with_rules_fallback")


class CorrectorError(RuntimeError):
    pass


class Timeout(CorrectorError):
    pass


class HttpError(CorrectorError):
    pass


class MalformedResponse(CorrectorError):
    pass


class MissingApiKey(CorrectorError):
    pass


@dataclass
class ErrorAssessment:
    probability: float
    triggered_rules: list[str] = field(default_factory=list)


@dataclass
class CorrectorConfig:
    threshold: float = FLUENCY_GATE
    mode: str = "rules"
    endpoint: str = ""
    model: str = "gpt-3.5-turbo"
    api_key_env: str = "AUDIOCAP_API_KEY"
    timeout: float = 30.0
    retries: int = 2
    backoff_base: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        require_at_least(0, self, "retries")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be finite and >= 0, "
                             f"got {self.backoff_base}")


def _loop(tokens: list[str], sizes) -> tuple[int, int, int] | None:
    """The first (start, n, k) where tokens[start:start+n] occurs k >= 3
    times in a row, trying the unit sizes in the order given, then starts.
    """
    for n in sizes:
        for i in range(len(tokens) - 3 * n + 1):
            unit = tokens[i:i + n]
            k = 1
            while tokens[i + k * n:i + (k + 1) * n] == unit:
                k += 1
            if k >= 3:
                return i, n, k
    return None


def detect_errors(text: str) -> ErrorAssessment:
    """Rules over the normalized token stream; probability is the max fired.

    R1: some n-gram (n >= 3) repeated consecutively >= 3 times.
    R2: final token is a dangling conjunction/article.
    R3: fewer than 2 tokens.
    R4: same single token >= 3 times consecutively.
    """
    tokens = metric_tokenize(text)
    fired = []
    if _loop(tokens, range(3, len(tokens) // 3 + 1)):
        fired.append("R1")
    if tokens and tokens[-1] in TRAILING_CONJUNCTIONS:
        fired.append("R2")
    if len(tokens) < 2:
        fired.append("R3")
    if _loop(tokens, (1,)):
        fired.append("R4")
    prob = RULE_PROBABILITY if fired else 0.0
    return ErrorAssessment(probability=prob, triggered_rules=fired)


def correct_with_rules(text: str) -> str:
    """Collapse >= 3-fold loops/stutters and strip trailing conjunctions.

    Longest repeating unit first so a phrase loop collapses as a whole
    rather than via its sub-repetitions; idempotent by fixpoint.
    """
    tokens = metric_tokenize(text)
    while site := _loop(tokens, range(len(tokens) // 3, 0, -1)):
        i, n, k = site
        tokens = tokens[:i + n] + tokens[i + k * n:]
    while tokens and tokens[-1] in TRAILING_CONJUNCTIONS:
        tokens.pop()
    return " ".join(tokens)


def _strip_quotes(text: str) -> str:
    out = text.strip()
    while len(out) >= 2 and out[0] == out[-1] and out[0] in "\"'":
        out = out[1:-1].strip()
    return out


def build_revision_request(text: str, cfg: CorrectorConfig) -> dict:
    """Chat-completions request body carrying the revision prompt."""
    return {"model": cfg.model,
            "messages": [{"role": "user",
                          "content": REVISION_PROMPT.replace(TEXT_SLOT, text)}],
            "temperature": 0}


def correct_external(text: str, cfg: CorrectorConfig) -> str:
    if not cfg.endpoint:
        raise HttpError("no endpoint configured")
    import http.client
    import urllib.error
    import urllib.request  # only this path loads an HTTP client (~6 MB)
    headers = {"Content-Type": "application/json"}
    if cfg.api_key_env:
        key = os.environ.get(cfg.api_key_env)
        if key is None:
            raise MissingApiKey(f"environment variable {cfg.api_key_env} unset")
        headers["Authorization"] = f"Bearer {key}"
    body = json.dumps(build_revision_request(text, cfg)).encode("utf-8")
    try:
        request = urllib.request.Request(cfg.endpoint, data=body,
                                         headers=headers)
    except ValueError as e:
        raise HttpError(f"invalid endpoint ({e})") from e
    if request.type not in ("http", "https"):  # urlopen also reads file: URLs
        raise HttpError(f"endpoint scheme {request.type!r} is not http(s)")

    last: CorrectorError | None = None
    for attempt in range(cfg.retries + 1):
        if attempt:
            time.sleep(cfg.backoff_base * (2 ** (attempt - 1)))
        try:
            with urllib.request.urlopen(request, timeout=cfg.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as e:
            e.close()
            if e.code < 500:
                raise HttpError(f"status {e.code}") from e
            last = HttpError(f"status {e.code}")
            continue
        except (OSError, ValueError, http.client.HTTPException) as e:
            # a URLError carries the socket's error as its reason
            timed_out = isinstance(getattr(e, "reason", e), TimeoutError)
            last = (Timeout if timed_out else HttpError)(str(e))
            continue
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError,
                RecursionError) as e:
            raise MalformedResponse(str(e)) from e
        if not isinstance(content, str):
            raise MalformedResponse("completion content is not a string")
        return _strip_quotes(content)
    raise last


@dataclass
class CorrectionResult:
    text: str
    pre: ErrorAssessment
    post: ErrorAssessment
    corrected: bool
    warnings: list[str] = field(default_factory=list)


def correction_pipeline(text: str, cfg: CorrectorConfig,
                        detector=detect_errors) -> CorrectionResult:
    """Correct only when the error probability strictly exceeds the gate,
    `cfg.threshold`."""
    pre = detector(text)
    if not pre.probability > cfg.threshold:
        return CorrectionResult(text=text, pre=pre, post=pre, corrected=False)
    warnings: list[str] = []
    if cfg.mode == "rules":
        fixed = correct_with_rules(text)
    elif cfg.mode == "external":
        fixed = correct_external(text, cfg)
    else:
        try:
            fixed = correct_external(text, cfg)
        except CorrectorError as e:
            warnings.append(f"external corrector failed ({e}); used rules")
            fixed = correct_with_rules(text)
    post = detector(fixed)
    return CorrectionResult(text=fixed, pre=pre, post=post, corrected=True,
                            warnings=warnings)
