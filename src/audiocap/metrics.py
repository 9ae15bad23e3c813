"""Caption evaluation stack.

CIDEr-D and METEOR-lite computed natively; SPICE supplied externally per
item (scene-graph parsing is out of scope and silent zeros are forbidden);
SPIDEr combines the two; SPIDEr-FL applies a fluency penalty above the
strict `FLUENCY_GATE` on the error probability, the gate at which the
fluency corrector also acts. Corpus means are reported scaled by 100
and rounded to one decimal.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field

from .data import MalformedLine, MissingField, check_string, read_jsonl

_CIDER_N_MAX = 4
_CIDER_SIGMA = 6.0
FLUENCY_GATE = 0.90  # strict gate on the fluency error probability
_FL_PENALTY = 0.9    # share of the score removed above the gate
_CHUNK_SEARCH_BUDGET = 200_000  # search nodes before the greedy fallback


class EmptyCorpus(ValueError):
    pass


class IdMismatch(ValueError):
    pass


class MissingSpice(ValueError):
    pass


_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def metric_tokenize(text: str) -> list[str]:
    """Lowercase, map punctuation to space, split on whitespace."""
    return _NON_ALNUM.sub(" ", text.lower()).split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


# -- CIDEr-D -----------------------------------------------------------------

def cider_d(candidates: list[str], references: list[list[str]]) -> list[float]:
    """Consensus-based n-gram score per item, each in [0, 10].

    idf is built over the corpus with each item's reference set as one
    document. Candidate counts are clipped to the largest count observed
    in the item's own references, the clipped tf-idf vector is compared
    to each reference by cosine with a Gaussian length penalty, and the
    result is averaged over references and n in 1..4 (the Gaussian has
    sigma 6), then scaled by 10. Zero-norm vectors contribute 0.
    """
    if len(candidates) != len(references):
        raise IdMismatch("candidate and reference counts differ")
    n_items = len(candidates)
    if n_items == 0:
        raise EmptyCorpus("no items to score")

    cand_tokens = [metric_tokenize(c) for c in candidates]
    ref_tokens = [[metric_tokenize(r) for r in refs] for refs in references]
    for refs in ref_tokens:
        if not refs:
            raise EmptyCorpus("item with no references")

    # document frequency over reference sets
    idf: list[dict[tuple, float]] = []
    for n in range(1, _CIDER_N_MAX + 1):
        df: Counter = Counter()
        for refs in ref_tokens:
            seen: set[tuple] = set()
            for r in refs:
                seen.update(_ngrams(r, n))
            df.update(seen)
        idf.append({g: math.log(n_items / d) for g, d in df.items()})

    scores = []
    for c_toks, refs in zip(cand_tokens, ref_tokens):
        total = 0.0
        for n in range(1, _CIDER_N_MAX + 1):
            table = idf[n - 1]
            c_counts = _ngrams(c_toks, n)
            r_counts = [_ngrams(r, n) for r in refs]
            max_ref = Counter()
            for rc in r_counts:
                for g, k in rc.items():
                    max_ref[g] = max(max_ref[g], k)
            c_vec = {g: min(k, max_ref[g]) * table.get(g, 0.0)
                     for g, k in c_counts.items() if max_ref[g]}
            c_norm = math.sqrt(sum(v * v for v in c_vec.values()))
            acc = 0.0
            for r_toks, rc in zip(refs, r_counts):
                r_vec = {g: k * table.get(g, 0.0) for g, k in rc.items()}
                r_norm = math.sqrt(sum(v * v for v in r_vec.values()))
                if c_norm == 0.0 or r_norm == 0.0:
                    continue
                dot = sum(v * r_vec[g] for g, v in c_vec.items() if g in r_vec)
                delta = len(c_toks) - len(r_toks)
                penalty = math.exp(-(delta * delta)
                                   / (2.0 * _CIDER_SIGMA * _CIDER_SIGMA))
                acc += (dot / (c_norm * r_norm)) * penalty
            total += acc / len(refs)
        scores.append(10.0 * total / _CIDER_N_MAX)
    return scores


# -- METEOR-lite -------------------------------------------------------------

def _min_chunks(cand: list[str], ref: list[str], m: int) -> int:
    """Minimum chunk count over maximum exact-unigram alignments.

    Exact backtracking over candidate positions within a node budget
    (`_CHUNK_SEARCH_BUDGET`); greedy longest-common-run fallback when the
    budget is exhausted (chunk minimization is NP-hard in general).
    """
    counts = Counter(cand) & Counter(ref)
    best = [m]  # upper bound: every match its own chunk
    nodes = [0]

    def search(ci: int, remaining: Counter, used: int, chunks: int,
               last_ref: int, taken: set[int]) -> None:
        """last_ref = ref index matched at candidate position ci-1, else -2."""
        if nodes[0] > _CHUNK_SEARCH_BUDGET or chunks >= best[0]:
            return
        nodes[0] += 1
        if used == m:
            best[0] = chunks
            return
        if ci == len(cand):
            return
        need = m - used
        if need > len(cand) - ci:
            return
        w = cand[ci]
        if remaining[w] > 0:
            for rj in range(len(ref)):
                if ref[rj] != w or rj in taken:
                    continue
                extra = 0 if rj == last_ref + 1 and last_ref >= 0 else 1
                remaining[w] -= 1
                taken.add(rj)
                search(ci + 1, remaining, used + 1, chunks + extra, rj, taken)
                taken.remove(rj)
                remaining[w] += 1
        search(ci + 1, remaining, used, chunks, -2, taken)

    search(0, counts.copy(), 0, 0, -2, set())
    if nodes[0] > _CHUNK_SEARCH_BUDGET:
        return min(best[0], _greedy_chunks(cand, ref))
    return best[0]


def _greedy_chunks(cand: list[str], ref: list[str]) -> int:
    """Repeatedly remove the longest common contiguous run; count runs."""
    c = list(cand)
    r = list(ref)
    chunks = 0
    while True:
        best_len, best_ci, best_rj = 0, -1, -1
        for i in range(len(c)):
            for j in range(len(r)):
                k = 0
                while (i + k < len(c) and j + k < len(r)
                       and c[i + k] == r[j + k]):
                    k += 1
                if k > best_len:
                    best_len, best_ci, best_rj = k, i, j
        if best_len == 0:
            return chunks
        chunks += 1
        del c[best_ci:best_ci + best_len]
        del r[best_rj:best_rj + best_len]


def meteor_lite(candidate: str, references: list[str]) -> float:
    """Exact-unigram METEOR variant in [0, 1]; max over references."""
    c_toks = metric_tokenize(candidate)
    best = 0.0
    for ref in references:
        r_toks = metric_tokenize(ref)
        m = sum((Counter(c_toks) & Counter(r_toks)).values())
        if m == 0 or not c_toks or not r_toks:
            continue
        p = m / len(c_toks)
        r = m / len(r_toks)
        f = 10.0 * p * r / (r + 9.0 * p)
        chunks = _min_chunks(c_toks, r_toks, m)
        penalty = 0.5 * (chunks / m) ** 3
        best = max(best, f * (1.0 - penalty))
    return best


# -- combiners ---------------------------------------------------------------

def spider(cider: float, spice: float) -> float:
    return (cider + spice) / 2.0


def spider_fl(spider_score: float, fluency_prob: float,
              penalty: float = _FL_PENALTY) -> float:
    """Scale the score by (1 - penalty) when fluency_prob exceeds the gate.

    The gate, `FLUENCY_GATE`, is strict: a probability exactly at it is
    not penalized. penalty=0.9 multiplies by 0.1; penalty=1.0 zeroes instead.
    """
    if not 0.0 <= fluency_prob <= 1.0:
        raise ValueError("fluency probability outside [0, 1]")
    if fluency_prob > FLUENCY_GATE:
        return spider_score * (1.0 - penalty)
    return spider_score


# -- sentence-similarity proxy ----------------------------------------------

def fense_proxy(candidates: list[str], references: list[list[str]]) -> list[float]:
    """Mean cosine similarity of each candidate to its references.

    Texts are tf-idf bags of words, a stand-in for a sentence-embedding
    model; idf is smoothed and built over every candidate and reference.
    """
    texts = list(candidates) + [r for refs in references for r in refs]
    df = Counter(w for t in texts for w in set(metric_tokenize(t)))
    n = len(texts)
    idf = {w: math.log((1 + n) / (1 + k)) + 1.0 for w, k in df.items()}

    def embed(text: str) -> tuple[dict[str, float], float]:
        vec = {w: k * idf[w] for w, k in Counter(metric_tokenize(text)).items()}
        return vec, math.sqrt(sum(v * v for v in vec.values()))

    out = []
    for cand, refs in zip(candidates, references):
        vc, nc = embed(cand)
        total = 0.0  # a zero-norm side contributes a cosine of 0
        for vr, nr in map(embed, refs):
            if nc and nr:
                dot = sum(v * vr[w] for w, v in vc.items() if w in vr)
                total += dot / (nc * nr)
        out.append(total / len(refs))
    return out


# -- corpus report -----------------------------------------------------------

@dataclass
class ScoredItem:
    id: str
    candidate: str
    references: list[str]
    scores: dict[str, float] = field(default_factory=dict)
    fluency_prob: float = 0.0


@dataclass
class MetricReport:
    corpus: dict[str, float]          # means, scaled x100, 1 decimal
    items: list[ScoredItem]
    flags: dict[str, str]             # computed | supplied | absent
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def read_spice_sidecar(path) -> dict[str, float]:
    """JSON Lines, one object per line: {"id": string, "spice": number}.

    Each score is a finite number in [0, 1]; any other value or record
    raises `MissingSpice` naming its line.
    """
    table: dict[str, float] = {}
    try:
        for lineno, obj in read_jsonl(path, ("id", "spice")):
            key, val = check_string(lineno, obj, "id"), obj["spice"]
            # NaN and the infinities fail the range test too
            if (isinstance(val, bool) or not isinstance(val, (int, float))
                    or not 0.0 <= val <= 1.0):
                raise MissingSpice(f"spice on line {lineno} is {val!r}, "
                                   f"not a number in [0, 1]")
            if key in table:
                raise IdMismatch(f"duplicate spice id {key!r}")
            table[key] = float(val)
    except (MalformedLine, MissingField) as e:
        raise MissingSpice(f"bad spice record, {e}") from e
    return table


def scaled(raw_mean: float) -> float:
    return round(raw_mean * 100.0, 1)


def evaluate_corpus(items: list[ScoredItem], detector=None,
                    spice: dict[str, float] | None = None) -> MetricReport:
    """Score a corpus of (candidate, references) pairs.

    `detector` maps text to a fluency error probability; `spice` is an
    optional external id->score table. SPIDEr needs SPICE and SPIDEr-FL
    both; a score without its inputs is flagged absent, never zeroed.
    """
    if not items:
        raise EmptyCorpus("no items to evaluate")
    warnings: list[str] = []
    if len(items) == 1:
        warnings.append("single_item_corpus: idf degenerates to zero")

    ids = [it.id for it in items]
    if len(set(ids)) != len(ids):
        raise IdMismatch("duplicate item ids")
    candidates = [it.candidate for it in items]
    references = [it.references for it in items]

    # one column of per-item scores per metric, in report order
    columns = {
        "cider_d": cider_d(candidates, references),
        "meteor_lite": [meteor_lite(c, r) for c, r in zip(candidates, references)],
        "fense_proxy": fense_proxy(candidates, references),
    }
    flags = dict.fromkeys(columns, "computed")
    flags.update(fluency="absent", spice="absent", spider="absent",
                 spider_fl="absent")
    probs = None
    if detector is not None:
        probs = [float(detector(c)) for c in candidates]
        flags["fluency"] = "computed"
    if spice is not None:
        missing = [i for i in ids if i not in spice]
        if missing:
            raise IdMismatch(f"spice scores missing for ids {missing[:5]}")
        columns["spice"] = [spice[i] for i in ids]
        columns["spider"] = [spider(c, s) for c, s
                             in zip(columns["cider_d"], columns["spice"])]
        flags.update(spice="supplied", spider="computed")
        if probs is not None:
            columns["spider_fl"] = [spider_fl(s, p) for s, p
                                    in zip(columns["spider"], probs)]
            flags["spider_fl"] = "computed"

    for i, it in enumerate(items):
        it.scores = {name: col[i] for name, col in columns.items()}
        if probs is not None:
            it.fluency_prob = probs[i]
    corpus = {name: scaled(sum(col) / len(col))
              for name, col in columns.items()}
    return MetricReport(corpus=corpus, items=items, flags=flags,
                        warnings=warnings)
