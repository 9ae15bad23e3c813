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
_CHUNK_SEARCH_BUDGET = 50_000  # search calls, <0.4 s: minimum chunking is NP-hard


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

    A link is two adjacent candidate matches on adjacent reference
    positions; chunks = m - links. A depth-first search over candidate
    positions maximises links. A match tries first the reference position
    that continues the current chunk, and the first descent matches while
    a match of the word is left, so it completes an alignment. After it, a
    branch must be able to beat the best under two admissible bounds on
    the links still possible between free reference positions: per bigram,
    the smaller of its counts there and in the rest of the candidate; per
    run of free positions, its length less its fewest pieces that occur in
    the rest of the candidate. The search stops at one chunk, or past
    `_CHUNK_SEARCH_BUDGET` calls with the best alignment found.
    """
    n, r = len(cand), len(ref)
    left = Counter(cand) & Counter(ref)  # matches still to place, per word
    spare, after = [0] * n, Counter()  # spare[i]: cand[i]'s count in cand[i + 1:]
    for i in range(n - 1, -1, -1):
        spare[i] = after[cand[i]]
        after[cand[i]] += 1
    places = {w: [j for j, t in enumerate(ref) if t == w] for w in left}
    bigrams = list(zip(ref, ref[1:]))
    wanted = set(bigrams)
    free, rest, best, nodes = [True] * r, [], -1, 0

    def bound(ci: int, last: int) -> int:
        if not rest:  # per ci: cand[ci:]'s counts of the reference bigrams,
            # and per reference position the longest run from it in cand[ci:]
            pairs, run, reach = Counter(), [0] * (r + 1), [0] * (r + 1)
            for i in range(n - 1, -1, -1):
                run = [run[p + 1] + 1 if cand[i] == ref[p] else 0
                       for p in range(r)] + [0]
                reach = [max(a, b) for a, b in zip(run, reach)]
                pair = tuple(cand[i:i + 2])
                if pair in wanted:  # a copy: the positions past i keep theirs
                    pairs = pairs.copy()
                    pairs[pair] += 1
                rest.append((pairs, reach))
            rest.reverse()
        pairs, reach = rest[ci]
        seen, by_pair, by_run, start = {}, 0, 0, 0
        for j, pair in enumerate(bigrams):
            if free[j] and free[j + 1]:
                seen[pair] = k = seen.get(pair, 0) + 1
                by_pair += k <= pairs.get(pair, 0)
                if j + 2 - start <= reach[start]:
                    by_run += 1
                    continue
            start = j + 1
        attach = (last >= 0 and last + 1 < r and free[last + 1]
                  and ref[last + 1] == cand[ci])
        return attach + min(by_pair, by_run)

    def search(ci: int, last: int, links: int, todo: int):
        """Decide position ci; last = the reference position of ci-1, or -2.
        Yields each child call's arguments, in order, to the stack below."""
        nonlocal best, nodes
        nodes += 1
        if todo == 0:
            best = max(best, links)
            return
        if best >= 0 and (nodes > _CHUNK_SEARCH_BUDGET or best == m - 1
                          or links + todo <= best or links + bound(ci, last) <= best):
            return
        w = cand[ci]
        if left[w]:
            left[w] -= 1
            for j in sorted((j for j in places[w] if free[j]),
                            key=lambda j: j != last + 1):
                free[j] = False
                yield ci + 1, j, links + (j == last + 1), todo - 1
                free[j] = True
            left[w] += 1
        if spare[ci] >= left[w]:
            yield ci + 1, -2, links, todo

    stack = [search(0, -2, 0, m)]  # no recursion: a frame per position
    while stack:
        call = next(stack[-1], None)
        if call is None:
            stack.pop()
        else:
            stack.append(search(*call))
    return m - best


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


def evaluate_corpus(items: list[ScoredItem], detector,
                    spice: dict[str, float] | None = None) -> MetricReport:
    """Score a corpus of (candidate, references) pairs.

    `detector` maps text to a fluency error probability; `spice` is an
    optional external id->score table. SPIDEr and SPIDEr-FL need SPICE;
    without it they are flagged absent, never zeroed.
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
    flags.update(fluency="computed", spice="absent", spider="absent",
                 spider_fl="absent")
    probs = [float(detector(c)) for c in candidates]
    if spice is not None:
        missing = [i for i in ids if i not in spice]
        if missing:
            raise IdMismatch(f"spice scores missing for ids {missing[:5]}")
        columns["spice"] = [spice[i] for i in ids]
        columns["spider"] = [spider(c, s) for c, s
                             in zip(columns["cider_d"], columns["spice"])]
        columns["spider_fl"] = [spider_fl(s, p) for s, p
                                in zip(columns["spider"], probs)]
        flags.update(spice="supplied", spider="computed", spider_fl="computed")

    for i, it in enumerate(items):
        it.scores = {name: col[i] for name, col in columns.items()}
        it.fluency_prob = probs[i]
    corpus = {name: scaled(sum(col) / len(col))
              for name, col in columns.items()}
    return MetricReport(corpus=corpus, items=items, flags=flags,
                        warnings=warnings)
