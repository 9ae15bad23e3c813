import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import metrics as mt
from audiocap.metrics import (MetricReport, ScoredItem, cider_d,
                              evaluate_corpus, fense_proxy, meteor_lite,
                              metric_tokenize, read_spice_sidecar, scaled,
                              spider, spider_fl)
from _chunk_oracle import backtrack_chunks, brute_chunks
from _cider_oracle import oracle_cider

WORDS = ["a", "dog", "barks", "rain", "falls", "wind", "blows", "loud"]
# a looping caption, its first 50 tokens
CAR_LOOP = " ".join(("a car drives by" + " and then another car drives by" * 8)
                    .split()[:50])
# 11 synthetic events against 5: the backtracking search runs out of budget
CAPTION_LOOP = " followed by ".join([
    "a downward chirp", "silence", "a noise burst", "an upward chirp",
    "a noise burst", "an upward chirp", "an upward chirp", "a downward chirp",
    "a high tone", "a downward chirp", "silence"])
CAPTION_REF = " followed by ".join([
    "silence", "a downward chirp", "silence", "a noise burst", "a high tone"])


def matches(cand, ref):
    return sum((Counter(cand) & Counter(ref)).values())


def random_corpus(seed, max_items=5):
    r = np.random.Generator(np.random.PCG64(seed))
    n = int(r.integers(2, max_items + 1))
    cands, refs = [], []
    for _ in range(n):
        cands.append(" ".join(r.choice(WORDS, size=int(r.integers(0, 7)))))
        refs.append([" ".join(r.choice(WORDS, size=int(r.integers(1, 7))))
                     for _ in range(int(r.integers(1, 4)))])
    return cands, refs


# -- reference report: the per-score branches evaluate_corpus replaced -------

class TfidfSentenceEmbedder:
    """tf-idf bag-of-words stand-in for a sentence-embedding model."""

    def __init__(self, corpus_texts):
        docs = [set(metric_tokenize(t)) for t in corpus_texts]
        n = max(len(docs), 1)
        df = Counter(w for d in docs for w in d)
        self.idf = {w: math.log((1 + n) / (1 + k)) + 1.0 for w, k in df.items()}

    def embed(self, text):
        counts = Counter(metric_tokenize(text))
        return {w: k * self.idf.get(w, 1.0) for w, k in counts.items()}

    def similarity(self, a, b):
        va, vb = self.embed(a), self.embed(b)
        na = math.sqrt(sum(v * v for v in va.values()))
        nb = math.sqrt(sum(v * v for v in vb.values()))
        if na == 0.0 or nb == 0.0:
            return 0.0
        dot = sum(v * vb[w] for w, v in va.items() if w in vb)
        return dot / (na * nb)


def reference_fense_proxy(candidates, references):
    texts = list(candidates) + [r for refs in references for r in refs]
    embedder = TfidfSentenceEmbedder(texts)
    out = []
    for cand, refs in zip(candidates, references):
        sims = [embedder.similarity(cand, r) for r in refs]
        out.append(sum(sims) / len(sims))
    return out


def reference_evaluate_corpus(items, detector, spice=None):
    """The report JSON built with one branch per optional score."""
    warnings = []
    if len(items) == 1:
        warnings.append("single_item_corpus: idf degenerates to zero")
    ids = [it.id for it in items]
    candidates = [it.candidate for it in items]
    references = [it.references for it in items]

    cider_scores = cider_d(candidates, references)
    meteor_scores = [meteor_lite(c, r) for c, r in zip(candidates, references)]
    proxy_scores = reference_fense_proxy(candidates, references)
    flags = {"cider_d": "computed", "meteor_lite": "computed",
             "fense_proxy": "computed"}

    probs = [float(detector(c)) for c in candidates]
    flags["fluency"] = "computed"

    spice_scores = None
    if spice is not None:
        spice_scores = [spice[i] for i in ids]
        flags["spice"] = "supplied"
    else:
        flags["spice"] = "absent"

    spider_scores = None
    if spice_scores is not None:
        spider_scores = [spider(c, s) for c, s in zip(cider_scores, spice_scores)]
        flags["spider"] = "computed"
    else:
        flags["spider"] = "absent"

    fl_scores = None
    if spider_scores is not None:
        fl_scores = [spider_fl(s, p, penalty=0.9)
                     for s, p in zip(spider_scores, probs)]
        flags["spider_fl"] = "computed"
    else:
        flags["spider_fl"] = "absent"

    rows = []
    for i, it in enumerate(items):
        scores = {"cider_d": cider_scores[i], "meteor_lite": meteor_scores[i],
                  "fense_proxy": proxy_scores[i]}
        if spice_scores is not None:
            scores["spice"] = spice_scores[i]
        if spider_scores is not None:
            scores["spider"] = spider_scores[i]
        if fl_scores is not None:
            scores["spider_fl"] = fl_scores[i]
        rows.append({"id": it.id, "candidate": it.candidate,
                     "references": it.references, "scores": scores,
                     "fluency_prob": probs[i]})

    def mean(xs):
        return sum(xs) / len(xs)

    corpus = {"cider_d": scaled(mean(cider_scores)),
              "meteor_lite": scaled(mean(meteor_scores)),
              "fense_proxy": scaled(mean(proxy_scores))}
    if spice_scores is not None:
        corpus["spice"] = scaled(mean(spice_scores))
    if spider_scores is not None:
        corpus["spider"] = scaled(mean(spider_scores))
    if fl_scores is not None:
        corpus["spider_fl"] = scaled(mean(fl_scores))
    doc = {"corpus": corpus, "flags": flags, "warnings": warnings,
           "items": rows}
    return json.dumps(doc, indent=2, sort_keys=True)


def random_report_inputs(seed):
    """Items, a detector and a SPICE table over one seeded random corpus."""
    r = np.random.Generator(np.random.PCG64(seed))
    n = int(r.integers(1, 7))
    items = [ScoredItem(f"x{i}",
                        " ".join(r.choice(WORDS, size=int(r.integers(0, 13)))),
                        [" ".join(r.choice(WORDS, size=int(r.integers(1, 9))))
                         for _ in range(int(r.integers(1, 5)))])
             for i in range(n)]
    # probabilities on, above and below the 0.90 gate
    probs = {it.candidate: float(r.choice([0.0, 0.3, 0.9, 0.95, 1.0]))
             for it in items}
    spice = {it.id: float(r.random()) for it in items}
    return items, probs.__getitem__, spice


class TestTokenize:
    def test_punctuation_to_space(self):
        assert metric_tokenize("A dog, barking loudly!") == \
            ["a", "dog", "barking", "loudly"]

    def test_apostrophe_splits(self):
        assert metric_tokenize("don't") == ["don", "t"]

    def test_empty(self):
        assert metric_tokenize("  ...  ") == []


class TestCiderD:
    def test_worked_example(self):
        scores = cider_d(["a dog barks", "rain falls"],
                         [["a dog barks", "a dog barks"],
                          ["rain falls", "rain falls"]])
        assert abs(scores[0] - 7.5) < 1e-12
        assert abs(scores[1] - 5.0) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        cands, refs = random_corpus(seed)
        ours = cider_d(cands, refs)
        oracle = oracle_cider(cands, refs)
        assert len(ours) == len(oracle)
        for a, b in zip(ours, oracle):
            assert abs(a - b) < 1e-9

    def test_range(self):
        for seed in range(5):
            cands, refs = random_corpus(100 + seed)
            for s in cider_d(cands, refs):
                assert 0.0 <= s <= 10.0 + 1e-12

    def test_item_order_invariance(self):
        cands, refs = random_corpus(3)
        base = cider_d(cands, refs)
        perm = list(reversed(range(len(cands))))
        swapped = cider_d([cands[i] for i in perm], [refs[i] for i in perm])
        for i, j in enumerate(perm):
            assert abs(swapped[i] - base[j]) < 1e-12

    def test_single_item_idf_degenerates(self):
        assert cider_d(["a dog"], [["a dog"]]) == [0.0]

    def test_count_mismatch(self):
        with pytest.raises(mt.IdMismatch):
            cider_d(["a"], [["a"], ["b"]])

    def test_empty_corpus(self):
        with pytest.raises(mt.EmptyCorpus):
            cider_d([], [])

    def test_item_without_references(self):
        with pytest.raises(mt.EmptyCorpus):
            cider_d(["a", "b"], [["a"], []])


class TestMeteorLite:
    def test_perfect_match_hand_value(self):
        got = meteor_lite("a dog barks", ["a dog barks"])
        assert abs(got - (1.0 - 0.5 / 27.0)) < 1e-5
        assert abs(got - 0.9814814814814815) < 1e-5

    def test_reordered_hand_value(self):
        got = meteor_lite("barks a dog", ["a dog barks"])
        assert abs(got - (1.0 - 0.5 * 8.0 / 27.0)) < 1e-5
        assert abs(got - 0.8518518518518519) < 1e-5

    def test_no_overlap_is_zero(self):
        assert meteor_lite("wind blows", ["a dog barks"]) == 0.0

    def test_empty_candidate_is_zero(self):
        assert meteor_lite("", ["a dog"]) == 0.0

    def test_max_over_references(self):
        refs = ["wind blows", "a dog barks"]
        assert meteor_lite("a dog barks", refs) == \
            meteor_lite("a dog barks", ["a dog barks"])

    def test_chunk_minimization_exact(self):
        # only the alignment a->r1, b->r2, a->r0 achieves two chunks
        assert mt._min_chunks(["a", "b", "a"], ["a", "a", "b"], 3) == 2

    def test_budget_returns_first_descent(self, monkeypatch):
        cand, ref = list("ababc"), list("abcab")
        assert mt._min_chunks(cand, ref, 5) == 2  # ab -> ref 3-4, abc -> 0-2
        monkeypatch.setattr(mt, "_CHUNK_SEARCH_BUDGET", 0)
        # the first descent takes the first free position of each word
        # unless one continues the chunk: a0 b1 | a3 b4 | c2
        assert mt._min_chunks(cand, ref, 5) == 3

    @pytest.mark.parametrize("cand,ref,chunks", [
        ("c c c b a c b b a c a b c c", "c c c a b c c b c c b c a", 6),
        (CAPTION_LOOP, CAPTION_REF, 4),
        (CAR_LOOP, "a car drives by and another car drives by and a car passes", 3),
    ], ids=["letters", "caption", "car-loop"])
    def test_pinned_minima_within_small_budget(self, monkeypatch, cand, ref,
                                               chunks):
        # the budget counts search calls, not wall time, so a busy host
        # cannot fail this guard against the search's exponential tail
        monkeypatch.setattr(mt, "_CHUNK_SEARCH_BUDGET", 1_000)
        c, r = metric_tokenize(cand), metric_tokenize(ref)
        assert mt._min_chunks(c, r, matches(c, r)) == chunks

    def test_bound_tables_grow_linearly(self):
        # 2,000 unmatched words before the matches: the bound tables hold
        # an entry per candidate position, ~0.8 KB each, not a copy of
        # every bigram after it
        cand = [f"w{i}" for i in range(2_000)] + "b a c b a c a b".split()
        ref = "a b c a b c a b c".split()
        tracemalloc.start()
        try:
            chunks = mt._min_chunks(cand, ref, matches(cand, ref))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == 6 and peak < 8e6

    @given(st.lists(st.sampled_from("abc"), max_size=8),
           st.lists(st.sampled_from("abc"), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_chunks_match_brute_force(self, cand, ref):
        m = matches(cand, ref)
        if m:
            assert mt._min_chunks(cand, ref, m) == brute_chunks(cand, ref)

    @given(st.lists(st.sampled_from("abcd"), max_size=14),
           st.lists(st.sampled_from("abcd"), max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_chunks_match_backtracking_reference(self, cand, ref):
        m = matches(cand, ref)
        expected = backtrack_chunks(cand, ref, m) if m else None
        if expected is not None:
            assert mt._min_chunks(cand, ref, m) == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_range_and_self_similarity(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        text = " ".join(r.choice(WORDS, size=int(r.integers(1, 8))))
        other = " ".join(r.choice(WORDS, size=int(r.integers(1, 8))))
        score = meteor_lite(other, [text])
        assert 0.0 <= score <= 1.0
        assert meteor_lite(text, [text]) >= 1.0 - 0.5 / 1.0  # penalty bound


class TestCombiners:
    def test_spider_is_mean(self):
        assert spider(0.4, 0.2) == pytest.approx(0.3)
        assert spider(10.0, 1.0) == pytest.approx(5.5)

    def test_gate_is_strict(self):
        assert spider_fl(0.5, 0.90) == 0.5
        assert spider_fl(0.5, 0.9000001) == pytest.approx(0.05)
        assert spider_fl(0.5, 0.95) == pytest.approx(0.05)

    def test_penalty_one_zeroes(self):
        assert spider_fl(0.5, 0.95, penalty=1.0) == 0.0

    def test_below_gate_unchanged(self):
        assert spider_fl(0.7, 0.0) == 0.7
        assert spider_fl(0.7, 0.5) == 0.7

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            spider_fl(0.5, 1.1)
        with pytest.raises(ValueError):
            spider_fl(0.5, -0.1)

    def test_scaled(self):
        assert scaled(0.330) == 33.0
        assert scaled(0.12345) == 12.3
        assert scaled(0.0) == 0.0


class TestFenseProxy:
    def test_identical_is_one(self):
        out = fense_proxy(["a dog barks", "rain falls"],
                          [["a dog barks"], ["rain falls"]])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        out = fense_proxy(["a dog barks"], [["wind blows hard"]])
        assert out[0] == 0.0

    def test_mean_over_references(self):
        out = fense_proxy(["a dog"], [["a dog", "wind blows"]])
        alone = fense_proxy(["a dog"], [["a dog"]])
        assert out[0] < alone[0]


def fluent(text):
    return 0.0


class TestEvaluateCorpus:
    def items(self):
        return [
            ScoredItem("x1", "a dog barks", ["a dog barks", "a dog barks"]),
            ScoredItem("x2", "rain falls", ["rain falls", "rain falls"]),
        ]

    def test_flags_without_optional_inputs(self):
        report = evaluate_corpus(self.items(), fluent)
        assert report.flags == {
            "cider_d": "computed", "meteor_lite": "computed",
            "fense_proxy": "computed", "fluency": "computed",
            "spice": "absent", "spider": "absent", "spider_fl": "absent"}
        assert "spider" not in report.corpus
        assert "spider" not in report.items[0].scores

    def test_full_stack_with_spice_and_detector(self):
        spice = {"x1": 0.5, "x2": 0.1}
        report = evaluate_corpus(self.items(), detector=lambda t: 0.95,
                                 spice=spice)
        assert report.flags["spice"] == "supplied"
        assert report.flags["spider"] == "computed"
        assert report.flags["spider_fl"] == "computed"
        it = report.items[0]
        assert it.scores["spider"] == pytest.approx(
            (it.scores["cider_d"] + 0.5) / 2.0)
        assert it.scores["spider_fl"] == pytest.approx(
            it.scores["spider"] * 0.1)
        assert it.fluency_prob == 0.95

    def test_detector_without_spice_leaves_spider_fl_absent(self):
        report = evaluate_corpus(self.items(), fluent)
        assert report.flags["fluency"] == "computed"
        assert report.flags["spider_fl"] == "absent"

    def test_corpus_means_scaled_and_rounded(self):
        spice = {"x1": 0.5, "x2": 0.1}
        report = evaluate_corpus(self.items(), fluent, spice=spice)
        for key in ("cider_d", "meteor_lite", "fense_proxy", "spice",
                    "spider", "spider_fl"):
            raw = [it.scores[key] for it in report.items]
            assert report.corpus[key] == round(sum(raw) / len(raw) * 100.0, 1)

    def test_duplicate_ids(self):
        items = self.items()
        items[1].id = "x1"
        with pytest.raises(mt.IdMismatch):
            evaluate_corpus(items, fluent)

    def test_missing_spice_id(self):
        with pytest.raises(mt.IdMismatch):
            evaluate_corpus(self.items(), fluent, spice={"x1": 0.5})

    def test_empty(self):
        with pytest.raises(mt.EmptyCorpus):
            evaluate_corpus([], fluent)

    def test_single_item_warning(self):
        report = evaluate_corpus([self.items()[0]], fluent)
        assert any("single_item" in w for w in report.warnings)
        assert report.items[0].scores["cider_d"] == 0.0

    # the random detector's probabilities straddle the gate; `fluent`
    # never fires
    @pytest.mark.parametrize("random_detector,use_spice", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_report_matches_reference_byte_for_byte(self, random_detector,
                                                    use_spice):
        for seed in range(75):
            items, detector, spice = random_report_inputs(seed)
            kwargs = {"detector": detector if random_detector else fluent,
                      "spice": spice if use_spice else None}
            want = reference_evaluate_corpus(items, **kwargs)
            assert evaluate_corpus(items, **kwargs).to_json() == want

    def test_to_json_round_trip(self):
        report = evaluate_corpus(self.items(), fluent)
        doc = json.loads(report.to_json())
        assert doc["corpus"] == report.corpus
        assert doc["items"][0]["id"] == "x1"
        assert doc["flags"]["spice"] == "absent"


class TestSpiceSidecar:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 0.25}\n'
                        '\n'
                        '{"id": "b", "spice": 0.5}\n')
        assert read_spice_sidecar(path) == {"a": 0.25, "b": 0.5}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 0.25}\nnot json\n')
        with pytest.raises(mt.MissingSpice, match="line 2"):
            read_spice_sidecar(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(mt.MissingSpice):
            read_spice_sidecar(path)

    def test_non_utf8_line_reports_number(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_bytes(b'{"id": "a", "spice": 0.25}\n'
                         b'{"id": "\xff", "spice": 0.5}\n')
        with pytest.raises(mt.MissingSpice, match="line 2: not UTF-8"):
            read_spice_sidecar(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 0.1}\n{"id": "a", "spice": 0.2}\n')
        with pytest.raises(mt.IdMismatch):
            read_spice_sidecar(path)

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "true", '"7"', "-3", "1.5", "null",
    ])
    def test_value_not_a_score_reports_line(self, tmp_path, value):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 1}\n'
                        '{"id": "b", "spice": %s}\n' % value)
        with pytest.raises(mt.MissingSpice, match="line 2"):
            read_spice_sidecar(path)

    @pytest.mark.parametrize("ident", ["7", "null", '""', '["b"]'])
    def test_id_not_a_string_reports_line(self, tmp_path, ident):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 1}\n'
                        '{"id": %s, "spice": 0.5}\n' % ident)
        with pytest.raises(mt.MissingSpice, match="line 2"):
            read_spice_sidecar(path)

    def test_unit_interval_ends_accepted(self, tmp_path):
        path = tmp_path / "spice.jsonl"
        path.write_text('{"id": "a", "spice": 0}\n{"id": "b", "spice": 1.0}\n')
        assert read_spice_sidecar(path) == {"a": 0.0, "b": 1.0}
