import json
import math
from collections import Counter

import metrics_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragcap import metrics
from ragcap.metrics import (_lcs_length, brevity_penalty, evaluate_corpus,
                            normalize_words)


def _item0(cand: str, refs: list[str]) -> dict:
    """The per-item scores of (cand, refs) as item 0 of a two-item corpus:
    CIDEr's idf needs two items, and BLEU-1 and ROUGE-L per item do not
    depend on the other item."""
    return evaluate_corpus([cand, "x"], [refs, ["x"]]).per_item[0]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_words():
    assert normalize_words("A Dog, barks!") == ["a", "dog", "barks"]
    assert normalize_words("  ") == []


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_identity_all_orders():
    cands = ["a dog barks in the yard", "rain falls on the roof"]
    refs = [[c] for c in cands]
    for b in evaluate_corpus(cands, refs).bleu:
        assert b == pytest.approx(1.0, abs=1e-12)


def test_bleu1_hand_example_two_thirds():
    assert _item0("a b c", ["a b d"])["bleu1"] == pytest.approx(2 / 3,
                                                                abs=1e-6)


def test_bleu1_clipping_hand_example():
    # "a a a" vs "a b": the unigram "a" is clipped to the reference count 1,
    # so precision is 1/3; the candidate is longer than the reference so the
    # brevity penalty is 1
    assert _item0("a a a", ["a b"])["bleu1"] == pytest.approx(1 / 3, abs=1e-6)


def test_brevity_penalty_values():
    assert brevity_penalty(3, 2) == 1.0   # candidate longer: no penalty
    assert brevity_penalty(2, 2) == 1.0
    assert brevity_penalty(2, 3) == pytest.approx(math.exp(1 - 3 / 2),
                                                  abs=1e-12)
    assert brevity_penalty(0, 3) == 0.0


def test_bleu_closest_ref_length_prefers_shorter_tie():
    # candidate length 3; refs of length 2 and 4 tie -> use 2 -> BP = 1
    score = _item0("a b c", ["a b", "a b c d"])["bleu1"]
    assert score == pytest.approx(1.0, abs=1e-9)


def test_bleu_monotone_nonincreasing_in_n():
    cands = ["a dog barks loudly in the yard", "the cat sleeps on the mat"]
    refs = [["a dog barks in the yard"], ["the cat sits on the mat"]]
    scores = evaluate_corpus(cands, refs).bleu
    for lo, hi in zip(scores[1:], scores[:-1]):
        assert lo <= hi + 1e-12


def test_bleu_no_match_is_zero():
    report = evaluate_corpus(["x y", "p q"], [["a b"], ["c d"]])
    assert report.bleu == [0.0] * 4
    assert [item["bleu1"] for item in report.per_item] == [0.0, 0.0]


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        evaluate_corpus([], [])


def test_bleu_reference_order_invariant():
    cands = ["a b c", "x y"]
    a = evaluate_corpus(cands, [["a b c", "x y z"], ["x y"]])
    b = evaluate_corpus(cands, [["x y z", "a b c"], ["x y"]])
    assert a.bleu == b.bleu


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def test_rouge_identity():
    report = evaluate_corpus(["a b c", "d e"], [["a b c"], ["d e"]])
    assert report.rouge_l == pytest.approx(1.0, abs=1e-12)


def test_rouge_hand_example():
    # LCS("a b c d", "a c b d") = 3 (e.g. "a b d"); P = R = 3/4
    assert _item0("a b c d", ["a c b d"])["rouge_l"] == pytest.approx(
        0.75, abs=1e-6)


def test_rouge_disjoint_zero():
    assert evaluate_corpus(["x y", "p q"], [["a b"], ["c d"]]).rouge_l == 0.0


def test_rouge_beta_weighting():
    # cand "a b", ref "a b c": P = 1, R = 2/3; beta favors recall
    p, r, beta = 1.0, 2 / 3, 1.2
    expected = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
    assert _item0("a b", ["a b c"])["rouge_l"] == pytest.approx(expected,
                                                                abs=1e-9)


def test_rouge_max_over_references():
    score = _item0("a b c", ["x y z", "a b c"])["rouge_l"]
    assert score == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------

def _cider_oracle(candidates, reference_sets, sigma=6.0, max_n=4):
    """Straightforward reimplementation used as an independent check."""
    def ngrams(ws, n):
        return Counter(tuple(ws[i:i + n]) for i in range(len(ws) - n + 1))

    df = Counter()
    for refs in reference_sets:
        seen = set()
        for ref in refs:
            ws = normalize_words(ref)
            for n in range(1, max_n + 1):
                seen |= set(ngrams(ws, n))
        for g in seen:
            df[g] += 1

    log_total = math.log(len(candidates))
    scores = []
    for cand, refs in zip(candidates, reference_sets):
        cw = normalize_words(cand)
        acc = [0.0] * max_n
        for ref in refs:
            rw = normalize_words(ref)
            gauss = math.exp(-((len(cw) - len(rw)) ** 2) / (2 * sigma ** 2))
            for n in range(1, max_n + 1):
                cg, rg = ngrams(cw, n), ngrams(rw, n)
                weight = {g: log_total - math.log(max(1.0, df[g]))
                          for g in set(cg) | set(rg)}
                num = sum(min(cg[g], rg[g]) * weight[g] * rg[g] * weight[g]
                          for g in cg)
                cnorm = math.sqrt(sum((c * weight[g]) ** 2
                                      for g, c in cg.items()))
                rnorm = math.sqrt(sum((c * weight[g]) ** 2
                                      for g, c in rg.items()))
                if cnorm > 0 and rnorm > 0:
                    acc[n - 1] += gauss * num / (cnorm * rnorm)
        scores.append(10.0 * sum(a / len(refs) for a in acc) / max_n)
    return sum(scores) / len(scores), scores


_CORPUS_CANDS = [
    "a dog barks in the yard",
    "rain falls on the tin roof",
    "a dog barks",
    "the engine rumbles near the road",
    "birds sing in the quiet garden",
]
_CORPUS_REFS = [
    ["a dog barks in the yard", "a hound bays outside"],
    ["rain patters on a roof"],
    ["a dog barks loudly in the yard"],
    ["an engine idles by the road", "the motor rumbles"],
    ["birds chirp in the garden"],
]


def test_cider_matches_independent_oracle():
    report = evaluate_corpus(_CORPUS_CANDS, _CORPUS_REFS)
    oracle_mean, oracle_items = _cider_oracle(_CORPUS_CANDS, _CORPUS_REFS)
    assert report.cider == pytest.approx(oracle_mean, abs=1e-6)
    for item, want in zip(report.per_item, oracle_items):
        assert item["cider"] == pytest.approx(want, abs=1e-6)


def test_cider_disjoint_zero():
    report = evaluate_corpus(["x y z", "p q r"], [["a b c"], ["d e f"]])
    assert report.cider == 0.0


def test_cider_order_invariant():
    a = evaluate_corpus(_CORPUS_CANDS, _CORPUS_REFS).cider
    perm = [3, 1, 4, 0, 2]
    b = evaluate_corpus([_CORPUS_CANDS[i] for i in perm],
                        [_CORPUS_REFS[i] for i in perm]).cider
    assert a == pytest.approx(b, abs=1e-12)


def test_cider_needs_two_items():
    with pytest.raises(ValueError, match="CIDEr"):
        evaluate_corpus(["a"], [["a"]])


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_evaluate_corpus_self_scores_one():
    report = evaluate_corpus(_CORPUS_CANDS, [[c] for c in _CORPUS_CANDS])
    for b in report.bleu:
        assert b == pytest.approx(1.0, abs=1e-12)
    assert report.rouge_l == pytest.approx(1.0, abs=1e-12)
    assert report.cider > 0


def test_empty_candidate_warns_and_scores_zero(caplog):
    with caplog.at_level("WARNING", logger="ragcap.metrics"):
        report = evaluate_corpus(["", "a b"], [["a b"], ["a b"]])
    assert any("empty" in r.message for r in caplog.records)
    assert report.per_item[0]["bleu1"] == 0.0
    assert report.per_item[0]["rouge_l"] == 0.0


def test_report_roundtrip_and_table():
    report = evaluate_corpus(_CORPUS_CANDS, _CORPUS_REFS)
    assert json.loads(report.to_json()) == report.to_dict()
    lines = report.table().strip().split("\n")
    assert lines[0].split("\t") == ["B-1", "B-2", "B-3", "B-4", "CIDEr",
                                    "ROUGE-L"]
    assert len(lines[1].split("\t")) == 6


def test_mismatched_counts_rejected():
    with pytest.raises(ValueError):
        evaluate_corpus(["a"], [["a"], ["b"]])
    with pytest.raises(ValueError):
        evaluate_corpus(["a", "b"], [["a"], []])


# ---------------------------------------------------------------------------
# oracle: the one-pass metrics against the pre-rewrite definitions
# ---------------------------------------------------------------------------

# few distinct words so that n-grams repeat within and across sentences;
# case and punctuation variants normalize onto them or onto nothing
_TOKENS = ["a", "dog", "Dog", "barks", "the", "the,", "rain", "falls!", ",",
           "...", "?!"]
_SENTENCE = st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join)
_ITEM = st.tuples(_SENTENCE, st.lists(_SENTENCE, min_size=1, max_size=5))


_CORPUS = st.lists(_ITEM, min_size=2, max_size=6).map(
    lambda items: ([c for c, _ in items], [rs for _, rs in items]))


@settings(max_examples=150, deadline=None)
@given(_CORPUS)
def test_evaluate_corpus_matches_pre_rewrite_oracle(corpus):
    cands, refs = corpus
    assert (evaluate_corpus(cands, refs).to_json()
            == ref.evaluate_corpus(cands, refs).to_json())


@settings(max_examples=100, deadline=None)
@given(_CORPUS)
def test_bleu_and_rouge_match_pre_rewrite_oracle(corpus):
    """Each BLEU and ROUGE-L score of the report against the oracle's own
    scorer for it."""
    cands, refs = corpus
    report = evaluate_corpus(cands, refs)
    assert report.bleu == [ref.bleu_n(cands, refs, n) for n in range(1, 5)]
    assert report.rouge_l == ref.rouge_l(cands, refs)
    for item, c, rs in zip(report.per_item, cands, refs):
        assert item["bleu1"] == ref.bleu_n([c], [rs], 1)
        assert item["rouge_l"] == ref.rouge_l_sentence(c, rs)


def test_oracle_corpora_cover_the_edge_cases():
    """The hand-picked corpus of the edge cases the generated ones aim at:
    empty and punctuation-only candidates, repeated words, five references,
    candidates longer and shorter than their references."""
    cands = ["", ", ...", "dog dog dog dog the dog", "a", "the rain falls"]
    refs = [["a dog"], ["rain falls"],
            ["the dog barks", "a dog", "dog", "the the dog", "a dog barks"],
            ["a dog barks at the rain"], ["rain", "the rain falls!"]]
    assert (evaluate_corpus(cands, refs).to_json()
            == ref.evaluate_corpus(cands, refs).to_json())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=150),
       st.lists(st.sampled_from("abc"), max_size=150))
def test_bit_parallel_lcs_matches_dp_oracle(a, b):
    """Three words, so that words repeat; up to 150 of them, so that the
    masks outgrow 64 bits; either side may be empty."""
    assert _lcs_length(a, b) == ref._lcs_length(a, b)


def test_each_distinct_text_is_normalized_once(monkeypatch):
    calls = Counter()
    real = metrics.normalize_words

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(metrics, "normalize_words", counting)
    # candidates repeat across items and equal references of other items
    cands = ["a dog barks", "rain falls", "a dog barks", "the rain falls"]
    refs = [["rain falls", "a dog barks loudly"], ["a dog barks"],
            ["the rain falls", "rain falls"], ["a dog barks"]]
    report = evaluate_corpus(cands, refs)
    distinct = set(cands) | {r for rs in refs for r in rs}
    assert calls == Counter(distinct)
    assert report.to_json() == ref.evaluate_corpus(cands, refs).to_json()


@st.composite
def _repeating_corpus(draw):
    """Candidates drawn from the references and from a few other texts,
    so that they repeat each other and equal references, as the top-1
    retrieved captions of scope ii do."""
    refs = draw(st.lists(st.lists(_SENTENCE, min_size=1, max_size=4),
                         min_size=2, max_size=6))
    pool = ([r for rs in refs for r in rs]
            + draw(st.lists(_SENTENCE, min_size=1, max_size=3)))
    return [draw(st.sampled_from(pool)) for _ in refs], refs


@settings(max_examples=150, deadline=None)
@given(_repeating_corpus())
def test_repeated_texts_match_pre_rewrite_oracle(corpus):
    cands, refs = corpus
    assert (evaluate_corpus(cands, refs).to_json()
            == ref.evaluate_corpus(cands, refs).to_json())
