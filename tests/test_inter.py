import json
import random

import pytest
from hypothesis import given, strategies as st

from si_align.corpus import AlignedPair, ParseError, Pos, Token, ValidationError
from si_align.inter import (REFERENCE, SCORE, InterFilterParams, RefEntry, SpanTable,
                            apply_inter_filter, chrf_scores, read_external_scores,
                            read_reference_jsonl, references_text)

from conftest import doc
from oracles import reference_chrf


def ref_for(talk_id, entries, path=None):
    return SpanTable(REFERENCE, talk_id, entries, path=path)


def ref_entry(text, tags=None):
    surfaces = text.split()
    tags = tags or [Pos.NOUN] * len(surfaces)
    return RefEntry(text=text, tokens=tuple(Token(s, p) for s, p in zip(surfaces, tags)))


def decide(document, ref, pair):
    """The filter's decision on one pair, nouns as the content words."""
    _, decisions = apply_inter_filter([pair], document, ref,
                                      InterFilterParams(coverage_pos=frozenset({Pos.NOUN})))
    return decisions[0]


# ---------------------------------------------------------------------------
# alpha

def test_alpha_full_coverage_when_equal():
    document = doc(["src a"], ["kamo tesu rindo"])
    ref = ref_for("t0", {(0, 1): ref_entry("kamo tesu rindo")})
    pair = AlignedPair(0, 1, 0, 1, 0.0)
    assert decide(document, ref, pair).alpha == 1.0


def test_alpha_zero_when_nothing_covered():
    document = doc(["src a"], ["xxxx yyyy"])
    ref = ref_for("t0", {(0, 1): ref_entry("kamo tesu")})
    pair = AlignedPair(0, 1, 0, 1, 0.0)
    assert decide(document, ref, pair).alpha == 0.0


def test_alpha_three_of_four():
    document = doc(["src a"], ["kamo tesu rindo junk"])
    ref = ref_for("t0", {(0, 1): ref_entry("kamo tesu rindo bakel")})  # 4 content tokens
    pair = AlignedPair(0, 1, 0, 1, 0.0)
    assert decide(document, ref, pair).alpha == pytest.approx(0.75)


def test_alpha_one_when_no_content_tokens():
    document = doc(["src a"], ["whatever"])
    ref = ref_for("t0", {(0, 1): ref_entry("wa no", tags=[Pos.OTHER, Pos.OTHER])})
    pair = AlignedPair(0, 1, 0, 1, 0.0)
    assert decide(document, ref, pair).alpha == 1.0


def test_alpha_missing_reference_names_span():
    document = doc(["src a"], ["kamo"])
    ref = ref_for("t0", {}, path="refs/t0.refs.jsonl")
    with pytest.raises(ParseError) as err:
        decide(document, ref, AlignedPair(0, 1, 0, 1, 0.0))
    assert "start=0" in str(err.value)
    assert str(err.value) == "no reference translation for t0 span (start=0, len=1) " \
                             "[refs/t0.refs.jsonl]"


# ---------------------------------------------------------------------------
# gamma

def test_gamma_one_when_equal():
    document = doc(["s"], ["kamo tesu"])
    ref = ref_for("t0", {(0, 1): ref_entry("kamo tesu")})
    assert decide(document, ref, AlignedPair(0, 1, 0, 1, 0.0)).gamma == pytest.approx(1.0)


def test_gamma_two_when_double():
    document = doc(["s"], ["aabbccdd"])
    ref = ref_for("t0", {(0, 1): ref_entry("abcd")})
    assert decide(document, ref, AlignedPair(0, 1, 0, 1, 0.0)).gamma == pytest.approx(2.0)


def test_gamma_hand_counted_fixture():
    document = doc(["s"], ["kamo tesu", "rin"])   # chars: 8 + 3 = 11
    ref = ref_for("t0", {(0, 1): ref_entry("abc defg")})  # 7 chars
    got = decide(document, ref, AlignedPair(0, 1, 0, 2, 0.0)).gamma
    assert got == pytest.approx(11 / 7, abs=1e-9)


def test_gamma_empty_reference_rejected():
    document = doc(["s"], ["kamo"])
    ref = ref_for("t0", {(0, 1): RefEntry(text="", tokens=())})
    with pytest.raises(ValidationError):
        decide(document, ref, AlignedPair(0, 1, 0, 1, 0.0))


# ---------------------------------------------------------------------------
# eta (builtin character n-gram F-score)

def chrf_oracle(hyp, ref, max_order=6, beta=2.0):
    """Independent re-implementation: plain dict counting, explicit loops."""
    hyp = "".join(hyp.split())
    ref = "".join(ref.split())
    if not hyp and not ref:
        return 1.0
    ps, rs = [], []
    for n in range(1, max_order + 1):
        hgrams, rgrams = {}, {}
        for i in range(len(hyp) - n + 1):
            g = hyp[i:i + n]
            hgrams[g] = hgrams.get(g, 0) + 1
        for i in range(len(ref) - n + 1):
            g = ref[i:i + n]
            rgrams[g] = rgrams.get(g, 0) + 1
        th, tr = sum(hgrams.values()), sum(rgrams.values())
        if th == 0 and tr == 0:
            continue
        match = 0
        for g, c in hgrams.items():
            match += min(c, rgrams.get(g, 0))
        ps.append(match / th if th else 0.0)
        rs.append(match / tr if tr else 0.0)
    if not ps:
        return 0.0
    p = sum(ps) / len(ps)
    r = sum(rs) / len(rs)
    if p == 0 and r == 0:
        return 0.0
    return (1 + beta * beta) * p * r / (beta * beta * p + r)


def test_eta_identity():
    assert chrf_scores([("kamo tesu", "kamo tesu")]) == [1.0]
    assert chrf_scores([("ab", "ab")]) == [1.0]  # shorter than max order


def test_eta_disjoint_zero():
    assert chrf_scores([("aaaa", "zzzz")]) == [0.0]


def test_eta_matches_oracle_on_random_pairs():
    rng = random.Random(99)
    alphabet = "abcdef "
    for _ in range(100):
        f = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        t = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        assert chrf_scores([(f, t)])[0] == pytest.approx(chrf_oracle(f, t), abs=1e-9)


# ASCII, composed and decomposed é, CJK, full-width forms that NFKC folds,
# three kinds of whitespace, and a lone surrogate as JSON can carry it
CHRF_CHARS = ["a", "b", "c", "é", "e\u0301", "字", "ｱ", "１", "1", " ", "\t", "\u3000", "\ud800"]
chrf_texts = st.lists(st.sampled_from(CHRF_CHARS), max_size=12).map("".join)


@given(st.lists(st.tuples(chrf_texts, chrf_texts), max_size=6))
def test_chrf_scores_match_oracle_bit_for_bit(text_pairs):
    got = chrf_scores(text_pairs)
    assert [s.hex() for s in got] == [reference_chrf(f, t).hex() for f, t in text_pairs]


def test_external_scorer_lookup_and_missing():
    scores = SpanTable(SCORE, "t0", {(0, 1): 0.42}, path="scores.tsv")
    assert scores[(0, 1)] == 0.42
    with pytest.raises(ParseError) as err:
        scores[(5, 1)]
    assert str(err.value) == "no external score for t0 span (start=5, len=1) [scores.tsv]"


# ---------------------------------------------------------------------------
# apply_inter_filter

def _setup(n=4):
    texts = [f"kamo{i} tesu{i} rindo{i}" for i in range(n)]
    document = doc([f"s{i}" for i in range(n)], texts)
    ref = ref_for("t0", {(i, 1): ref_entry(texts[i]) for i in range(n)})
    pairs = [AlignedPair(i, 1, i, 1, 0.0) for i in range(n)]
    return document, ref, pairs


def test_all_equal_all_kept():
    document, ref, pairs = _setup()
    kept, decisions = apply_inter_filter(pairs, document, ref, InterFilterParams())
    assert kept == pairs
    assert all(d.reasons == () for d in decisions)
    assert all(d.alpha == 1.0 and d.gamma == pytest.approx(1.0) and d.eta == 1.0
               for d in decisions)


def test_gamma_low_dropped_as_under_translation():
    document = doc(["s0"], ["ka"])
    ref = ref_for("t0", {(0, 1): ref_entry("kamo tesu rindo bakel stogu")})
    pairs = [AlignedPair(0, 1, 0, 1, 0.0)]
    kept, decisions = apply_inter_filter(pairs, document, ref, InterFilterParams())
    assert kept == []
    assert "gamma_low" in decisions[0].reasons


@pytest.mark.parametrize("broken,named", [
    ({0: "score", 1: "reference"}, ("scores.tsv", 0)),
    ({0: "reference", 1: "score"}, ("refs.jsonl", 0)),
    ({1: "score", 2: "reference"}, ("scores.tsv", 1)),
    ({1: "reference", 2: "score"}, ("refs.jsonl", 1)),
    ({1: "reference score", 2: "score"}, ("refs.jsonl", 1)),
])
def test_first_broken_pair_is_reported(broken, named):
    """With several broken pairs, the error names the first in pair order,
    and the file it lacks: its reference's or its external score's, the
    reference's when it lacks both."""
    document, ref, pairs = _setup(4)
    entries = {span: e for span, e in ref.items() if "reference" not in broken.get(span[0], "")}
    scores = {(i, 1): 0.5 for i in range(4) if "score" not in broken.get(i, "")}
    with pytest.raises(ParseError) as err:
        apply_inter_filter(pairs, document, ref_for("t0", entries, path="refs.jsonl"),
                           InterFilterParams(), scores=SpanTable(SCORE, "t0", scores,
                                                                 path="scores.tsv"))
    path, start = named
    assert (err.value.path, err.value.line) == (path, None)
    assert err.value.message.endswith(f"for t0 span (start={start}, len=1)")


def test_empty_reference_before_later_missing_score():
    document, ref, pairs = _setup(3)
    entries = {**ref, (0, 1): RefEntry(text="", tokens=())}
    with pytest.raises(ValidationError, match=r"span \(0, 1\)"):
        apply_inter_filter(pairs, document, ref_for("t0", entries), InterFilterParams(),
                           scores=SpanTable(SCORE, "t0", {(0, 1): 0.5}))


def test_every_pair_gets_exactly_one_decision():
    document, ref, pairs = _setup(6)
    kept, decisions = apply_inter_filter(pairs, document, ref, InterFilterParams())
    assert len(decisions) == 6
    assert len(kept) + sum(1 for d in decisions if d.reasons) == 6


def _random_case(rng, n=12):
    src = [f"s{i}" for i in range(n)]
    tgt, entries = [], {}
    for i in range(n):
        words = [f"w{i}{k}" for k in range(rng.randint(1, 5))]
        ref_words = [f"w{i}{k}" for k in range(rng.randint(1, 5))]
        tgt.append(" ".join(words))
        entries[(i, 1)] = ref_entry(" ".join(ref_words))
    document = doc(src, tgt)
    ref = ref_for("t0", entries)
    pairs = [AlignedPair(i, 1, i, 1, 0.0) for i in range(n)]
    return document, ref, pairs


def test_kept_set_matches_independent_predicate():
    rng = random.Random(5150)
    params = InterFilterParams()
    for _ in range(25):
        document, ref, pairs = _random_case(rng)
        kept, decisions = apply_inter_filter(pairs, document, ref, params)
        expected, alphas_gammas = [], []
        for pair in pairs:
            entry = ref[(pair.src_start, pair.src_len)]
            f_text = document.tgt_text(pair.tgt_start, pair.tgt_len)
            # alpha: the reference's content surfaces found in F; gamma: the
            # ratio of non-whitespace character counts, F over the reference
            content = [tok.surface for tok in entry.tokens if tok.pos in params.coverage_pos]
            covered = sum(surface in f_text for surface in content)
            alpha = covered / len(content) if content else 1.0
            gamma = len("".join(f_text.split())) / len("".join(entry.text.split()))
            eta = chrf_oracle(f_text, entry.text)
            alphas_gammas.append((alpha, gamma))
            if (alpha >= params.alpha_min and params.gamma_min <= gamma <= params.gamma_max
                    and eta >= params.eta_min):
                expected.append(pair.key())
        assert [p.key() for p in kept] == expected
        assert [(d.alpha, d.gamma) for d in decisions] == alphas_gammas
        for d in decisions:
            assert 0.0 <= d.alpha <= 1.0 and 0.0 <= d.eta <= 1.0 and d.gamma > 0.0
        # a pair is kept exactly when its decision gives no reason
        assert [d.pair.key() for d in decisions if not d.reasons] == expected


def test_threshold_subset_monotonicity():
    rng = random.Random(31337)
    settings = [
        InterFilterParams(alpha_min=0.2, gamma_min=0.2, gamma_max=2.5, eta_min=0.1),
        InterFilterParams(alpha_min=0.5, gamma_min=0.4, gamma_max=1.6, eta_min=0.35),
        InterFilterParams(alpha_min=0.8, gamma_min=0.7, gamma_max=1.2, eta_min=0.6),
    ]
    for _ in range(10):
        document, ref, pairs = _random_case(rng)
        kept_sets = []
        for params in settings:
            kept, _ = apply_inter_filter(pairs, document, ref, params)
            kept_sets.append({p.key() for p in kept})
        assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]


def test_params_validation():
    with pytest.raises(ValidationError):
        InterFilterParams(alpha_min=1.5)
    with pytest.raises(ValidationError):
        InterFilterParams(gamma_min=1.6, gamma_max=0.4)
    with pytest.raises(ValidationError):
        InterFilterParams(coverage_pos=frozenset())


def test_reference_round_trip(tmp_path):
    _, ref, _ = _setup(3)
    path = tmp_path / "refs.jsonl"
    path.write_text(references_text(ref), encoding="utf-8")
    loaded = read_reference_jsonl(path, "t0")
    assert loaded == ref and loaded.talk_id == ref.talk_id == "t0"


def test_reference_tokens_built_once_per_file(tmp_path):
    rows = [{"talk_id": "t0", "src_start": i, "src_len": 1, "text": "kamo tesu",
             "tokens": [["kamo", "NOUN"], ["tesu", "VERB"]]} for i in range(3)]
    path = tmp_path / "refs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    entries = read_reference_jsonl(path, "t0")
    assert entries[(0, 1)].tokens == (Token("kamo", Pos.NOUN), Token("tesu", Pos.VERB))
    assert all(a is b for a, b in zip(entries[(0, 1)].tokens, entries[(2, 1)].tokens))


@pytest.mark.parametrize("token,message", [(["kamo", "NUON"], "POS tag 'NUON' outside the tag"),
                                           ([5, "NOUN"], "surface must be a string"),
                                           (["kamo", ["NOUN"]], "unhashable"),
                                           (["kamo"], "values to unpack"),
                                           (["\u3000", "NOUN"], "empty token surface")])
def test_bad_reference_token_names_line(tmp_path, token, message):
    good = {"talk_id": "t0", "src_start": 0, "src_len": 1, "text": "kamo",
            "tokens": [["kamo", "NOUN"]]}
    path = tmp_path / "refs.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "tokens": [token]}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=message) as err:
        read_reference_jsonl(path, "t0")
    assert f"{path}:2" in str(err.value)


def test_reference_token_surfaces_normalized(tmp_path):
    """A reference token is NFKC-normalized like the target text, so a
    full-width token covers its own occurrence."""
    row = {"talk_id": "t0", "src_start": 0, "src_len": 1, "text": "ＡＢＣ xyz",
           "tokens": [["ＡＢＣ", "NOUN"], ["xyz", "OTHER"]]}
    path = tmp_path / "refs.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    ref = read_reference_jsonl(path, "t0")
    assert ref[(0, 1)].tokens == (Token("ABC", Pos.NOUN), Token("xyz", Pos.OTHER))
    decision = decide(doc(["s"], ["ABC xyz"], talk_id="t0"), ref, AlignedPair(0, 1, 0, 1, 0.0))
    assert decision.alpha == 1.0


def test_external_scores_file(tmp_path):
    """One table per talk, each naming the file; a repeated span keeps its
    last row."""
    path = tmp_path / "scores.tsv"
    path.write_text("t0\t0\t1\t0.91\nt1\t0\t1\t0.5\nt0\t1\t2\t0.13\nt0\t0\t1\t0.25\n",
                    encoding="utf-8")
    scores = read_external_scores(path)
    assert scores == {"t0": {(0, 1): 0.25, (1, 2): 0.13}, "t1": {(0, 1): 0.5}}
    assert all((table.noun, table.talk_id, table.path) == (SCORE, talk_id, str(path))
               for talk_id, table in scores.items())


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_external_scores_non_finite_rejected(tmp_path, score):
    path = tmp_path / "scores.tsv"
    path.write_text(f"t0\t0\t1\t0.91\nt0\t1\t2\t{score}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_external_scores(path)
    assert f"{path}:2" in str(err.value)
