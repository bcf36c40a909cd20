import random

import pytest
from hypothesis import given, settings, strategies as st

from si_align.align import AlignmentSet
from si_align.corpus import AlignedPair, ValidationError
from si_align.recovery import lcs_substring_len, recovery_accuracy, similarity

from conftest import doc
from oracles import quadratic_lcs as quadratic_lcs_oracle


def test_lcs_identity():
    assert lcs_substring_len("abcdef", "abcdef") == 6


def test_lcs_empty():
    assert lcs_substring_len("", "xyz") == 0
    assert lcs_substring_len("xyz", "") == 0


def test_lcs_against_quadratic_oracle():
    rng = random.Random(2024)
    alphabet = "abcd"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert lcs_substring_len(a, b) == quadratic_lcs_oracle(a, b)


LCS_ALPHABET = "a é字"


@st.composite
def overlapping_pair(draw):
    """(a, b) with a a slice of b, equal to b, or b with one character
    changed, in either order: the containment cases random strings miss."""
    b = draw(st.text(LCS_ALPHABET, max_size=30))
    kind = draw(st.sampled_from(["slice", "equal", "changed"]))
    if kind == "slice":
        start = draw(st.integers(0, len(b)))
        a = b[start:draw(st.integers(start, len(b)))]
    elif kind == "equal" or not b:
        a = b
    else:
        i = draw(st.integers(0, len(b) - 1))
        a = b[:i] + draw(st.sampled_from([c for c in LCS_ALPHABET if c != b[i]])) + b[i + 1:]
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=500, deadline=None)
@given(overlapping_pair())
def test_lcs_of_overlapping_strings_matches_oracle(pair):
    a, b = pair
    assert lcs_substring_len(a, b) == quadratic_lcs_oracle(a, b)


def test_lcs_symmetric():
    rng = random.Random(7)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 25)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 25)))
        assert lcs_substring_len(a, b) == lcs_substring_len(b, a)


def test_similarity_identity_and_disjoint():
    assert similarity("kamo tesu", "kamo tesu") == 1.0
    assert similarity("xyz", "abc") == 0.0


def test_similarity_fixture_point_eight():
    manual = "abcdefghij"              # 10 chars
    auto = "ZZabcdefghZZ"              # shares the 8-char run abcdefgh
    assert similarity(auto, manual) == pytest.approx(0.8)


def test_similarity_empty_manual_rejected():
    with pytest.raises(ValidationError):
        similarity("anything", "")


def test_similarity_bounds_and_substring_condition():
    rng = random.Random(11)
    for _ in range(300):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 20)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 20)))
        s = similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert (s == 1.0) == (b in a)


def _gold_and_doc(n=10):
    src = [f"src {i}" for i in range(n)]
    tgt = [f"tgtword{i} chunk{i}" for i in range(n)]
    document = doc(src, tgt, talk_id="val")
    gold = AlignmentSet(talk_id="val",
                        links=tuple(AlignedPair(i, 1, i, 1, 0.0) for i in range(n)),
                        total_cost=0.0)
    return document, gold


def test_accuracy_perfect_when_auto_equals_gold():
    document, gold = _gold_and_doc()
    report = recovery_accuracy(gold.kept(), gold, document)
    assert all(report.accuracy(eps) == 1.0 for eps in [0.1, 0.5, 0.9, 0.99])


def test_accuracy_zero_when_auto_empty():
    document, gold = _gold_and_doc()
    report = recovery_accuracy((AlignedPair(0, 10, 0, 10, 0.0),), gold, document)
    assert all(report.accuracy(eps) == 0.0 for eps in [0.0, 0.5, 0.8])


def test_accuracy_single_corruption():
    document, gold = _gold_and_doc(10)
    # auto matches gold except the link for source 3 is absent (s = 0 there)
    auto_links = [AlignedPair(i, 1, i, 1, 0.0) for i in range(10) if i != 3]
    report = recovery_accuracy(tuple(auto_links), gold, document)
    assert report.accuracy(0.8) == pytest.approx(0.9)


def test_accuracy_non_increasing_in_epsilon():
    rng = random.Random(33)
    document, gold = _gold_and_doc(12)
    links = []
    for i in range(12):
        j = i if rng.random() < 0.6 else rng.randrange(12)
        links.append(AlignedPair(i, 1, j, 1, 0.0))
    # keep only monotone-compatible subset for a legal-ish auto set; exactness
    # is irrelevant to the similarity computation, which is span-keyed
    epsilons = [0.1 * k for k in range(10)]
    report = recovery_accuracy(tuple(links), gold, document)
    values = [report.accuracy(e) for e in epsilons]
    assert all(a >= b for a, b in zip(values, values[1:]))
