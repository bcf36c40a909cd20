"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion (failures raise, so a green run means every criterion held).
"""

import json
import random
import time

import pytest

from si_align.align import AlignParams, align_talk, dp_align, normalization_denominator
from si_align.cli import main as cli_main
from si_align.corpus import AlignedPair
from si_align.curation import AnnotationRecord, annotations_text, export_annotations, \
    import_annotations
from si_align.inter import InterFilterParams, apply_inter_filter
from si_align.intra import IntraFilterParams, apply_intra_filter, \
    has_content_word, trim_boundaries
from si_align.recovery import lcs_substring_len, recovery_accuracy
from si_align.synth import BENCH_EMBED, NoiseParams, build_reference, generate_corpus

from oracles import (exhaustive_best, quadratic_lcs, random_instance, run_bench_setting,
                     step_cost_table)
from test_intra import random_pair_and_doc


def report(number, name, detail):
    print(f"\nACCEPTANCE {number} ({name}): PASS  [{detail}]")


def test_criterion_1_dp_optimality_oracle():
    start = time.perf_counter()
    rng = random.Random(20260810)
    params = AlignParams(max_src_span=3, max_tgt_span=3)
    unique_checked = 0
    for _ in range(200):
        document, table = random_instance(rng)
        denom = normalization_denominator(table, params.norm_sample_size, params.rng_seed)
        got = dp_align(document, table, params)
        m, n = len(document.source_units), len(document.target_units)
        costs = step_cost_table(table, params, denom, m, n)
        best, links, unique = exhaustive_best(m, n, params, costs)
        assert got.total_cost == pytest.approx(best, abs=1e-9)
        if unique:
            unique_checked += 1
            assert [(l.src_start, l.src_len, l.tgt_start, l.tgt_len)
                    for l in got.links] == links
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, "DP optimality vs exhaustive oracle",
           f"200 instances, {unique_checked} unique optima, {elapsed:.1f}s < 30s")


def test_criterion_2_lcs_oracle():
    start = time.perf_counter()
    rng = random.Random(20260811)
    for _ in range(1000):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 40)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 40)))
        assert lcs_substring_len(a, b) == quadratic_lcs(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "LCS vs quadratic DP oracle", f"1000 pairs exact, {elapsed:.1f}s < 5s")


CLEAN_BENCH = NoiseParams(split_rate=0.2, filler_rate=0.2)
NOISY_BENCH = NoiseParams(omission_rate=0.1, mistranslation_rate=0.1,
                          split_rate=0.2, filler_rate=0.2)
BENCH_SEED = 2026


def test_criterion_3_synthetic_recovery_clean():
    start = time.perf_counter()
    triple = run_bench_setting(BENCH_SEED, 50, 40, CLEAN_BENCH)
    elapsed = time.perf_counter() - start
    assert triple.f1 >= 0.90
    assert elapsed < 60.0
    test_criterion_3_synthetic_recovery_clean.f1 = triple.f1
    report(3, "clean synthetic recovery",
           f"mean F1 {triple.f1:.3f} >= 0.90 over 50 talks, {elapsed:.1f}s < 60s")


def test_criterion_4_synthetic_recovery_noisy():
    clean_f1 = getattr(test_criterion_3_synthetic_recovery_clean, "f1", None)
    if clean_f1 is None:
        clean_f1 = run_bench_setting(BENCH_SEED, 50, 40, CLEAN_BENCH).f1
    noisy = run_bench_setting(BENCH_SEED, 50, 40, NOISY_BENCH)
    degradation = clean_f1 - noisy.f1
    assert degradation < 0.25
    sweep = []
    for om in (0.0, 0.1, 0.2, 0.3):
        noise = NoiseParams(omission_rate=om, mistranslation_rate=0.1,
                            split_rate=0.2, filler_rate=0.2)
        sweep.append(run_bench_setting(BENCH_SEED + 1, 20, 40, noise).f1)
    assert all(a >= b for a, b in zip(sweep, sweep[1:])), sweep
    report(4, "noisy synthetic recovery",
           f"degradation {degradation:.3f} < 0.25; F1 over omission sweep "
           + " >= ".join(f"{x:.3f}" for x in sweep))


def test_criterion_5_recovery_curve_monotone():
    epsilons = [k / 20 for k in range(20)]
    talks = generate_corpus(909, 10, 30, NOISY_BENCH)
    checked = 0
    for talk in talks:
        pred = align_talk(talk.doc, BENCH_EMBED, AlignParams())
        rep = recovery_accuracy(pred, talk.gold, talk.doc, epsilons)
        values = [rep.accuracy_at[e] for e in epsilons]
        assert all(a >= b for a, b in zip(values, values[1:])), values
        checked += 1
    report(5, "recovery accuracy non-increasing in epsilon",
           f"{checked} synthetic runs, {len(epsilons)} thresholds each")


def test_criterion_6_filter_properties():
    # intra idempotence on 1000 random pairs
    rng = random.Random(20260812)
    params = IntraFilterParams()
    for _ in range(1000):
        pair, document = random_pair_and_doc(rng)
        once = trim_boundaries(pair, document, params)
        twice = trim_boundaries(once.pair, document, params)
        assert twice.pair == once.pair
        units = document.target_units[
            once.pair.tgt_start : once.pair.tgt_start + once.pair.tgt_len]
        boundary_ok = (has_content_word(units[0], params.content_pos)
                       and has_content_word(units[-1], params.content_pos))
        assert boundary_ok or once.pair.tgt_len == 1 or once.flagged

    # inter threshold-subset monotonicity across 3 nested settings
    settings = [
        InterFilterParams(alpha_min=0.2, gamma_min=0.2, gamma_max=2.5, eta_min=0.1),
        InterFilterParams(alpha_min=0.5, gamma_min=0.4, gamma_max=1.6, eta_min=0.35),
        InterFilterParams(alpha_min=0.8, gamma_min=0.7, gamma_max=1.2, eta_min=0.6),
    ]
    talks = generate_corpus(606, 5, 25, NoiseParams(mistranslation_rate=0.3,
                                                    filler_rate=0.2))
    for talk in talks:
        ref = build_reference(talk.doc, 4)
        pairs = [l for l in talk.gold.links if not l.src_empty and not l.tgt_empty]
        kept_sets = []
        for setting in settings:
            kept, decisions = apply_inter_filter(pairs, talk.doc, ref, setting)
            assert len(decisions) == len(pairs)
            kept_sets.append({p.key() for p in kept})
        assert kept_sets[2] <= kept_sets[1] <= kept_sets[0]
    report(6, "filter properties",
           "intra idempotence+boundary guarantee on 1000 pairs; "
           "inter subset monotonicity on 3 nested settings x 5 talks")


def test_criterion_7_attrition_ordering():
    checked = []
    for seed, noise in ((41, NOISY_BENCH), (42, CLEAN_BENCH),
                        (43, NoiseParams(mistranslation_rate=0.25, split_rate=0.2))):
        talks = generate_corpus(seed, 6, 30, noise)
        coarse = intra = inter = 0
        for talk in talks:
            pred = align_talk(talk.doc, BENCH_EMBED, AlignParams())
            kept = [l for l in pred.kept() if not l.src_empty and not l.tgt_empty]
            coarse += len(kept)
            trimmed = [r.pair for r in apply_intra_filter(kept, talk.doc,
                                                          IntraFilterParams())]
            intra += len(trimmed)
            ref = build_reference(talk.doc, 4)
            kept_inter, _ = apply_inter_filter(trimmed, talk.doc, ref,
                                               InterFilterParams())
            inter += len(kept_inter)
        assert inter <= intra <= coarse
        checked.append((coarse, intra, inter))
    report(7, "attrition ordering",
           "; ".join(f"coarse {c} >= intra {i} >= inter {r}" for c, i, r in checked))


def test_criterion_8_curation_round_trip(tmp_path):
    from conftest import doc as make_doc
    document = make_doc([f"source {i}" for i in range(6)],
                        [f"target {i}" for i in range(6)], talk_id="cur")
    pairs = [AlignedPair(i, 1, i, 1, 0.0) for i in range(6)]
    records = export_annotations({"cur": (pairs, document)})
    labeled = [AnnotationRecord(**{**r.__dict__, "good_align": True, "good_mt": True})
               for r in records]
    path = tmp_path / "anno.tsv"
    path.write_text(annotations_text(labeled), encoding="utf-8")
    kept, _ = import_annotations(path, {"cur": document})
    assert [c.pair.key() for c in kept] == [p.key() for p in pairs]

    rejected = 0
    for good_align, good_mt in ((None, True), (False, True), (None, False)):
        record = AnnotationRecord("cur", AlignedPair(0, 1, 0, 1, 0.0), "s", "t",
                                  good_align=good_align, good_mt=good_mt)
        try:
            record.validate()
        except Exception:
            rejected += 1
    assert rejected == 3
    report(8, "curation round-trip",
           "export -> label true/true -> import reproduces pair set; "
           "3/3 invalid label combinations rejected")


def test_criterion_9_pipeline_determinism(tmp_path):
    cfg_obj = {
        "out_dir": "out",
        "corpus": "out/corpus.json",
        "gold_dir": "out/gold",
        "refs_dir": "out/refs",
        "allowlist": "out/allowlist.txt",
        "embedding": {"kind": "fallback_hash", "dim": 1024, "orders": [3, 4], "seed": 17},
        "noise": {"split_rate": 0.2, "filler_rate": 0.2},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_obj), encoding="utf-8")
    assert cli_main(["synth", "--config", str(cfg), "--seed", "13",
                     "--talks", "3", "--sentences", "12"]) == 0
    names = ("align", "filter-intra", "filter-inter", "split", "stats")
    runs = []
    for _ in range(2):
        assert cli_main(["pipeline", "--config", str(cfg)]) == 0
        manifests = tmp_path / "out" / "manifests"
        runs.append({n: json.loads((manifests / f"{n}.json").read_text())["artifacts"]
                     for n in names})
    assert runs[0] == runs[1]
    n_artifacts = sum(len(v) for v in runs[0].values())
    report(9, "pipeline determinism",
           f"two runs, {n_artifacts} artifact checksums identical")
