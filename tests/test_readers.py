"""Every input file goes through the codec in `si_align.corpus`: whatever its
bytes, a reader returns a value or raises one of the program's own errors
naming the file."""

import argparse
import ast
import builtins
import json
import re
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from si_align.align import links_text, read_alignment_jsonl
from si_align.cli import load_config
from si_align.corpus import (MANIFEST_NAME, AlignedPair, ParseError, TextUnit,
                             ValidationError, load_document_pair, read_corpus, read_manifest,
                             talk_texts)
from si_align.curation import annotations_text, export_annotations, read_annotations_tsv
from si_align.embeddings import SOURCE, TARGET, load_precomputed
from si_align.inter import (REFERENCE, SpanTable, read_external_scores,
                            read_reference_jsonl, references_text)
from si_align.splitter import read_allowlist

from conftest import doc, vector_outcome
from oracles import reference_load_precomputed

DOC = doc(["aa bb", "cc"], ["xx", "yy zz"], talk_id="talk0")
TALK = {name: text.encode("utf-8") for name, text in talk_texts(DOC).items()}
PAIRS = [AlignedPair(0, 1, 0, 1, 0.25), AlignedPair(1, 1, 1, 1, 0.5)]

CONFIG = json.dumps({
    "out_dir": "out", "corpus": "corpus.json", "dev_ids": ["talk0"], "jobs": 1,
    "embedding": {"kind": "fallback_hash", "dim": 64, "orders": [3], "seed": 1},
    "align": {"max_src_span": 2, "skip_penalty": 0.5},
    "intra": {"content_pos": ["NOUN"]},
    "inter": {"eta_min": 0.2, "per_talk": {"talk0": {"alpha_min": 0.1}}},
    "noise": {"split_rate": 0.2}, "synth": {"talks": 2}, "epsilons": [0.5],
}).encode("utf-8")

# a valid file for a 2 x 2 talk at window limit 2, dim 3
VECTOR_FILE = "".join(f"{side}\t{start}\t{w}\t0.6,0.8,{0.1 * start}\n"
                      for side in (SOURCE, TARGET) for w in (1, 2)
                      for start in range(3 - w)).encode("utf-8")

REFS = SpanTable(REFERENCE, "talk0", {(0, 1): TextUnit("xx", DOC.target_units[0].tokens),
                                         (1, 1): TextUnit("yy zz", DOC.target_units[1].tokens)})


def _document(path):
    return load_document_pair(read_manifest(path.parent / MANIFEST_NAME))


def _vectors(path):
    table = load_precomputed(path, 2, 2, 2, 2)
    assert len(table.entries) == 6 and np.isfinite(table.entries).all()
    return table


# input -> (file name, valid bytes, reader); the talk files of DOC are
# written next to each one, so the units and tags files load through their manifest
INPUTS = {
    "config": ("config.json", CONFIG, lambda path: load_config(path, argparse.Namespace())),
    "corpus": ("corpus.json", b'{"talks": ["manifest.json"]}', read_corpus),
    "manifest": (MANIFEST_NAME, TALK[MANIFEST_NAME], read_manifest),
    "units": ("source_units.txt", TALK["source_units.txt"], _document),
    "tags": ("target_tags.tsv", TALK["target_tags.tsv"], _document),
    "vectors": ("emb.tsv", VECTOR_FILE, _vectors),
    "links": ("links.jsonl", links_text("talk0", PAIRS).encode("utf-8"), read_alignment_jsonl),
    "references": ("refs.jsonl", references_text(REFS).encode("utf-8"),
                   lambda path: read_reference_jsonl(path, "talk0")),
    "scores": ("scores.tsv", b"talk0\t0\t1\t0.5\ntalk0\t1\t1\t0.25\n", read_external_scores),
    "allowlist": ("allowlist.txt", b"talk0\ntalk1\n", read_allowlist),
    "annotations": ("anno.tsv", annotations_text(export_annotations(
        {"talk0": (PAIRS, DOC)})).encode("utf-8"), read_annotations_tsv),
}
ERRORS = (ParseError, ValidationError)
FUZZ_TOKENS = [b"\t", b"\n", b"\r", b",", b"-", b"0", b"9", b"e999", b"nan", b"inf", b"\xff",
               b"source", b"target", b'"', b"{", b"[", b"]", b"null", b"true"]


@pytest.fixture
def talk_dir(tmp_path):
    for name, text in TALK.items():
        (tmp_path / name).write_bytes(text)
    return tmp_path


def _write(directory, name, data) -> Path:
    path = directory / name
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("kind", INPUTS)
def test_valid_input_reads(talk_dir, kind):
    name, data, reader = INPUTS[kind]
    assert reader(_write(talk_dir, name, data)) is not None


@pytest.mark.parametrize("kind", INPUTS)
def test_non_utf8_byte_names_file_and_line(talk_dir, kind):
    name, data, reader = INPUTS[kind]
    path = _write(talk_dir, name, data[:1] + b"\xff" + data[1:])
    with pytest.raises(ParseError) as err:
        reader(path)
    assert f"{path}:1" in str(err.value)


@pytest.mark.parametrize("kind", INPUTS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 8),
                                st.one_of(st.sampled_from(FUZZ_TOKENS), st.binary(max_size=4))),
                      max_size=4))
def test_reader_fuzz(talk_dir, kind, edits):
    """A mutated input file reads as a value or fails naming the file."""
    name, data, reader = INPUTS[kind]
    for pos, cut, insert in edits:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + cut:]
    path = _write(talk_dir, name, data)
    try:
        reader(path)
    except ERRORS as exc:
        assert str(path) in str(exc)


# a 12 x 12 talk at window limit 2, dim 3: 46 rows, several parse chunks
LONG_VECTOR_FILE = "".join(f"{side}\t{start}\t{w}\t0.6,{-0.8 + start / 64},{start}e-3\n"
                           for side in (SOURCE, TARGET) for w in (1, 2)
                           for start in range(13 - w)).encode("utf-8")
VECTOR_TOKENS = FUZZ_TOKENS + [b"_", "\u0661".encode("utf-8"), b"\x1c", b" ", b"#", b".", b"e",
                               b"\xc2\xa0", b"0.6,0.8"]


def _narrowed(line: str) -> bool:
    """Holds a value `float()` reads and numpy's parser does not: one with
    `_` digit separators or non-ASCII digits."""
    return "_" in line or any(not c.isascii() and unicodedata.decimal(c, None) is not None
                              for c in line)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 8),
                                st.one_of(st.sampled_from(VECTOR_TOKENS), st.binary(max_size=4))),
                      max_size=4))
def test_vector_fuzz_matches_row_by_row_oracle(tmp_path, edits):
    """A mutated vector file loads to the same bits, or fails with the same
    error at the same line or for the same missing window, as with the
    row-by-row `float()` loader, except where a value numpy does not read
    fails first."""
    data = LONG_VECTOR_FILE
    for pos, cut, insert in edits:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + cut:]
    path = _write(tmp_path, "emb.tsv", data)
    with np.errstate(over="ignore"):
        got, expected = (vector_outcome(load, path, 12, 12, 2, 2)
                         for load in (load_precomputed, reference_load_precomputed))
    if got != expected:
        assert got[0] is ParseError and isinstance(got[1], int), (got, expected)
        # a missing window (a message, no line) is found after the last line
        assert (expected[0] != ParseError or isinstance(expected[1], str)
                or expected[1] > got[1]), (got, expected)
        assert _narrowed(data.split(b"\n")[got[1] - 1].decode("utf-8", "replace"))


SRC = Path(__file__).resolve().parent.parent / "src" / "si_align"
# opening a file without a write mode, reading a path whole, or decoding bytes
READS_INPUT = re.compile(r"""\bopen\((?![^)]*["'][wax]b?\+?["'])|\.read_text\(|\.read_bytes\("""
                         r"""|\bjson\.loads?\(|UnicodeDecodeError|JSONDecodeError""")


def test_only_the_codec_reads_files():
    """corpus.py is the one module that opens, decodes and parses input files."""
    offenders = [f"{module.name}:{lineno}: {line.strip()}"
                 for module in sorted(SRC.glob("*.py")) if module.name != "corpus.py"
                 for lineno, line in enumerate(module.read_text(encoding="utf-8").splitlines(), 1)
                 if READS_INPUT.search(line)]
    assert not offenders, "\n".join(offenders)


# writing a file (text, bytes, or `open` in a writing mode), or making or renaming one
WRITES_FILE = re.compile(r"""\.write_(text|bytes)\(|\bopen\([^)]*["'][wax]b?\+?["']"""
                         r"""|\bos\.(replace|rename|makedirs)\(|\.mkdir\(""")
# the functions that may write: the run manifest's `save`, and the writer of
# the vector files that the benchmark reads
WRITERS = {("cli.py", "RunManifest.save"), ("embeddings.py", "write_table_file")}


def _function_lines(tree: ast.Module) -> dict[str, range]:
    """Dotted name (`Class.method`) -> line range of every function and class."""
    ranges = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                ranges[prefix + child.name] = range(child.lineno, child.end_lineno + 1)
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return ranges


def test_only_the_manifest_writes_files():
    """`cli.RunManifest.save` is the one place that writes a run's files, so
    a command writes nothing until it has every artifact; the one other
    writer is `embeddings.write_table_file`."""
    offenders, found = [], set()
    for module in sorted(SRC.glob("*.py")):
        text = module.read_text(encoding="utf-8")
        ranges = _function_lines(ast.parse(text))
        allowed = set()
        for name, lines in ranges.items():
            if (module.name, name) in WRITERS:
                found.add((module.name, name))
                allowed.update(lines)
        offenders += [f"{module.name}:{lineno}: {line.strip()}"
                      for lineno, line in enumerate(text.splitlines(), 1)
                      if lineno not in allowed and WRITES_FILE.search(line)]
    assert found == WRITERS
    assert not offenders, "\n".join(offenders)


def test_every_public_function_has_a_caller():
    """Each top-level public function and class of the package is named by
    the package or the benchmark scripts, beyond its own definition: code
    that only tests reach is deleted (or, as an oracle, kept in the tests)."""
    scripts = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in scripts}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = [f"{path.name}: {node.name}" for path, tree in trees.items() if path.parent == SRC
                for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in named]
    assert not uncalled, "\n".join(uncalled)


def test_two_error_types():
    """Every exception class of the package is a ParseError (exit 2) or a
    ValidationError (exit 1), each naming its file and line the same way, and
    `cli.main` catches no other si-align type."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    bases = {node.name: [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        for base in bases.get(name, ()):
            yield base
            yield from ancestors(base)

    def is_exception(name):
        return any(isinstance(getattr(builtins, a, None), type)
                   and issubclass(getattr(builtins, a), BaseException) for a in ancestors(name))

    roots = {"ParseError", "ValidationError"}
    # the base that holds their common `message [path:line]` format
    shared = set(ancestors("ParseError")) & set(ancestors("ValidationError"))
    stray = [name for name in bases if is_exception(name)
             and name not in roots | shared and not roots & set(ancestors(name))]
    assert not stray, stray

    main = next(node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {node.id if isinstance(node, ast.Name) else node.attr
              for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
              for node in getattr(handler.type, "elts", [handler.type])}
    assert {name for name in caught if not hasattr(builtins, name)} == roots
