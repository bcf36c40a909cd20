import random

import pytest

from si_align.corpus import DocumentPair, ParseError, Pos, Rank, TextUnit, Token


def unit(index, text, tags=None):
    """TextUnit from space-separated text; tags default to NOUN per token."""
    surfaces = text.split()
    if tags is None:
        tags = [Pos.NOUN] * len(surfaces)
    assert len(tags) == len(surfaces)
    return TextUnit(index=index, text=" ".join(surfaces),
                    tokens=tuple(Token(s, t) for s, t in zip(surfaces, tags)))


def doc(src_texts, tgt_texts, talk_id="t0", rank=Rank.S, src_tags=None, tgt_tags=None):
    src_tags = src_tags or [None] * len(src_texts)
    tgt_tags = tgt_tags or [None] * len(tgt_texts)
    return DocumentPair(
        talk_id=talk_id,
        interpreter_rank=rank,
        source_units=tuple(unit(i, t, g) for i, (t, g) in enumerate(zip(src_texts, src_tags))),
        target_units=tuple(unit(i, t, g) for i, (t, g) in enumerate(zip(tgt_texts, tgt_tags))),
    )


def vector_outcome(load, path, *shape):
    """What a vector-file loader makes of a file: the table's shape and
    bytes, or ParseError and the line it names, or its whole message (which
    names the missing window) when it names no line."""
    try:
        table = load(path, *shape)
    except ParseError as exc:
        return ParseError, str(exc) if exc.line is None else exc.line
    return table.entries.shape, table.entries.tobytes()


@pytest.fixture
def rng():
    return random.Random(13)
