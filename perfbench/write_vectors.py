"""Write one precomputed-vector TSV per talk, as an external encoder would.

    PYTHONPATH=src python perfbench/write_vectors.py CORPUS.json OUT_DIR DIM

The vectors come from the built-in hashed n-gram embedder at dimension DIM
and are written with ``embeddings.write_table_file``, so the pipeline reads
them back through the production ``precomputed_file`` provider.
"""

import sys
from pathlib import Path

from si_align import align, cli, embeddings


def main(argv) -> int:
    corpus_path, out_dir, dim = Path(argv[0]), Path(argv[1]), int(argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    params = embeddings.FallbackParams(dim=dim, orders=(3, 4), seed=17)
    spans = align.AlignParams()
    for doc in cli.load_corpus(cli.PipelineConfig(out_dir=out_dir, corpus=corpus_path)):
        table = embeddings.build_fallback_table(doc, params, spans.max_src_span,
                                                spans.max_tgt_span)
        embeddings.write_table_file(table, out_dir / f"{doc.talk_id}.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
