## The same pipeline, driven purely through the command-line interface.
##
## Every step below shells through analogia.cli.dispatch, which is exactly
## what the installed `analogia` executable calls; the demo just avoids
## spawning subprocesses.  All artifacts land in a scratch directory, which
## is removed when the demo ends.

import pathlib
import sys
import tempfile

from analogia.cli import dispatch
from analogia.synthetic import build_corpus, write_corpus


def run(*argv):
    print("\n$ analogia " + " ".join(argv))
    rc = dispatch(list(argv))
    if rc != 0:
        sys.exit(f"command failed with exit status {rc}")


with tempfile.TemporaryDirectory(prefix="analogia-demo-") as scratch_dir:
    scratch = pathlib.Path(scratch_dir)
    print("working in", scratch)

    corpus = build_corpus(train_per_type=20, eval_per_type=5, embedding_dim=12, seed=1)
    files = write_corpus(corpus, scratch)
    train_tsv, heldout_tsv, vectors = files["train.tsv"], files["heldout.tsv"], files["vectors.vec"]

    ## 1. Materialize the labeled training quadruples as TSV.
    run("gen-quadruples", "--data", train_tsv, "--prototypes", "3", "--seed", "0",
        "--out", str(scratch / "quadruples.tsv"))
    lines = (scratch / "quadruples.tsv").read_text().splitlines()
    print(f"  {len(lines)} quadruples, first: {lines[0].split(chr(9))[:2]} ...")

    ## 2. Train a small model; the checkpoint directory is self-contained.
    run("train", "--data", train_tsv, "--embeddings", vectors,
        "--prototypes", "3", "--epochs", "8", "--dim", "16", "--seed", "0",
        "--out", str(scratch / "model"))
    for p in sorted((scratch / "model").iterdir()):
        print(f"  {p.name:16s} {p.stat().st_size:6d} bytes")

    ## 3. Per-type metrics on the held-out split.
    run("eval", "--checkpoint", str(scratch / "model"), "--data", heldout_tsv,
        "--embeddings", vectors, "--report", str(scratch / "report.tsv"))
    print("  " + "\n  ".join((scratch / "report.tsv").read_text().splitlines()))

    ## 4. Raw per-candidate rankings, if you want to inspect decisions.
    run("rank", "--checkpoint", str(scratch / "model"), "--data", heldout_tsv,
        "--embeddings", vectors, "--out", str(scratch / "rankings.tsv"))
    print(f"  wrote {len((scratch / 'rankings.tsv').read_text().splitlines()) - 1} rows")

    ## 5. The order-blind baseline on the same split, for context.
    run("baseline", "--data", heldout_tsv, "--embeddings", vectors,
        "--proto-data", train_tsv, "--prototypes", "3",
        "--report", str(scratch / "baseline.tsv"))
    print("  " + (scratch / "baseline.tsv").read_text().splitlines()[-1])

    ## 6. How sensitive are the metrics to the prototype pool size?
    run("sweep-prototypes", "--checkpoint", str(scratch / "model"),
        "--data", heldout_tsv, "--proto-data", train_tsv, "--embeddings", vectors,
        "--p", "5,10,20", "--out", str(scratch / "sweep.tsv"))
    print("  " + "\n  ".join((scratch / "sweep.tsv").read_text().splitlines()))

    ## 7. Audit the gradients behind all of the above.
    run("check-gradients", "--instances", "5", "--seed", "0")
