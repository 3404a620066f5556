"""sha256 of every file the CLI writes on a small two-load fixture.

    python3 evidence/output_hashes.py DIR

Writes two synthetic loads into DIR/data, then runs, inside DIR: build-graph
for each load, train on load a, evaluate that model on both graphs,
cross-eval over both loads and compare on the two cross-eval models'
per-class F1 vectors. It prints one ``sha256  path`` line per output file,
paths relative to DIR and sorted, so two checkouts can be compared with
``diff``. The config holds relative paths only (``data_dir = "data"``):
``config_hash`` covers the paths and every graph and report embeds it, so
absolute paths would make the hashes depend on where DIR lives.

The CLI's own messages go to stderr; stdout holds only the hash lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vibgraph import cli, synthetic  # noqa: E402

# the CLI tests' fast settings (tests/test_cli.py FAST_CONFIG)
CONFIG = """\
candidate_windows = [8, 16]
stride = 16
block_size = 1
reducer = "mean"
n_classes = 3
hidden_dim = 8
latent_dim = 4
num_gat_layers = 1
num_transformer_layers = 1
gat_heads = 2
transformer_heads = 2
epochs = 3
learning_rate = 0.01
rf_trees = 5
gb_rounds = 5
xgb_rounds = 5
mlp_epochs = 20
cv_folds = 3
data_dir = "data"
"""
LOADS = ("a", "b")


def run(*argv):
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(list(argv))
    if rc != cli.EXIT_OK:
        raise SystemExit(f"vibgraph {' '.join(argv)} exited {rc}")


def write_outputs():
    """Run the fixture in the current directory."""
    synthetic.write_synthetic_load_files("data", loads=LOADS,
                                         n_chunks_per_class=4, chunk_len=150)
    Path("config.toml").write_text(CONFIG)
    cfg = ["--config", "config.toml"]
    for load in LOADS:
        run("build-graph", *cfg, "--load", load, "--out", f"graph_{load}.json")
    run("train", *cfg, "--graph", "graph_a.json", "--out", "model_a")
    for load in LOADS:
        run("evaluate", *cfg, "--model", "model_a", "--graph", f"graph_{load}.json",
            "--out", f"eval_a_to_{load}.json")
    run("cross-eval", *cfg, "--out", "xeval")
    for train in LOADS:     # the F1 vectors summary.json's paired tests compare
        f1 = [v for test in LOADS for v in json.loads(
            Path(f"xeval/report_{train}_to_{test}.json").read_text())["f1"]]
        Path(f"f1_{train}.csv").write_text(",".join(map(repr, f1)) + "\n")
    run("compare", "--f1-a", "f1_a.csv", "--f1-b", "f1_b.csv", "--out", "cmp.json")


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__)
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    write_outputs()
    for path in sorted(p for p in Path(".").rglob("*")
                       if p.is_file() and p.parts[0] != "data"):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")


if __name__ == "__main__":
    main(sys.argv[1:])
