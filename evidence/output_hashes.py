"""sha256 of every file the CLI writes on a small two-load fixture.

    python3 evidence/output_hashes.py DIR

Writes two synthetic loads into DIR/data, then runs, inside DIR: build-graph
for each load, train on load a, evaluate that model on both graphs,
cross-eval over both loads and compare on the two cross-eval models'
per-class F1 vectors. It then trains on load a and evaluates on load b
once more at the default GAE widths and depths (three GAT layers of 10
heads x 64, two transformer layers of 5 heads), which the fast settings
leave unexercised. Last, it writes load a's recordings again as ``.bin``
files in DIR/data/bin and runs build-graph on them at ``block_size = 4``
with the ``rms`` reducer, where block reduction is not the identity it is
at ``block_size = 1`` with ``mean``. It prints one ``sha256  path`` line
per output file, paths relative to DIR and sorted, so two checkouts can be
compared with ``diff``. The config holds relative paths only
(``data_dir = "data"``): ``config_hash`` covers the paths and every graph
and report embeds it, so absolute paths would make the hashes depend on
where DIR lives.

The CLI's own messages go to stderr; stdout holds only the hash lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

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
# the same run at GaeConfig's default widths and depths
WIDE_CONFIG = "".join(line for line in CONFIG.splitlines(keepends=True)
                      if line.split(" = ")[0] not in
                      ("hidden_dim", "latent_dim", "num_gat_layers", "num_transformer_layers",
                       "gat_heads", "transformer_heads"))
# load a's recordings as .bin files, block-reduced by RMS
BIN_CONFIG = (CONFIG.replace("block_size = 1", "block_size = 4")
              .replace('reducer = "mean"', 'reducer = "rms"')
              .replace('data_dir = "data"', 'data_dir = "data/bin"'))
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
    Path("config_wide.toml").write_text(WIDE_CONFIG)
    wide = ["--config", "config_wide.toml"]
    run("train", *wide, "--graph", "graph_a.json", "--out", "model_wide")
    run("evaluate", *wide, "--model", "model_wide", "--graph", "graph_b.json",
        "--out", "eval_wide_a_to_b.json")
    write_binary_recordings("a")
    Path("config_bin.toml").write_text(BIN_CONFIG)
    run("build-graph", "--config", "config_bin.toml", "--load", "a",
        "--out", "graph_bin_a.json")


def write_binary_recordings(load):
    """``load``'s CSV recordings in data/ again as .bin files, with their own
    manifest, in data/bin."""
    Path("data/bin").mkdir()
    rows = ["file,channel,fault_class,load_tag"]
    for row in Path("data/manifest.csv").read_text().splitlines()[1:]:
        name, _, fault_class, load_tag = row.split(",")
        if load_tag == load:
            binary = Path(name).stem + ".bin"
            np.loadtxt(f"data/{name}").tofile(f"data/bin/{binary}")
            rows.append(f"{binary},0,{fault_class},{load_tag}")
    Path("data/bin/manifest.csv").write_text("\n".join(rows) + "\n")


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
