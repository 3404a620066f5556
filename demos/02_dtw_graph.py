"""Build a DTW-similarity graph from segmented vibration data.

Computes all pairwise DTW distances, thresholds at the 20th percentile, and
reports how well the resulting edges respect the class structure.
"""

import numpy as np

from vibgraph import pipeline
from vibgraph.synthetic import make_sinusoid_series

cfg = dict(pipeline.DEFAULT_CONFIG,
           candidate_windows=[8, 16, 32], stride=16, n_classes=3)
series = make_sinusoid_series(seed=1)
graph, sel = pipeline.build_graph_from_series(series, cfg)

print(f"w*={sel.w_star}, {graph.num_nodes} nodes, {len(graph.edges)} edges")

# how many edges connect nodes of the same class?
same = sum(graph.node_labels[i] == graph.node_labels[j]
           for i, j, _ in graph.edges)
print(f"same-class edges: {same}/{len(graph.edges)} "
      f"({100.0 * same / len(graph.edges):.1f}%)")

weights = np.array([w for _, _, w in graph.edges])
print(f"edge weights 1/(1+D): min={weights.min():.3f} "
      f"median={np.median(weights):.3f} max={weights.max():.3f}")

degrees = graph.degrees()
print(f"degree: min={degrees.min()} mean={degrees.mean():.1f} "
      f"max={degrees.max()}  (isolated nodes get a nearest-neighbor edge)")
