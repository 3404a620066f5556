"""Comparing two classifiers' per-class F1 vectors statistically.

Runs the paired t-test and the exact Wilcoxon signed-rank test on a pair of
F1 vectors where one model is consistently but not uniformly better, and
shows how the two tests read the same evidence.
"""

import numpy as np

from vibgraph import stats

model_a = np.array([1.00, 1.00, 0.99, 0.99, 1.00, 1.00, 1.00, 0.98, 0.99, 1.00])
model_b = np.array([0.84, 0.86, 0.93, 1.00, 1.00, 0.97, 0.98, 1.00, 0.82, 1.00])

t = stats.paired_ttest(model_a, model_b)
print("paired t-test")
print(f"  mean difference: {t['mean_difference']:.4f}")
print(f"  t = {t['t_statistic']:.4f}, df = {t['df']}")
print(f"  two-sided p = {t['p_value']:.4f}, "
      f"one-sided p = {t['p_value_one_sided']:.4f}")

w = stats.wilcoxon_signed_rank(model_a, model_b)
print("\nWilcoxon signed-rank test")
print(f"  W = min(W+, W-) = {w['W']:.1f} "
      f"(W+ = {w['w_plus']:.1f}, W- = {w['w_minus']:.1f})")
print(f"  {w['method']} p = {w['p_value']:.4f}, "
      f"n = {w['n']} nonzero differences")

print("\nsummary over repeated runs")
runs = [model_a, model_a - 0.005, model_a + 0.002]
mean, std = stats.f1_summary(runs)
print(f"  F1 = {mean:.4f} +- {std:.4f} over {len(runs)} runs")
