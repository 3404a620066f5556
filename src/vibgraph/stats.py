"""Classification metrics, confusion matrices, and significance tests
(Welch two-sample t, paired t, Wilcoxon signed-rank with exact small-n p)."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .checks import write_json

EXACT_WILCOXON_MAX_N = 12


@dataclass
class TestResult:
    kind: str
    statistic: float
    p_value: float
    significant_at_0_05: bool
    extra: dict = field(default_factory=dict)


@dataclass
class EvaluationReport:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    train_source: str = ""
    test_source: str = ""

    def to_dict(self):
        return {
            "train_source": self.train_source,
            "test_source": self.test_source,
            "confusion": self.confusion.tolist(),
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
        }

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, d):
        return cls(confusion=np.asarray(d["confusion"], dtype=np.int64),
                   precision=np.asarray(d["precision"]),
                   recall=np.asarray(d["recall"]),
                   f1=np.asarray(d["f1"]),
                   macro_precision=d["macro_precision"],
                   macro_recall=d["macro_recall"],
                   macro_f1=d["macro_f1"],
                   accuracy=d["accuracy"],
                   train_source=d.get("train_source", ""),
                   test_source=d.get("test_source", ""))


# ---------------------------------------------------------------------------
# metrics


def confusion_matrix(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if len(true_labels) != len(predicted_labels):
        raise ValueError("label vectors differ in length")
    if true_labels.size and (true_labels.max() >= n_classes
                             or predicted_labels.max() >= n_classes
                             or true_labels.min() < 0 or predicted_labels.min() < 0):
        raise ValueError(f"labels out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true_labels, predicted_labels), 1)
    return cm


def precision_recall_f1(confusion):
    """One-vs-rest per-class P/R/F1 with 0/0 -> 0, plus unweighted macro means."""
    cm = np.asarray(confusion, dtype=np.float64)
    tp = np.diag(cm)
    pred_tot = cm.sum(axis=0)
    true_tot = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_tot > 0, tp / np.maximum(pred_tot, 1), 0.0)
        recall = np.where(true_tot > 0, tp / np.maximum(true_tot, 1), 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return {
        "precision": precision, "recall": recall, "f1": f1,
        "macro_precision": float(precision.mean()),
        "macro_recall": float(recall.mean()),
        "macro_f1": float(f1.mean()),
    }


def accuracy(confusion) -> float:
    cm = np.asarray(confusion, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


def evaluation_report(true_labels, predicted_labels, n_classes,
                      train_source="", test_source="") -> EvaluationReport:
    cm = confusion_matrix(true_labels, predicted_labels, n_classes)
    prf = precision_recall_f1(cm)
    return EvaluationReport(confusion=cm, precision=prf["precision"],
                            recall=prf["recall"], f1=prf["f1"],
                            macro_precision=prf["macro_precision"],
                            macro_recall=prf["macro_recall"],
                            macro_f1=prf["macro_f1"],
                            accuracy=accuracy(cm),
                            train_source=train_source, test_source=test_source)


# ---------------------------------------------------------------------------
# significance tests. scipy.stats is imported inside the functions that use
# it: at module level it is most of the cost of importing vibgraph, which
# every CLI command pays.


def _t_tail(t, df):
    """P(T > |t|) for Student's t with ``df`` degrees of freedom."""
    from scipy import stats as sps
    return float(sps.t.sf(abs(t), df))


def two_sample_ttest(sample_a, sample_b) -> TestResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df, two-sided."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = len(a), len(b)
    se2 = va / na + vb / nb
    diff = a.mean() - b.mean()
    if se2 == 0:
        # both samples constant
        if diff == 0:
            t, p = 0.0, 1.0
        else:
            t, p = float(np.sign(diff)) * np.inf, 0.0
    else:
        t = diff / np.sqrt(se2)
        df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
        p = 2.0 * _t_tail(t, df)
    return TestResult(kind="two_sample_t", statistic=float(t), p_value=p,
                      significant_at_0_05=p < 0.05)


def paired_ttest(sample_a, sample_b) -> TestResult:
    """Paired t-test on the differences a - b, sample sd (n-1), two-sided."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("paired test requires equal-length samples")
    n = len(a)
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    d = a - b
    sd = d.std(ddof=1)
    # tail = P(T > |t|); the two-sided and the one-sided p both follow from it
    if sd == 0:
        t = 0.0 if d.mean() == 0 else float(np.sign(d.mean())) * np.inf
        tail = 0.5 if t == 0 else 0.0
    else:
        t = d.mean() / (sd / np.sqrt(n))
        tail = _t_tail(t, n - 1)
    p = 2.0 * tail
    p_greater = tail if t >= 0 else 1.0 - tail
    return TestResult(kind="paired_t", statistic=float(t), p_value=p,
                      significant_at_0_05=p < 0.05,
                      extra={"mean_difference": float(d.mean()), "df": n - 1,
                             "p_value_one_sided": p_greater})


def _signed_rank_parts(d):
    from scipy import stats as sps
    d = d[d != 0]
    if d.size == 0:
        raise ValueError("all differences are zero; signed-rank test undefined")
    ranks = sps.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    return d, ranks, w_plus, w_minus


def _exact_signed_rank_p(ranks, w_obs):
    """P(W+ <= w_obs) under the null via the rank-sum count distribution.

    Ranks may be half-integers from ties; doubling makes everything integral.
    Returns the two-sided p = min(1, 2 * P(W+ <= w_obs)).
    """
    r2 = np.rint(2 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:total + 1 - r]
        counts = counts + shifted
    w2 = int(np.floor(2 * w_obs + 1e-9))   # 2*w_obs, robust to fp
    w2 = min(w2, total)
    p = 2.0 * counts[:w2 + 1].sum() / counts.sum()
    return float(min(1.0, p))


def wilcoxon_signed_rank(sample_a, sample_b) -> TestResult:
    """Wilcoxon signed-rank test, W = min(W+, W-), two-sided.

    Zero differences are dropped; |d| ties get mean ranks. Exact p by the
    rank-sum distribution for effective n <= 12, otherwise a normal
    approximation with tie correction.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError("signed-rank test requires equal-length samples")
    d, ranks, w_plus, w_minus = _signed_rank_parts(a - b)
    n = d.size
    w = min(w_plus, w_minus)
    if n <= EXACT_WILCOXON_MAX_N:
        p = _exact_signed_rank_p(ranks, w)
        method = "exact"
    else:
        mean_w = n * (n + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = ((tie_counts ** 3 - tie_counts).sum()) / 48.0
        var_w = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        z = (w - mean_w) / np.sqrt(var_w)
        from scipy import stats as sps
        p = float(min(1.0, 2.0 * sps.norm.cdf(z)))
        method = "normal_approx"
    return TestResult(kind="wilcoxon_signed_rank", statistic=float(w),
                      p_value=p, significant_at_0_05=bool(p < 0.05),
                      extra={"w_plus": w_plus, "w_minus": w_minus, "n": n,
                             "method": method})


def f1_summary(per_run_f1_vectors):
    """Mean and sample standard deviation over all entries of all vectors."""
    vectors = [np.asarray(v, dtype=np.float64) for v in per_run_f1_vectors]
    if not vectors:
        raise ValueError("no F1 vectors provided")
    flat = np.concatenate(vectors)
    std = float(flat.std(ddof=1)) if flat.size > 1 else 0.0
    return float(flat.mean()), std


# ---------------------------------------------------------------------------
# markdown report rendering


def render_markdown_report(reports, title="Cross-dataset evaluation") -> str:
    """Text rendering of per-class P/R/F1 grids, one block per train->test pair."""
    lines = [f"# {title}", ""]
    for rep in reports:
        lines.append(f"## train {rep.train_source} -> test {rep.test_source}")
        lines.append("")
        lines.append(f"accuracy: {rep.accuracy:.4f}   macro F1: {rep.macro_f1:.4f}")
        lines.append("")
        lines.append("| class | precision | recall | F1 |")
        lines.append("|---|---|---|---|")
        for c in range(len(rep.f1)):
            lines.append(f"| {c} | {rep.precision[c]:.4f} | "
                         f"{rep.recall[c]:.4f} | {rep.f1[c]:.4f} |")
        lines.append("")
    return "\n".join(lines)
