"""Tests for metrics and significance tests.

t-tests are checked against scipy; the exact Wilcoxon p-value against full
2^n sign enumeration, which is the ground-truth null distribution.
"""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from vibgraph import stats as st
from vibgraph.checks import json_text, write_json


class TestConfusionMatrix:
    def test_known_counts(self):
        cm = st.confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], 3)
        expect = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 0]])
        np.testing.assert_array_equal(cm, expect)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            st.confusion_matrix([0, 3], [0, 1], 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            st.confusion_matrix([0], [0, 1], 2)


class TestPrecisionRecallF1:
    def test_perfect_prediction(self):
        cm = np.diag([5, 3, 2])
        out = st.precision_recall_f1(cm)
        np.testing.assert_array_equal(out["precision"], 1.0)
        np.testing.assert_array_equal(out["f1"], 1.0)
        assert out["macro_f1"] == 1.0

    def test_hand_computed_case(self):
        cm = np.array([[8, 2], [1, 9]])
        out = st.precision_recall_f1(cm)
        assert out["precision"][0] == pytest.approx(8 / 9)
        assert out["recall"][0] == pytest.approx(0.8)
        f1_0 = 2 * (8 / 9) * 0.8 / (8 / 9 + 0.8)
        assert out["f1"][0] == pytest.approx(f1_0)

    def test_absent_class_zero_not_nan(self):
        cm = np.array([[5, 0], [0, 0]])
        out = st.precision_recall_f1(cm)
        assert out["precision"][1] == 0.0
        assert out["f1"][1] == 0.0

    def test_accuracy(self):
        assert st.accuracy(np.array([[3, 1], [1, 5]])) == 0.8
        with pytest.raises(ValueError):
            st.accuracy(np.zeros((2, 2)))


class TestEvaluationReport:
    def test_round_trip(self, tmp_path):
        rep = st.evaluation_report([0, 1, 1, 2], [0, 1, 2, 2], 3,
                                   train_source="a", test_source="b")
        path = str(tmp_path / "rep.json")
        write_json(path, rep)
        import json
        loaded = json.load(open(path))
        assert loaded == rep
        assert loaded["confusion"] == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
        assert loaded["macro_f1"] == rep["macro_f1"]
        assert loaded["train_source"] == "a"
        # plain lists and floats: the standard encoder writes the same text
        assert json.dumps(rep, indent=1, sort_keys=True) == json_text(rep)


class TestPairedT:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        signs = set()
        for shift in (0.3, -0.3):
            for _ in range(10):
                n = int(rng.integers(5, 15))
                a = rng.normal(size=n)
                b = a + rng.normal(shift, 0.5, size=n)
                got = st.paired_ttest(a, b)
                want = sps.ttest_rel(a, b)
                assert got["t_statistic"] == pytest.approx(want.statistic)
                assert got["p_value"] == pytest.approx(want.pvalue)
                greater = sps.ttest_rel(a, b, alternative="greater").pvalue
                assert abs(got["p_value_one_sided"] - greater) <= 1e-12
                signs.add(got["t_statistic"] > 0)
        assert signs == {True, False}

    def test_one_sided_p_is_half_for_positive_t(self):
        a = np.array([1.0, 2.0, 3.0, 4.5])
        b = a - np.array([0.5, 0.4, 0.6, 0.5])
        got = st.paired_ttest(a, b)
        assert got["t_statistic"] > 0
        assert got["p_value_one_sided"] == pytest.approx(got["p_value"] / 2)

    def test_mean_difference_recorded(self):
        got = st.paired_ttest([2.0, 3.0], [1.0, 1.0])
        assert got["mean_difference"] == pytest.approx(1.5)
        assert got["df"] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            st.paired_ttest([1.0, 2.0], [1.0])


class TestWilcoxon:
    def enumerate_p(self, d):
        """Two-sided p by enumerating all 2^n sign assignments of |d|."""
        d = np.asarray(d, float)
        d = d[d != 0]
        ranks = sps.rankdata(np.abs(d))
        w_plus = ranks[d > 0].sum()
        w_minus = ranks[d < 0].sum()
        w_obs = min(w_plus, w_minus)
        n = len(ranks)
        count = 0
        for signs in itertools.product((0, 1), repeat=n):
            wp = sum(r for r, s in zip(ranks, signs) if s)
            if wp <= w_obs + 1e-9:
                count += 1
        return min(1.0, 2.0 * count / 2 ** n)

    def test_exact_p_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            d = rng.integers(-5, 6, size=n).astype(float)
            if not d.any():
                d[0] = 1.0
            got = st.wilcoxon_signed_rank(d, np.zeros(n))
            assert got["method"] == "exact"
            assert got["p_value"] == pytest.approx(self.enumerate_p(d))

    def test_statistic_is_min_of_signed_sums(self):
        a = np.array([3.0, 1.0, 4.0, 1.5])
        b = np.array([1.0, 2.0, 1.0, 1.0])
        got = st.wilcoxon_signed_rank(a, b)
        assert got["W"] == min(got["w_plus"], got["w_minus"])
        assert got["w_plus"] + got["w_minus"] \
            == got["n"] * (got["n"] + 1) / 2

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.array([1.0, 2.0, 2.0, 5.0, 3.0])
        got = st.wilcoxon_signed_rank(a, b)
        assert got["n"] == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            st.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.5, 1, size=30)
        b = rng.normal(0, 1, size=30)
        got = st.wilcoxon_signed_rank(a, b)
        assert got["method"] == "normal_approx"
        want = sps.wilcoxon(a, b, mode="approx", correction=False)
        assert got["W"] == pytest.approx(want.statistic)
        assert got["p_value"] == pytest.approx(want.pvalue, rel=1e-6)

    def test_handles_tied_ranks(self):
        a = np.array([2.0, 2.0, 2.0, 5.0, 5.0])
        b = np.zeros(5)
        got = st.wilcoxon_signed_rank(a, b)
        assert got["p_value"] == pytest.approx(self.enumerate_p(a))


class TestF1Summary:
    def test_mean_and_sample_std(self):
        vecs = [[1.0, 0.9], [0.8, 0.7]]
        mean, std = st.f1_summary(vecs)
        flat = np.array([1.0, 0.9, 0.8, 0.7])
        assert mean == pytest.approx(flat.mean())
        assert std == pytest.approx(flat.std(ddof=1))

    def test_single_value_zero_std(self):
        mean, std = st.f1_summary([[0.5]])
        assert (mean, std) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            st.f1_summary([])


class TestMarkdownReport:
    def test_renders_all_pairs(self):
        reps = [st.evaluation_report([0, 1], [0, 1], 2, train_source=a,
                                     test_source=b)
                for a, b in (("x", "y"), ("y", "x"))]
        text = st.render_markdown_report(reps)
        assert "train x -> test y" in text
        assert "train y -> test x" in text
        assert "| class | precision | recall | F1 |" in text
