"""Tests for DTW distances and fault-graph construction.

The DTW oracle enumerates every monotone warping path explicitly, so the
DP implementation is checked against first principles rather than against
itself.
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vibgraph import graph as gr


def enumerate_dtw(a, b):
    """Minimum path cost over all monotone warping paths, by brute force.

    Paths start at (0, 0), end at (n-1, m-1), and each step advances i, j,
    or both by one. Cost of visiting (i, j) is |a_i - b_j|.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    n, m = a.size, b.size
    best = [np.inf]

    def walk(i, j, acc):
        acc += abs(a[i] - b[j])
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def segs(arrays):
    return np.asarray(arrays, dtype=float)


class TestDtwDistance:
    def test_identical_sequences(self):
        assert gr.dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_elements(self):
        assert gr.dtw_distance([2.0], [5.0]) == 3.0

    def test_time_shift_absorbed(self):
        # same shape, shifted by one: warping aligns it for free
        a = [0.0, 1.0, 2.0, 1.0, 0.0]
        b = [0.0, 0.0, 1.0, 2.0, 1.0]
        assert gr.dtw_distance(a, b) <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = rng.normal(size=7), rng.normal(size=5)
            assert gr.dtw_distance(a, b) == pytest.approx(gr.dtw_distance(b, a))

    def test_against_path_enumeration_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.integers(0, 5, size=rng.integers(1, 7)).astype(float)
            b = rng.integers(0, 5, size=rng.integers(1, 7)).astype(float)
            assert gr.dtw_distance(a, b) == pytest.approx(enumerate_dtw(a, b))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gr.dtw_distance([], [1.0])


class TestBatchedDtw:
    """The graph file's bytes depend on every distance, so the batched kernel
    must equal the scalar one exactly, not approximately."""

    def test_matches_scalar_implementation(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(20, 9))
        B = rng.normal(size=(20, 9))
        batched = gr._batched_dtw_equal_length(A, B)
        for k in range(20):
            assert batched[k] == gr.dtw_distance(A[k], B[k])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_scalar_bit_for_bit(self, data):
        w, P = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 60))
        # a few distinct values, so that rows repeat values and min sees ties
        pool = data.draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.1, 0.2, 0.3]),
                                  min_size=1, max_size=5))
        rows = hnp.arrays(np.float64, (P, w), elements=st.sampled_from(pool))
        A, B = data.draw(rows), data.draw(rows)
        same = data.draw(hnp.arrays(bool, P))
        B[same] = A[same]
        batched = gr._batched_dtw_equal_length(A, B)
        assert batched.tolist() == [gr.dtw_distance(a, b) for a, b in zip(A, B)]


class TestSimilarity:
    def test_zero_distance_is_one(self):
        assert gr.similarity(0.0) == 1.0

    def test_decreasing(self):
        assert gr.similarity(1.0) == 0.5
        assert gr.similarity(3.0) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gr.similarity(-0.1)


class TestPairwiseDistances:
    def test_matrix_is_symmetric(self):
        arrays = [np.arange(4.0) + k for k in range(5)]
        D = gr.pairwise_distances(segs(arrays))
        assert D.shape == (5, 5)
        np.testing.assert_array_equal(D, D.T)

    def test_values_match_direct_dtw(self, monkeypatch):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=6) for _ in range(6)]
        with monkeypatch.context() as patch:     # the batched kernel alone
            patch.setattr(gr, "dtw_distance", None)
            D = gr.pairwise_distances(segs(arrays))
        for i, j in itertools.combinations(range(6), 2):
            assert D[i, j] == pytest.approx(gr.dtw_distance(arrays[i], arrays[j]))

    def test_chunk_boundaries_do_not_change_values(self, monkeypatch):
        # 21 pairs in chunks of 3: chunk boundaries fall inside rows of D
        values = np.random.default_rng(4).normal(size=(7, 5))
        whole = gr.pairwise_distances(values)
        monkeypatch.setattr(gr, "_PAIR_CHUNK", 3)
        assert np.array_equal(gr.pairwise_distances(values), whole)

    def test_ragged_input_rejected(self):
        # windows of different lengths, and a 1-D array, are no m x w matrix
        for values in ([np.arange(4.0), np.arange(6.0), np.arange(5.0)], np.arange(6.0)):
            with pytest.raises(ValueError, match="m x w matrix"):
                gr.pairwise_distances(values)

    def test_budget_enforced(self):
        arrays = [np.arange(4.0)] * 10   # 45 pairs
        with pytest.raises(gr.PairBudgetError):
            gr.pairwise_distances(segs(arrays), max_pairs_budget=44)

    def test_no_self_distance(self):
        # the diagonal is zero, also between rows that differ
        D = gr.pairwise_distances(segs([np.arange(4.0) + k for k in range(3)]))
        np.testing.assert_array_equal(D.diagonal(), 0.0)
        assert (D[~np.eye(3, dtype=bool)] > 0).all()


class TestThreshold:
    def test_median_of_known_values(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        assert gr.threshold_from_percentile(D, 50.0) == 2.0

    def test_percentile_range_validated(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            gr.threshold_from_percentile(D, 0.0)
        with pytest.raises(ValueError):
            gr.threshold_from_percentile(D, 101.0)

    def test_reads_upper_triangle_only(self):
        # read whole, the zero diagonal and the 9s below it would pull the
        # 25th and 100th percentiles to 0 and 9
        D = np.array([[0.0, 1.0, 2.0], [9.0, 0.0, 3.0], [9.0, 9.0, 0.0]])
        assert gr.threshold_from_percentile(D, 25.0) == 1.5
        assert gr.threshold_from_percentile(D, 100.0) == 3.0

    def test_needs_a_square_matrix(self):
        for D in ([1.0, 2.0, 3.0], np.zeros((2, 3)), np.zeros((1, 1))):
            with pytest.raises(ValueError):
                gr.threshold_from_percentile(D, 50.0)


class TestBuildGraph:
    def three_cluster_fixture(self):
        # three tight value clusters; within-cluster DTW ~0, across >> 0
        arrays = [np.full(4, v) + 0.01 * k
                  for v in (0.0, 10.0, 20.0) for k in range(3)]
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        features = np.asarray(arrays)
        return segs(arrays), features, labels

    def test_threshold_keeps_clusters_only(self):
        s, X, y = self.three_cluster_fixture()
        g = gr.build_graph(X, y, 1.0, gr.pairwise_distances(s))
        for i, j, w in g.edges:
            assert y[i] == y[j]
            assert 0.0 < w <= 1.0
        assert g.degrees().min() >= 1

    def test_edge_weight_is_inverse_distance(self):
        s = segs([[0.0, 0.0], [1.0, 1.0]])
        g = gr.build_graph(np.zeros((2, 1)), [0, 0], 10.0, gr.pairwise_distances(s))
        (i, j, w), = g.edges
        assert w == pytest.approx(gr.similarity(gr.dtw_distance([0, 0], [1, 1])))

    def test_strictly_below_theta(self):
        s = segs([[0.0], [2.0], [4.0]])   # distances 2, 2, 4
        distances = gr.pairwise_distances(s)
        g = gr.build_graph(np.zeros((3, 1)), [0, 0, 0], 2.0, distances)
        # no distance < 2.0, so only nearest-neighbor fallback edges remain
        for i, j, _ in g.edges:
            assert distances[i, j] == 2.0

    def test_isolated_node_gets_fallback_edge(self):
        s = segs([[0.0], [0.1], [50.0]])
        g = gr.build_graph(np.zeros((3, 1)), [0, 0, 1], 1.0, gr.pairwise_distances(s))
        assert g.degrees().min() >= 1
        assert any(2 in (i, j) for i, j, _ in g.edges)

    def test_neighbor_mask_self_loops(self):
        s, X, y = self.three_cluster_fixture()
        g = gr.build_graph(X, y, 1.0, gr.pairwise_distances(s))
        nb = g.neighbors()
        mask = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
        mask[nb.rows, nb.cols] = True
        assert mask.diagonal().all()
        off_diagonal = {(i, j) for i, j in zip(*np.nonzero(mask)) if i < j}
        assert off_diagonal == {(i, j) for i, j, _ in g.edges}
        assert (mask == mask.T).all()

    def test_neighbors_csr_view(self):
        s, X, y = self.three_cluster_fixture()
        g = gr.build_graph(X, y, 1.0, gr.pairwise_distances(s))
        # link two clusters and leave node 4 with its self-loop only
        g.edges = [e for e in g.edges if 4 not in e[:2]] + [(0, 8, 0.1)]
        nb = g.neighbors()
        m = g.num_nodes
        assert nb.indptr[0] == 0 and nb.indptr[-1] == len(nb.rows) == len(nb.cols)
        for i in range(m):
            row = nb.cols[nb.indptr[i]:nb.indptr[i + 1]]
            assert (nb.rows[nb.indptr[i]:nb.indptr[i + 1]] == i).all()
            assert list(row) == sorted(set(row)) and i in row
        entries = set(zip(nb.rows.tolist(), nb.cols.tolist()))
        both_ways = {(i, j) for i, j, _ in g.edges} | {(j, i) for i, j, _ in g.edges}
        assert {(i, j) for i, j in entries if i != j} == both_ways
        np.testing.assert_array_equal(nb.rows[nb.perm], nb.cols)
        np.testing.assert_array_equal(nb.cols[nb.perm], nb.rows)
        deg = np.zeros(m, dtype=np.int64)
        for i, j, _ in g.edges:
            deg[i] += 1
            deg[j] += 1
        np.testing.assert_array_equal(g.degrees(), deg)
        assert g.degrees()[4] == 0
        assert g.neighbors() is nb

    def test_single_segment_rejected(self):
        with pytest.raises(ValueError):
            gr.build_graph(np.zeros((1, 1)), [0], 1.0, np.zeros((1, 1)))

    def test_row_counts_must_agree(self):
        d = gr.pairwise_distances(segs([[0.0], [1.0], [2.0]]))
        with pytest.raises(ValueError, match="row counts disagree"):
            gr.build_graph(np.zeros((2, 1)), [0, 0], 1.0, d)
        for D in (d[:2], d.ravel(), np.zeros((3, 3))):    # not 2 x 2
            with pytest.raises(ValueError, match="row counts disagree"):
                gr.build_graph(np.zeros((2, 1)), [0, 0], 1.0, D)

    def test_distance_matrix_left_unchanged(self):
        # node 2 is isolated, so its row is searched for the nearest neighbour
        D = gr.pairwise_distances(segs([[0.0], [0.1], [50.0]]))
        before = D.copy()
        gr.build_graph(np.zeros((3, 1)), [0, 0, 1], 1.0, D)
        np.testing.assert_array_equal(D, before)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_loop(self, seed):
        # the rule spelled out pair by pair; small integer distances force ties
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        D = np.zeros((m, m))
        D[np.triu_indices(m, k=1)] = rng.integers(0, 6, m * (m - 1) // 2)
        D += D.T
        theta = float(rng.integers(0, 5))
        linked = {(i, j) for i in range(m) for j in range(i + 1, m) if D[i, j] < theta}
        isolated = [i for i in range(m) if not any(i in pair for pair in linked)]
        for i in isolated:
            j = min((k for k in range(m) if k != i), key=lambda k: (D[i, k], k))
            linked.add((min(i, j), max(i, j)))
        expect = [(i, j, gr.similarity(D[i, j])) for i, j in sorted(linked)]
        g = gr.build_graph(np.zeros((m, 1)), [0] * m, theta, D)
        assert g.edges == expect

    def test_edges_sorted_i_less_j(self):
        s, X, y = self.three_cluster_fixture()
        g = gr.build_graph(X, y, 1.0, gr.pairwise_distances(s))
        pairs = [(i, j) for i, j, _ in g.edges]
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)


MISSING = object()     # a key left out of the graph file


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        s = segs([[0.0, 1.0], [0.5, 1.5], [10.0, 11.0]])
        X = np.random.default_rng(4).normal(size=(3, 10))
        g = gr.build_graph(X, [0, 0, 1], 5.0, gr.pairwise_distances(s),
                           meta={"w_star": 2, "source_id": "fixture"})
        path = tmp_path / "g.json"
        gr.save_graph(g, str(path))
        g2 = gr.load_graph(str(path))
        np.testing.assert_array_equal(g2.node_features, g.node_features)
        np.testing.assert_array_equal(g2.node_labels, g.node_labels)
        assert g2.edges == g.edges
        assert g2.meta["w_star"] == 2
        assert g2.meta["theta"] == 5.0

    def test_file_bytes_are_indented_json_and_reload_the_graph(self, tmp_path):
        s = segs([[0.0, 1.0], [0.5, 1.5], [10.0, 11.0], [0.25, 1.0]])
        X = np.random.default_rng(5).normal(size=(4, 10))
        meta = {"w_star": 2, "source_id": "load \"a\", [b]", "segments": s.tolist(),
                "segment_starts": [0, 2, 4, 6], "scaler": {"col_min": [0.5, -1e-300],
                                                          "col_max": [2.0, 1e300]}}
        g = gr.build_graph(X, [0, 0, 1, 1], 5.0, gr.pairwise_distances(s), meta=meta)
        path = tmp_path / "g.json"
        gr.save_graph(g, str(path))
        doc = {"meta": g.meta, "features": [row.tolist() for row in g.node_features],
               "labels": g.node_labels.tolist(),
               "edges": [[int(i), int(j), float(w)] for i, j, w in g.edges]}
        assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True)
        again = tmp_path / "again.json"
        gr.save_graph(gr.load_graph(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_file_is_valid_json(self, tmp_path):
        s = segs([[0.0], [1.0]])
        g = gr.build_graph(np.zeros((2, 2)), [0, 1], 5.0, gr.pairwise_distances(s))
        path = tmp_path / "g.json"
        gr.save_graph(g, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"meta", "features", "labels", "edges"}

    @pytest.mark.parametrize("key, value", [
        ("edges", [[0, 3, 0.5]]),           # j >= m
        ("edges", [[1, 1, 0.5]]),           # i == j
        ("edges", [[2, 1, 0.5]]),           # i > j
        ("edges", [[-1, 1, 0.5]]),
        ("edges", [[0, 1.5, 0.5]]),         # not an index
        ("edges", [[0, 1, 0.0]]),           # weight outside (0, 1]
        ("edges", [[0, 1, 1.5]]),
        ("edges", [[0, 1]]),                # not a triple
        ("features", [[0.1, float("inf")], [0.2, 0.3], [0.4, 0.5]]),
        ("features", [0.1, 0.2, 0.3]),      # not 2-D
        ("labels", [0, -1, 1]),
        ("labels", [0, 1.5, 1]),
        ("labels", [0, 1]),                 # one label short
        ("features", MISSING),
        ("labels", MISSING),
        ("edges", MISSING),
        (None, [[0.1, 0.2], [0.3, 0.4]]),   # top level not an object
        ("edges", [[0, 1, 0.5], [0, 1, 0.9], [1, 2, 1.0]]),   # (0, 1) twice
        ("meta", []),                       # meta not an object
        ("edges", {"a": 1}),
        ("edges", [[0, 1, {}]]),
        ("features", {"a": [0.1, 0.2]}),
        ("features", [[0.1, 0.2], [0.3], [0.5, 0.6]]),       # ragged
        ("features", [["0.1", "0.2"], ["0.3", "0.4"], ["0.5", "0.6"]]),
        ("edges", None),
    ])
    def test_malformed_file_rejected(self, tmp_path, key, value):
        doc = {"meta": {}, "features": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
               "labels": [0, 1, 1], "edges": [[0, 1, 0.5], [1, 2, 1.0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert len(gr.load_graph(str(path)).edges) == 2
        broken = value if key is None else dict(doc, **{key: value})
        if value is MISSING:
            del broken[key]
        path.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            gr.load_graph(str(path))

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        gr.atomic_write_text(str(tmp_path / "x.txt"), "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]
