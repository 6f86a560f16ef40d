"""Iterative-driver tests: the apps run to convergence end to end."""

import numpy as np

from repro.workloads.drivers import run_hmm_em, run_kmeans, run_pagerank, run_svm


class TestKMeans:
    def test_converges_on_clustered_data(self):
        result, centroids = run_kmeans(n_records=300, seed=0)
        assert result.converged
        assert result.final_delta < 1e-3
        assert centroids.shape == (5, 8)

    def test_deltas_trend_downward(self):
        result, _ = run_kmeans(n_records=300, seed=1)
        assert result.history[-1] < result.history[0]

    def test_recovers_generator_centers(self):
        from repro.workloads import datagen

        result, centroids = run_kmeans(n_records=600, n_clusters=3, n_dims=4, seed=2)
        pts = {}
        for c, x in datagen.points(600, n_dims=4, n_clusters=3, seed=2):
            pts.setdefault(c, []).append(x)
        true_centers = np.array([np.mean(v, axis=0) for v in pts.values()])
        # Every true centre has a learned centroid nearby.
        for tc in true_centers:
            d = np.linalg.norm(centroids - tc, axis=1).min()
            assert d < 1.5


class TestPageRank:
    def test_converges(self):
        result, ranks = run_pagerank(n_edges=800, n_nodes=80, seed=0)
        assert result.converged
        assert len(ranks) == 80

    def test_ranks_bounded_below_by_teleport(self):
        _result, ranks = run_pagerank(n_edges=500, n_nodes=50, seed=1)
        assert all(r >= 0.15 - 1e-9 for r in ranks.values())

    def test_popular_nodes_rank_higher(self):
        """Preferential-attachment targets accumulate rank."""
        _result, ranks = run_pagerank(n_edges=2000, n_nodes=100, seed=3)
        top = sorted(ranks.values(), reverse=True)
        assert top[0] > 3 * np.median(list(ranks.values()))


class TestSVM:
    def test_learns_separable_data(self):
        result, weights, accuracy = run_svm(n_records=600, epochs=25, seed=0)
        assert accuracy > 0.9
        assert weights.shape == (16,)
        assert result.converged


class TestHMM:
    def test_em_updates_move_then_settle(self):
        result, emit = run_hmm_em(n_sequences=30, iterations=6, seed=0)
        assert result.iterations == 6
        # Valid distribution rows.
        assert np.allclose(emit.sum(axis=1), 1.0)
        # EM is monotone-ish here: later updates smaller than the first.
        assert result.history[-1] < result.history[0]
