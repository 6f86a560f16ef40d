"""Hierarchical-clustering tests, cross-checked against SciPy."""

import numpy as np
import pytest

from repro.analysis.hcluster import (
    AgglomerativeClustering,
    representatives,
)


@pytest.fixture
def blobs():
    rng = np.random.default_rng(1)
    return np.vstack(
        [
            rng.normal(loc=(0, 0), scale=0.2, size=(10, 2)),
            rng.normal(loc=(10, 0), scale=0.2, size=(10, 2)),
            rng.normal(loc=(0, 10), scale=0.2, size=(10, 2)),
        ]
    )


def test_recovers_three_blobs(blobs):
    labels = AgglomerativeClustering().fit(blobs).labels_for(3)
    groups = [set(np.flatnonzero(labels == l)) for l in range(3)]
    expected = [set(range(0, 10)), set(range(10, 20)), set(range(20, 30))]
    assert sorted(map(frozenset, groups)) == sorted(map(frozenset, expected))


@pytest.mark.parametrize("linkage", ["average", "single", "complete"])
def test_all_linkages_recover_blobs(blobs, linkage):
    labels = AgglomerativeClustering(linkage=linkage).fit(blobs).labels_for(3)
    assert len(set(labels.tolist())) == 3
    # Points 0..9 always land together.
    assert len(set(labels[:10].tolist())) == 1


def test_merge_distances_nondecreasing_for_average(blobs):
    cl = AgglomerativeClustering("average").fit(blobs)
    d = [m.distance for m in cl.merges_]
    # Average linkage on well-separated blobs is monotone.
    assert all(b >= a - 1e-9 for a, b in zip(d, d[1:]))


def test_matches_scipy_average_linkage(blobs):
    scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import pdist

    Z = scipy_hier.linkage(pdist(blobs), method="average")
    ours = AgglomerativeClustering("average").fit(blobs)
    assert np.allclose(
        sorted(m.distance for m in ours.merges_), sorted(Z[:, 2]), rtol=1e-8
    )


def test_fcluster_counts(blobs):
    cl = AgglomerativeClustering().fit(blobs)
    for k in (1, 2, 5, 30):
        labels = cl.labels_for(k)
        assert len(set(labels.tolist())) == k


def test_fcluster_validation(blobs):
    cl = AgglomerativeClustering().fit(blobs)
    with pytest.raises(ValueError):
        cl.labels_for(0)
    with pytest.raises(ValueError):
        cl.labels_for(31)


def test_representatives(blobs):
    labels = AgglomerativeClustering().fit(blobs).labels_for(3)
    reps = representatives(blobs, labels)
    assert len(reps) == 3
    assert len(set(labels[reps].tolist())) == 3


def test_unfitted_raises():
    with pytest.raises(RuntimeError):
        AgglomerativeClustering().labels_for(2)


def test_invalid_linkage():
    with pytest.raises(ValueError):
        AgglomerativeClustering("ward")


def test_needs_two_samples():
    with pytest.raises(ValueError):
        AgglomerativeClustering().fit(np.zeros((1, 2)))
