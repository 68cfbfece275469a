"""Tests for the coarse quantizer: determinism, correctness, round trips.

The quantizer is the ANN path's geometry: everything downstream (cell
assignments on disk, recall gates in the benches, bit-identical probing
after reopen) leans on `fit` being a pure function of (data, k, seed)
and on the manifest round trip preserving the centroids exactly.
"""

import numpy as np
import pytest

from repro.index import CoarseQuantizer


def _blobs(n=400, k=8, dim=12, seed=3, spread=0.05):
    """Well-separated clustered data: n rows around k unit-norm centers."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim)).astype(np.float32) * 3.0
    assign = np.arange(n) % k
    noise = rng.standard_normal((n, dim)).astype(np.float32) * spread
    return centers[assign] + noise, assign


class TestFit:
    def test_deterministic_for_seed(self):
        x, _ = _blobs()
        a = CoarseQuantizer.fit(x, 8, seed=5)
        b = CoarseQuantizer.fit(x, 8, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_seed_changes_solution(self):
        # Not a strict guarantee of k-means, but on asymmetric data two
        # seeds landing on bit-identical centroids would mean the seed is
        # ignored somewhere.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 16)).astype(np.float32)
        a = CoarseQuantizer.fit(x, 10, seed=1)
        b = CoarseQuantizer.fit(x, 10, seed=2)
        assert not np.array_equal(a.centroids, b.centroids)

    def test_recovers_separated_clusters(self):
        x, truth = _blobs(n=400, k=8)
        quantizer = CoarseQuantizer.fit(x, 8, seed=0)
        cells = quantizer.assign(x)
        # Every true cluster should land in exactly one fitted cell.
        for label in range(8):
            assert len(set(cells[truth == label].tolist())) == 1

    def test_k_clamped_to_rows(self):
        x = np.eye(3, 6, dtype=np.float32)
        quantizer = CoarseQuantizer.fit(x, 50, seed=0)
        assert quantizer.num_cells == 3

    def test_duplicate_heavy_data(self):
        # All-identical rows starve the k-means++ distance distribution
        # (total mass 0) and leave cells empty each Lloyd round; both
        # fallbacks must keep the fit finite and deterministic.
        x = np.ones((20, 4), dtype=np.float32)
        a = CoarseQuantizer.fit(x, 4, seed=7)
        b = CoarseQuantizer.fit(x, 4, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert np.isfinite(a.centroids).all()
        assert a.assign(x).shape == (20,)

    def test_validation(self):
        x = np.ones((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="zero embeddings"):
            CoarseQuantizer.fit(np.zeros((0, 2), dtype=np.float32), 2)
        with pytest.raises(ValueError, match="num_cells"):
            CoarseQuantizer.fit(x, 0)
        with pytest.raises(ValueError, match="iters"):
            CoarseQuantizer.fit(x, 2, iters=0)


class TestAssign:
    def test_matches_brute_force(self):
        x, _ = _blobs(n=257, k=6, dim=9)  # odd n exercises the last block
        quantizer = CoarseQuantizer.fit(x, 6, seed=0)
        d2 = (
            (x.astype(np.float64) ** 2).sum(axis=1)[:, None]
            - 2.0 * x.astype(np.float64) @ quantizer.centroids.T.astype(np.float64)
            + (quantizer.centroids.astype(np.float64) ** 2).sum(axis=1)[None, :]
        )
        np.testing.assert_array_equal(quantizer.assign(x), np.argmin(d2, axis=1))

    def test_empty_and_bad_dim(self):
        quantizer = CoarseQuantizer.fit(np.eye(4, dtype=np.float32), 2)
        assert quantizer.assign(np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError, match="dim"):
            quantizer.assign(np.zeros((3, 5), dtype=np.float32))


class TestManifest:
    def test_round_trip_bit_exact(self):
        x, _ = _blobs(n=100, k=5, dim=7)
        quantizer = CoarseQuantizer.fit(x, 5, seed=11)
        # Through JSON for realism: that is how the index persists it.
        import json

        payload = json.loads(json.dumps(quantizer.to_manifest()))
        reopened = CoarseQuantizer.from_manifest(payload)
        np.testing.assert_array_equal(reopened.centroids, quantizer.centroids)
        np.testing.assert_array_equal(reopened.assign(x), quantizer.assign(x))

    def test_corrupt_payload_rejected(self):
        x, _ = _blobs(n=50, k=3, dim=4)
        payload = CoarseQuantizer.fit(x, 3).to_manifest()
        payload["num_cells"] = 99
        with pytest.raises(ValueError, match="corrupt"):
            CoarseQuantizer.from_manifest(payload)

    def test_needs_a_centroid(self):
        with pytest.raises(ValueError, match="at least one"):
            CoarseQuantizer(np.zeros((0, 4), dtype=np.float32))
