"""Unit tests for the RS/RH/APD segmenters (repro.segmenters)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.segmenters import (
    HyperplaneTreeSegmenter,
    RandomSegmenter,
    learn_apd_segmenter,
    learn_rh_segmenter,
    learn_segmenter,
    segmenter_from_bytes,
)
from repro.segmenters.base import mix64, validate_spill
from repro.segmenters.hyperplane import learn_tree
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def ds():
    return gaussian_mixture(n=4000, dim=16, n_clusters=20, n_queries=300, seed=3)


class TestMix64:
    def test_deterministic(self):
        x = np.arange(100)
        np.testing.assert_array_equal(mix64(x, 5), mix64(x, 5))

    def test_salt_changes_output(self):
        x = np.arange(100)
        assert not np.array_equal(mix64(x, 1), mix64(x, 2))

    def test_roughly_uniform_mod(self):
        x = np.arange(10_000)
        buckets = np.bincount((mix64(x) % np.uint64(8)).astype(int), minlength=8)
        assert buckets.min() > 1000 and buckets.max() < 1600


class TestValidateSpill:
    @pytest.mark.parametrize("s", ["virtual", "physical"])
    def test_ok(self, s):
        assert validate_spill(s) == s

    def test_bad(self):
        with pytest.raises(ValueError):
            validate_spill("both")


class TestRandomSegmenter:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            RandomSegmenter(0)

    def test_assign_single_segment_each(self, ds):
        seg = RandomSegmenter(8)
        out = seg.assign(ds.base, ds.ids)
        assert all(len(x) == 1 for x in out)
        assert all(0 <= x[0] < 8 for x in out)

    def test_assign_balanced(self, ds):
        seg = RandomSegmenter(8)
        counts = np.bincount(np.concatenate(seg.assign(ds.base, ds.ids)), minlength=8)
        assert counts.min() > 0.7 * ds.n / 8
        assert counts.max() < 1.3 * ds.n / 8

    def test_route_all_segments(self, ds):
        seg = RandomSegmenter(5)
        routes = seg.route(ds.queries[:10])
        for r in routes:
            np.testing.assert_array_equal(r, np.arange(5))

    def test_assign_deterministic_across_instances(self, ds):
        a = RandomSegmenter(4).assign(ds.base[:100], ds.ids[:100])
        b = RandomSegmenter(4).assign(ds.base[:100], ds.ids[:100])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_spill_mode_irrelevant(self, ds):
        seg = RandomSegmenter(4)
        a = seg.assign(ds.base[:50], ds.ids[:50], spill="virtual")
        b = seg.assign(ds.base[:50], ds.ids[:50], spill="physical")
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_kind(self):
        assert RandomSegmenter(2).kind == "RS"

    def test_single_segment(self, ds):
        seg = RandomSegmenter(1)
        assert all(x.tolist() == [0] for x in seg.assign(ds.base[:20], ds.ids[:20]))
        assert all(x.tolist() == [0] for x in seg.route(ds.queries[:5]))


class TestLearnTree:
    def test_depth_and_leaf_count(self, ds):
        for depth in (1, 2, 3):
            h, s, l, r = learn_tree(
                ds.base, depth, 0.1,
                lambda s, r: r.standard_normal(s.shape[1]), seed=0,
            )
            n_nodes = (1 << depth) - 1
            assert h.shape == (n_nodes, ds.dim)
            assert s.shape == l.shape == r.shape == (n_nodes,)
            assert all(a.dtype == np.float32 for a in (h, s, l, r))
            seg = HyperplaneTreeSegmenter(h, s, l, r, kind="RH", alpha=0.1)
            assert seg.n_segments == 1 << depth

    def test_invalid_inputs(self, ds):
        fn = lambda s, r: r.standard_normal(s.shape[1])
        with pytest.raises(ValueError):
            learn_tree(ds.base, 0, 0.1, fn)
        with pytest.raises(ValueError):
            learn_tree(ds.base, 2, 0.6, fn)
        with pytest.raises(ValueError):
            learn_tree(ds.base[:1], 1, 0.1, fn)
        with pytest.raises(ValueError):
            learn_tree(ds.base, 1, 0.1, lambda s, r: np.zeros(s.shape[1]))

    def test_node_band_brackets_split(self, ds):
        h, s, l, r = learn_tree(
            ds.base, 3, 0.15, lambda s, r: r.standard_normal(s.shape[1]), seed=1
        )
        assert np.all(l <= s) and np.all(s <= r)
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-5)

    def test_node_validation(self):
        h, s, l, r = np.ones((3, 2)), np.zeros(3), np.full(3, -1.0), np.ones(3)
        HyperplaneTreeSegmenter(h, s, l, r, kind="RH", alpha=0.1)  # valid
        bad = [
            (h, s, l + 1.5, r),  # l > s
            (h, s, l, r - 1.5),  # s > r
            (h[:2], s[:2], l[:2], r[:2]),  # 2 rows is not 2^L - 1
            (h[:0], s[:0], l[:0], r[:0]),  # no nodes
            (h, s, l, r[:2]),  # lengths differ
            (np.where(np.eye(3, 2) > 0, np.nan, h), s, l, r),  # non-finite
            (h, s, np.full(3, -np.inf), r),  # non-finite
        ]
        for args in bad:
            with pytest.raises(ValueError):
                HyperplaneTreeSegmenter(*args, kind="RH", alpha=0.1)


class TestHyperplaneSegmenters:
    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_power_of_two_required(self, ds, learner):
        with pytest.raises(ValueError):
            learner(ds.base, 6)

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_assign_balanced_median_split(self, ds, learner):
        seg = learner(ds.base, 8, alpha=0.15, seed=0)
        counts = np.bincount(np.concatenate(seg.assign(ds.base, ds.ids)), minlength=8)
        # median splits on the training data itself: near-perfect balance
        assert counts.min() > 0.6 * ds.n / 8
        assert counts.max() < 1.5 * ds.n / 8

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_virtual_spill_fanout(self, ds, learner):
        """Per level, ~2α of queries route both ways ⇒ mean fanout
        ≈ (1+2α)^depth (paper: 'route about 30% to both at any level')."""
        alpha = 0.15
        seg = learner(ds.base, 8, alpha=alpha, seed=0)
        fanout = np.mean([len(r) for r in seg.route(ds.queries)])
        expect = (1 + 2 * alpha) ** 3
        assert 0.75 * expect < fanout < 1.45 * expect

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_virtual_assign_is_single_segment(self, ds, learner):
        seg = learner(ds.base, 4, alpha=0.15, seed=0)
        assert all(len(a) == 1 for a in seg.assign(ds.base, ds.ids, spill="virtual"))

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_physical_route_is_single_segment(self, ds, learner):
        seg = learner(ds.base, 4, alpha=0.15, seed=0)
        assert all(len(r) == 1 for r in seg.route(ds.queries, spill="physical"))

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_physical_assign_superset_of_virtual(self, ds, learner):
        seg = learner(ds.base, 4, alpha=0.15, seed=0)
        virt = seg.assign(ds.base[:500], ds.ids[:500], spill="virtual")
        phys = seg.assign(ds.base[:500], ds.ids[:500], spill="physical")
        for v, p in zip(virt, phys):
            assert set(v.tolist()) <= set(p.tolist())

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_physical_dup_factor_tracks_alpha(self, ds, learner):
        small = learner(ds.base, 4, alpha=0.05, seed=0)
        big = learner(ds.base, 4, alpha=0.25, seed=0)
        f_small = np.mean([len(a) for a in small.assign(ds.base, ds.ids, spill="physical")])
        f_big = np.mean([len(a) for a in big.assign(ds.base, ds.ids, spill="physical")])
        assert f_small < f_big

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_alpha_zero_no_spill(self, ds, learner):
        seg = learner(ds.base, 4, alpha=0.0, seed=0)
        fanout = np.mean([len(r) for r in seg.route(ds.queries)])
        # only exact boundary hits can spill at alpha=0
        assert fanout < 1.05

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_query_route_covers_assignment(self, ds, learner):
        """A query identical to a data point must always probe the segment
        that point was ingested into (virtual spill)."""
        seg = learner(ds.base, 8, alpha=0.15, seed=0)
        pts = ds.base[:300]
        assigned = seg.assign(pts, ds.ids[:300], spill="virtual")
        routed = seg.route(pts, spill="virtual")
        for a, r in zip(assigned, routed):
            assert set(a.tolist()) <= set(r.tolist())

    @pytest.mark.parametrize("learner", [learn_rh_segmenter, learn_apd_segmenter])
    def test_serialization_roundtrip(self, ds, learner):
        seg = learner(ds.base, 8, alpha=0.15, seed=0)
        clone = segmenter_from_bytes(seg.to_bytes())
        assert isinstance(clone, HyperplaneTreeSegmenter)
        a = seg.assign(ds.base[:100], ds.ids[:100])
        b = clone.assign(ds.base[:100], ds.ids[:100])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_kinds(self, ds):
        assert learn_rh_segmenter(ds.base, 2).kind == "RH"
        assert learn_apd_segmenter(ds.base, 2).kind == "APD"

    def test_apd_splits_principal_direction(self):
        """Anisotropic data: APD's split must separate the two lobes far
        better than chance — it approximates the sparsest cut.

        Data is kept in the positive quadrant ("D is almost regular",
        Sec 4.3.3): there the top singular vector tracks the mean
        direction and the *second* tracks the separation axis — the
        regime the paper's 2nd-right-singular-vector choice assumes."""
        g = np.random.default_rng(0)
        lobe1 = 5.0 + g.normal(0, 0.3, size=(500, 8)).astype(np.float32)
        lobe2 = lobe1.copy()
        lobe1[:, 0] -= 4.0
        lobe2[:, 0] += 4.0
        data = np.vstack([lobe1, lobe2])
        seg = learn_apd_segmenter(data, 2, alpha=0.05, seed=0)
        a = np.concatenate(seg.assign(data, np.arange(1000)))
        # each lobe should land (almost) entirely on one side
        purity1 = max(np.mean(a[:500] == 0), np.mean(a[:500] == 1))
        purity2 = max(np.mean(a[500:] == 0), np.mean(a[500:] == 1))
        assert purity1 > 0.95 and purity2 > 0.95

    def test_rh_deterministic_by_seed(self, ds):
        a = learn_rh_segmenter(ds.base, 4, seed=5)
        b = learn_rh_segmenter(ds.base, 4, seed=5)
        c = learn_rh_segmenter(ds.base, 4, seed=6)
        ra = np.concatenate(a.assign(ds.base[:200], ds.ids[:200]))
        rb = np.concatenate(b.assign(ds.base[:200], ds.ids[:200]))
        rc = np.concatenate(c.assign(ds.base[:200], ds.ids[:200]))
        np.testing.assert_array_equal(ra, rb)
        assert not np.array_equal(ra, rc)


class TestLearnSegmenterFactory:
    def test_unknown_kind(self, ds):
        with pytest.raises(ValueError):
            learn_segmenter("LSH", 4, sample=ds.base)

    def test_rh_apd_need_sample(self):
        with pytest.raises(ValueError):
            learn_segmenter("RH", 4)
        with pytest.raises(ValueError):
            learn_segmenter("APD", 4)

    def test_single_segment_degenerates_to_rs(self, ds):
        seg = learn_segmenter("APD", 1, sample=ds.base)
        assert isinstance(seg, RandomSegmenter)
        assert seg.n_segments == 1

    @pytest.mark.parametrize("kind,expect", [("RS", "RS"), ("RH", "RH"), ("APD", "APD")])
    def test_kind_dispatch(self, ds, kind, expect):
        seg = learn_segmenter(kind, 4, sample=ds.base[:500])
        assert seg.kind == expect
        assert seg.n_segments == 4


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(2, 12), st.just(200)),
    depth=st.integers(1, 4),
    alpha=st.floats(0.0, 0.3),
    seed=st.integers(0, 50),
    learner=st.sampled_from([learn_rh_segmenter, learn_apd_segmenter]),
)
def test_property_rh_partition_is_total(n, depth, alpha, seed, learner):
    """Every point lands in >= 1 valid segment in both spill modes, also
    when the sample is smaller than the tree (n < 2^depth: empty nodes)."""
    g = np.random.default_rng(seed)
    data = g.normal(size=(200, 6)).astype(np.float32)
    seg = learner(data[:n], 1 << depth, alpha=alpha, seed=seed)
    assert seg.n_segments == 1 << depth
    for spill in ("virtual", "physical"):
        for a in seg.assign(data, np.arange(200), spill=spill):
            assert len(a) >= 1
            assert all(0 <= s < (1 << depth) for s in a.tolist())
        for r in seg.route(data[:20], spill=spill):
            assert len(r) >= 1
