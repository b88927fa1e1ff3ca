import numpy as np
import pytest

from fedsplit.datasets import (load_csv_dataset, split_dirichlet, split_iid,
                               synthetic_dataset, train_test_split)


class TestSynthetic:
    def test_size_and_balance(self):
        ds = synthetic_dataset(2000, 20, 4, 2.0, seed=7)
        assert len(ds) == 2000
        counts = np.bincount(ds.labels, minlength=4)
        assert all(abs(c - 500) <= 0.05 * 500 for c in counts)

    def test_deterministic(self):
        a = synthetic_dataset(100, 5, 3, 1.0, seed=1)
        b = synthetic_dataset(100, 5, 3, 1.0, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_separation_scales_means(self):
        near = synthetic_dataset(400, 8, 2, 0.5, seed=3)
        far = synthetic_dataset(400, 8, 2, 8.0, seed=3)

        def mean_gap(ds):
            m0 = ds.features[ds.labels == 0].mean(axis=0)
            m1 = ds.features[ds.labels == 1].mean(axis=0)
            return np.linalg.norm(m0 - m1)

        assert mean_gap(far) > mean_gap(near)


class TestCsv:
    def test_parse(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n3.5,-1.0,1\n0.0,0.0,2\n")
        ds = load_csv_dataset(str(p), num_classes=3)
        assert len(ds) == 3
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 2]

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,9\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(str(p), num_classes=4)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(str(p), num_classes=2)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(str(p), num_classes=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
            load_csv_dataset(str(p), num_classes=2)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv_dataset(str(p), num_classes=2)


class TestSplits:
    def test_iid_equal_shards(self):
        ds = synthetic_dataset(2000, 4, 4, 1.0, seed=0)
        shards = split_iid(ds, 10, seed=1)
        assert [s.size for s in shards] == [200] * 10
        joined = np.concatenate(shards)
        assert np.array_equal(np.sort(joined), np.arange(2000))

    def test_more_clients_than_samples(self):
        ds = synthetic_dataset(2000, 4, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_iid(ds, 3000, seed=1)
        with pytest.raises(ValueError):
            split_dirichlet(ds, 3000, 0.5, seed=1)

    def test_dirichlet_reproducible(self):
        ds = synthetic_dataset(500, 4, 5, 1.0, seed=0)
        a = split_dirichlet(ds, 8, 0.5, seed=42)
        b = split_dirichlet(ds, 8, 0.5, seed=42)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)
        # per-client class histograms identical run to run
        hist_a = [np.bincount(ds.labels[s], minlength=5) for s in a]
        hist_b = [np.bincount(ds.labels[s], minlength=5) for s in b]
        for ha, hb in zip(hist_a, hist_b):
            assert np.array_equal(ha, hb)

    def test_dirichlet_covers_and_disjoint(self):
        ds = synthetic_dataset(600, 4, 3, 1.0, seed=0)
        shards = split_dirichlet(ds, 6, 0.3, seed=5)
        joined = np.concatenate(shards)
        assert joined.size == 600
        assert np.unique(joined).size == 600
        assert all(s.size >= 1 for s in shards)

    def test_dirichlet_too_skewed_for_any_draw_covers_every_client(self):
        ds = synthetic_dataset(600, 4, 3, 2.0, seed=0)
        shards = split_dirichlet(ds, 10, 0.01, seed=1)
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(600))
        assert all(s.size >= 1 for s in shards)

    def test_dirichlet_skew_increases_as_alpha_shrinks(self):
        ds = synthetic_dataset(3000, 4, 4, 1.0, seed=0)

        def skew(alpha):
            shards = split_dirichlet(ds, 10, alpha, seed=3)
            hists = np.array([np.bincount(ds.labels[s], minlength=4) / s.size
                              for s in shards])
            return hists.std(axis=0).mean()

        assert skew(0.2) > skew(100.0)

    def test_train_test_split(self):
        ds = synthetic_dataset(100, 4, 2, 1.0, seed=0)
        train, test = train_test_split(ds, 0.2, seed=1)
        assert len(train) == 80 and len(test) == 20
        with pytest.raises(ValueError):
            train_test_split(ds, 1.0, seed=1)
