import csv
import dataclasses
import importlib
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsplit import datasets, runtime, seeds
from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode, RoundConfig,
                             config_from_flat)
from fedsplit.datasets import (Dataset, held_out_rows, load_csv_dataset, split_dirichlet,
                               split_iid, synthetic_dataset, train_test_rows)
from fedsplit.errors import check_real
from fedsplit.metrics import accuracy
from fedsplit.models import ModelSpec, init_params


def reference_synthetic(num_samples, input_dim, num_classes, separation, seed):
    """``synthetic_dataset`` as it was before the class means were added into
    the noise in row blocks: the whole gather, then the sum."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, (num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    features = means[labels] + rng.normal(0.0, 1.0, (num_samples, input_dim))
    return Dataset(features=features, labels=labels)


def reference_normal_synthetic(num_samples, input_dim, num_classes, separation, seed):
    """``synthetic_dataset`` as it was before it drew with ``standard_normal``:
    ``rng.normal(0.0, 1.0, ...)``, which numpy computes as ``0.0 + 1.0 * z``."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, (num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    features = rng.normal(0.0, 1.0, (num_samples, input_dim))
    for start in range(0, num_samples, datasets._ROW_BLOCK):
        rows = slice(start, start + datasets._ROW_BLOCK)
        features[rows] += means[labels[rows]]
    return Dataset(features=features, labels=labels)


def reference_load_csv(path, input_dim, num_classes):
    """``load_csv_dataset`` as it was before rows were parsed into a
    preallocated matrix: a list of Python-float rows, UTF-8 without BOM."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if "label" not in header:
        raise ValueError(f"{path}: header must contain a 'label' column")
    label_col = header.index("label")
    feature_cols = [i for i in range(len(header)) if i != label_col]
    if len(feature_cols) != input_dim:
        raise ValueError(f"{path}: header has {len(feature_cols)} feature columns, "
                         f"but dataset.input_dim is {input_dim}")
    rows, labels = [], []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line_no}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        try:
            feats = [float(row[i]) for i in feature_cols]
            label = int(row[label_col])
            if not all(map(math.isfinite, feats)):
                raise ValueError("non-finite feature value")
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        if not 0 <= label < num_classes:
            raise ValueError(
                f"{path}: line {line_no}: label {label} outside "
                f"[0, {num_classes})"
            )
        rows.append(feats)
        labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features=np.array(rows, dtype=np.float64),
                   labels=np.array(labels, dtype=np.int64))


def assert_same_dataset(got, want):
    """Same dtypes, shapes and bits (so -0.0 and 0.0 differ)."""
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.labels.dtype == want.labels.dtype == np.int64
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert np.array_equal(got.labels, want.labels)


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

    @given(st.integers(1, 3 * datasets._ROW_BLOCK), st.integers(1, 5), st.integers(1, 12),
           st.floats(0.0, 1e6), st.integers(0, 2**32 - 1))
    @example(datasets._ROW_BLOCK - 1, 3, 4, 2.0, 0)
    @example(datasets._ROW_BLOCK, 1, 1, 0.0, 1)
    @example(datasets._ROW_BLOCK + 1, 2, 3, 1e6, 2)
    @example(2 * datasets._ROW_BLOCK + 7, 4, 12, 3.5, 3)
    @settings(deadline=None)
    def test_equals_the_whole_gather_reference(self, num_samples, input_dim, num_classes,
                                               separation, seed):
        """Adding the means into the noise block by block, and drawing with
        ``standard_normal`` in place of ``normal(0.0, 1.0)``, keep every bit,
        including sample counts across the row-block boundary."""
        args = (num_samples, input_dim, num_classes, separation, seed)
        if num_samples < num_classes:
            with pytest.raises(ValueError, match="at least one sample per class"):
                synthetic_dataset(*args)
            return
        got = synthetic_dataset(*args)
        assert_same_dataset(got, reference_synthetic(*args))
        assert_same_dataset(got, reference_normal_synthetic(*args))


class TestCsv:
    def test_parse(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n3.5,-1.0,1\n0.0,0.0,2\n")
        ds = load_csv_dataset(str(p), input_dim=2, num_classes=3)
        assert len(ds) == 3
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 2]

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,9\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(str(p), input_dim=2, num_classes=4)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    @pytest.mark.parametrize("header", ["f0,label", "f0,f1,f2,label", "label,f0,f1,f2"])
    def test_header_width_differs_from_input_dim(self, tmp_path, header):
        p = tmp_path / "wide.csv"
        p.write_text(f"{header}\n" + ",".join(["0"] * len(header.split(","))) + "\n")
        width = len(header.split(",")) - 1
        with pytest.raises(ValueError, match=rf"wide\.csv: header has {width} feature "
                                             rf"columns, but dataset\.input_dim is 2"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"f0,f1,label\n1.0,2.0,0\n1.0,2.0,1 # caf\xe9\n")
        with pytest.raises(ValueError, match=r"latin1\.csv: .*0xe9"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_utf8_bom_is_skipped(self, tmp_path):
        """A BOM before a label-first header used to hide the label column."""
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbflabel,f0,f1\r\n1,1.0,2.0\r\n\r\n0,3.5,-1.0\r\n")
        ds = load_csv_dataset(str(p), input_dim=2, num_classes=2)
        assert ds.labels.tolist() == [1, 0]
        assert ds.features.tolist() == [[1.0, 2.0], [3.5, -1.0]]

    def test_not_utf8_after_a_bom_names_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\xef\xbb\xbflabel,f0,f1\n0,1.0,2.0 # caf\xe9\n")
        with pytest.raises(ValueError, match=r"latin1\.csv: .*0xe9"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_over_long_field_names_file_and_line(self, tmp_path):
        """The csv module's field limit used to escape as ``_csv.Error``."""
        p = tmp_path / "long.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n" + "1" * 140_000 + ",2.0,1\n")
        with pytest.raises(ValueError, match=r"long\.csv: line 3: field larger than "
                                             r"field limit"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)

    def test_row_fault_before_an_undecodable_byte_past_8_kib(self, tmp_path):
        """Rows are parsed as the file is decoded, one 8 KiB chunk at a time,
        so a bad row in the first chunk is met before a bad byte in a later one."""
        p = tmp_path / "late.csv"
        good = b"1.0,2.0,0\n" * 1000
        p.write_bytes(b"f0,f1,label\n1.0,oops,1\n" + good + b"1.0,2.0,1 # caf\xe9\n")
        assert p.stat().st_size > 8192
        with pytest.raises(ValueError, match=r"late\.csv: line 2: could not convert "
                                             r"string to float: 'oops'"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)
        p.write_bytes(b"f0,f1,label\n" + good + b"1.0,2.0,1 # caf\xe9\n")
        with pytest.raises(ValueError, match=r"late\.csv: .*0xe9"):
            load_csv_dataset(str(p), input_dim=2, num_classes=2)


_FEATURE_FAULTS = ("oops", "", "nan", "NaN", "inf", "-inf", "1e999", "0x10")
_LABEL_FAULTS = ("1.5", "x", "", "-1", "99", "1e0")
# Most files are well formed; the rest carry one fault of each kind.
_FILE_FAULTS = ("none",) * 6 + ("no label column", "header width", "not utf-8",
                                "field count", "feature", "label")


@st.composite
def csv_cases(draw):
    """A small CSV file's bytes, with the loader's ``input_dim`` and
    ``num_classes``: any field order, blank lines, quoted and multi-line
    fields, LF or CRLF endings, and at most one fault, of any kind."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    fault = draw(st.sampled_from(_FILE_FAULTS))
    label_col = draw(st.integers(0, d))
    names = [f"f{i}" for i in range(d)]
    names.insert(label_col, "lbl" if fault == "no label column" else
                 draw(st.sampled_from(["label", " label "])))

    def cell(text):
        quoting = draw(st.sampled_from(["plain", "plain", "quoted", "multi-line"]))
        if quoting == "quoted":
            return f'"{text}"'
        if quoting == "multi-line":
            return f'"{text}{eol}"'
        return text

    rows = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 5)) == 5:
            rows.append(None)  # a blank line
            continue
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=d, max_size=d))
        fmt = draw(st.sampled_from(["{!r}", "{:.6f}", "{:.0f}", " {!r} "]))
        fields = [fmt.format(v) for v in values]
        fields.insert(label_col, str(draw(st.integers(0, k - 1))))
        rows.append(fields)
    data_rows = [fields for fields in rows if fields is not None]
    if fault in ("field count", "feature", "label") and data_rows:
        fields = draw(st.sampled_from(data_rows))
        if fault == "field count":
            if draw(st.booleans()):
                fields.append("0")
            else:
                fields.pop()
        elif fault == "feature":
            at = draw(st.sampled_from([i for i in range(d + 1) if i != label_col]))
            fields[at] = draw(st.sampled_from(_FEATURE_FAULTS))
        else:
            fields[label_col] = draw(st.sampled_from(_LABEL_FAULTS))
    lines = [",".join(cell(n) for n in names)]
    lines += ["" if fields is None else ",".join(cell(f) for f in fields) for fields in rows]
    data = (eol.join(lines) + (eol if draw(st.booleans()) else "")).encode("ascii")
    if fault == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    input_dim = d
    if fault == "header width":
        input_dim = draw(st.sampled_from([i for i in (d - 1, d + 1) if i >= 1]))
    return data, input_dim, k


class TestCsvAgainstReference:
    @staticmethod
    def outcome(load, path, input_dim, num_classes):
        try:
            return load(path, input_dim, num_classes)
        except ValueError as exc:
            return str(exc)

    @given(csv_cases(), st.booleans())
    @example((b"", 1, 1), False)
    @example((b"", 1, 1), True)
    @example((b"label,f0\r\n", 1, 1), True)
    @example((b"f0,label\n\n\n", 1, 1), False)
    @example((b"label,f0\r\n1,2.5\r\n\r\n0,-0.0\r\n", 1, 2), True)
    @example((b"f0,label\n\n1.5,0\n\n\n2.5,1\n\n", 1, 2), False)
    @example((b'"f0\n",label\n"1.0\n","1\n"\n"2.0",0', 1, 2), False)
    @example((b"\nf0,label\n1.5,0\n", 1, 2), False)
    @settings(deadline=None)
    def test_equals_the_list_reference(self, case, bom):
        """The file with an optional BOM loads to the same bits, or fails
        with the same message, as the list-based parser on the file without
        one (bytes under 8 KiB, so a decode error's position is the same)."""
        data, input_dim, num_classes = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            want = self.outcome(reference_load_csv, path, input_dim, num_classes)
            with open(path, "wb") as fh:
                fh.write(b"\xef\xbb\xbf" * bom + data)
            got = self.outcome(load_csv_dataset, path, input_dim, num_classes)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert_same_dataset(got, want)


class TestSplits:
    def test_iid_equal_shards(self):
        ds = synthetic_dataset(2000, 4, 4, 1.0, seed=0)
        shards = split_iid(len(ds), 10, seed=1)
        assert [s.size for s in shards] == [200] * 10
        joined = np.concatenate(shards)
        assert np.array_equal(np.sort(joined), np.arange(2000))

    def test_more_clients_than_samples(self):
        ds = synthetic_dataset(2000, 4, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_iid(len(ds), 3000, seed=1)
        with pytest.raises(ValueError):
            split_dirichlet(ds.labels, 3000, 0.5, seed=1)

    def test_dirichlet_reproducible(self):
        ds = synthetic_dataset(500, 4, 5, 1.0, seed=0)
        a = split_dirichlet(ds.labels, 8, 0.5, seed=42)
        b = split_dirichlet(ds.labels, 8, 0.5, seed=42)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)
        # per-client class histograms identical run to run
        hist_a = [np.bincount(ds.labels[s], minlength=5) for s in a]
        hist_b = [np.bincount(ds.labels[s], minlength=5) for s in b]
        for ha, hb in zip(hist_a, hist_b):
            assert np.array_equal(ha, hb)

    def test_dirichlet_covers_and_disjoint(self):
        ds = synthetic_dataset(600, 4, 3, 1.0, seed=0)
        shards = split_dirichlet(ds.labels, 6, 0.3, seed=5)
        joined = np.concatenate(shards)
        assert joined.size == 600
        assert np.unique(joined).size == 600
        assert all(s.size >= 1 for s in shards)

    def test_dirichlet_too_skewed_for_any_draw_covers_every_client(self):
        ds = synthetic_dataset(600, 4, 3, 2.0, seed=0)
        shards = split_dirichlet(ds.labels, 10, 0.01, seed=1)
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(600))
        assert all(s.size >= 1 for s in shards)

    @pytest.mark.parametrize("alpha", [1.7e308, 2**1023, 4.5e307],
                             ids=["1.7e308", "2**1023", "4.5e307"])
    def test_dirichlet_refuses_an_alpha_whose_draw_overflows(self, alpha):
        # rng.dirichlet(np.full(2, 1.7e308)) is [0, 0]: every draw left a
        # shard empty, so all DIRICHLET_DRAWS were burnt for the fallback
        ds = synthetic_dataset(6, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match=r"^alpha=.* times num_clients=2 overflows "
                                             r"the Dirichlet draw$"):
            split_dirichlet(ds.labels, 2, alpha, seed=0)
        assert len(split_dirichlet(ds.labels, 2, 4e307, seed=0)) == 2

    def test_dirichlet_skew_increases_as_alpha_shrinks(self):
        ds = synthetic_dataset(3000, 4, 4, 1.0, seed=0)

        def skew(alpha):
            shards = split_dirichlet(ds.labels, 10, alpha, seed=3)
            hists = np.array([np.bincount(ds.labels[s], minlength=4) / s.size
                              for s in shards])
            return hists.std(axis=0).mean()

        assert skew(0.2) > skew(100.0)

    def test_train_test_rows(self):
        train, test = train_test_rows(100, 0.2, seed=1)
        assert train.size == 80 and test.size == 20
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(100))
        with pytest.raises(ValueError):
            train_test_rows(100, 1.0, seed=1)


# -- reference: the sets as setup made them before every row was placed once --
# _build_dataset, synthetic_dataset (with its 4,096-row block) and
# train_test_split copied verbatim, then _setup's shard and subset lines, with
# Dataset.subset written out as ``_ref_rows``.


def _ref_synthetic_dataset(num_samples, input_dim, num_classes, separation, seed):
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    check_real("separation", separation, "(-inf, inf)")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    features = rng.standard_normal((num_samples, input_dim))
    for start in range(0, num_samples, 4096):
        rows = slice(start, start + 4096)
        features[rows] += means[labels[rows]]
    return Dataset(features=features, labels=labels)


def _ref_build_dataset(cfg):
    d, m = cfg.data, cfg.model
    if d.kind == "synthetic":
        return _ref_synthetic_dataset(d.num_samples, m.input_dim, m.num_classes,
                                      d.separation, seeds.seed_sequence(cfg.seed, seeds.DATA))
    return load_csv_dataset(d.path, m.input_dim, m.num_classes)


def _ref_rows(ds, indices):
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(features=ds.features[idx], labels=ds.labels[idx])


def _ref_train_test_split(ds, test_fraction, seed):
    check_real("test_fraction", test_fraction, "[0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    n_test = held_out_rows(len(ds), test_fraction)
    return _ref_rows(ds, perm[n_test:]), _ref_rows(ds, perm[:n_test])


def reference_sets(cfg):
    """(test set, client sets) as ``runtime._setup`` made them by copies."""
    train, test = _ref_train_test_split(_ref_build_dataset(cfg), cfg.data.test_fraction,
                                        seeds.seed_sequence(cfg.seed, seeds.SPLIT, 0))
    if len(test) == 0:
        raise ValueError("test_fraction left an empty evaluation set")
    n_clients = cfg.rounds.clients_total_N
    shard_seed = seeds.seed_sequence(cfg.seed, seeds.SPLIT, 1)
    if cfg.data.partition == "iid":
        shards = split_iid(len(train), n_clients, shard_seed)
    else:
        shards = split_dirichlet(train.labels, n_clients, cfg.data.dirichlet_alpha, shard_seed)
    return test, [_ref_rows(train, s) for s in shards]


@st.composite
def placement_configs(draw):
    """A synthetic or CSV dataset of up to three draw blocks, any test
    fraction that leaves both sides a row, an iid or Dirichlet split over
    1-25 clients, and a seed; the model and protection do not touch the rows."""
    num_classes = draw(st.integers(1, 6))
    num_samples = draw(st.integers(max(2, num_classes), 3 * datasets._ROW_BLOCK))
    test_fraction = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    n_test = held_out_rows(num_samples, test_fraction)
    assume(1 <= n_test < num_samples)
    data = DataConfig(kind=draw(st.sampled_from(["synthetic", "csv"])), path="unused",
                      num_samples=num_samples, separation=draw(st.floats(0.0, 10.0)),
                      partition=draw(st.sampled_from(["iid", "dirichlet"])),
                      dirichlet_alpha=draw(st.floats(0.01, 100.0)), test_fraction=test_fraction)
    n_clients = draw(st.integers(1, min(25, num_samples - n_test)))
    return ExperimentConfig(
        data=data, model=ModelSpec("logistic", draw(st.integers(1, 5)), num_classes),
        rounds=RoundConfig(clients_total_N=n_clients, clients_sampled_n=n_clients),
        protection=ProtectionMode(kind="none"), seed=draw(st.integers(0, 2**32 - 1)))


def _placement_example(num_samples, kind="synthetic", partition="dirichlet"):
    return ExperimentConfig(
        data=DataConfig(kind=kind, path="unused", num_samples=num_samples,
                        partition=partition, test_fraction=0.25),
        model=ModelSpec("logistic", 3, 4),
        rounds=RoundConfig(clients_total_N=7, clients_sampled_n=7),
        protection=ProtectionMode(kind="none"), seed=num_samples)


class TestPlacement:
    @given(placement_configs())
    @example(_placement_example(datasets._ROW_BLOCK - 1))
    @example(_placement_example(datasets._ROW_BLOCK, partition="iid"))
    @example(_placement_example(datasets._ROW_BLOCK + 1))
    @example(_placement_example(2 * datasets._ROW_BLOCK + 7, partition="iid"))
    @example(_placement_example(3 * datasets._ROW_BLOCK, kind="csv"))
    @settings(deadline=None)
    def test_setup_equals_the_split_then_subset_reference(self, cfg):
        """``_setup``'s test set and every client set, views of one placed
        matrix, equal the copies the split-then-subset path made: features,
        labels and row order, bit for bit.  A CSV case writes
        ``num_samples`` seeded rows and loads them on both sides."""
        with tempfile.TemporaryDirectory() as tmp:
            if cfg.data.kind == "csv":
                m, path = cfg.model, os.path.join(tmp, "data.csv")
                rng = np.random.default_rng(cfg.seed)
                feats = rng.standard_normal((cfg.data.num_samples, m.input_dim))
                labels = rng.integers(0, m.num_classes, cfg.data.num_samples)
                with open(path, "w") as fh:
                    fh.write(",".join([f"f{i}" for i in range(m.input_dim)] + ["label"]) + "\n")
                    fh.writelines(",".join(map(repr, row.tolist())) + f",{y}\n"
                                  for row, y in zip(feats, labels))
                cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, path=path))
            state = runtime._setup(cfg)
            want_test, want_clients = reference_sets(cfg)
        assert_same_dataset(state.test_set, want_test)
        assert len(state.client_sets) == len(want_clients)
        for got, want in zip(state.client_sets, want_clients):
            assert_same_dataset(got, want)
        base = state.test_set.features.base
        assert base is not None and all(c.features.base is base for c in state.client_sets)


class TestMemory:
    """``tracemalloc`` peaks as multiples of the feature matrix's bytes: a
    synthetic setup holds the placed matrix and two draw blocks, a CSV setup
    and a CSV load the matrix and one row, and an evaluation one row block's
    activations."""

    @staticmethod
    def traced(fn, *args):
        """``fn(*args)`` and the peak bytes traced while it ran.

        numpy.ma is imported first: the first ``np.unique`` in a process
        (``split_dirichlet``'s) imports it, about 0.5 MB that would make a
        reading depend on which test ran before.
        """
        importlib.import_module("numpy.ma")
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_setup_of_a_mixed_ckks_shape(self):
        """20,000 x 100 synthetic rows, Dirichlet shards over N = 20, a ckks
        key: the placed matrix once, never a full copy beside it."""
        cfg = config_from_flat({
            "dataset.num_samples": "20000", "dataset.input_dim": "100",
            "dataset.num_classes": "10", "dataset.partition": "dirichlet",
            "dataset.dirichlet_alpha": "0.5", "model.kind": "mlp",
            "model.hidden_dims": "256", "protection.kind": "parallel",
            "he.backend": "ckks", "round.clients_total_N": "20",
            "round.clients_sampled_n": "10", "seed": "1"})
        features = 20000 * 100 * 8
        state, peak = self.traced(runtime._setup, cfg)
        assert peak <= 1.3 * features
        assert sum(len(c) for c in state.client_sets) + len(state.test_set) == 20000

    def test_setup_of_a_csv_dataset(self, tmp_path):
        """4,000 x 100 CSV rows: the load, permuted in place into the placed order."""
        path = self.write_csv(tmp_path, 4000)
        cfg = config_from_flat({
            "dataset.kind": "csv", "dataset.path": str(path), "dataset.input_dim": "100",
            "dataset.num_classes": "10", "dataset.partition": "dirichlet",
            "model.kind": "mlp", "model.hidden_dims": "256", "protection.kind": "none",
            "round.clients_total_N": "20", "round.clients_sampled_n": "10"})
        state, peak = self.traced(runtime._setup, cfg)
        assert peak <= 1.3 * 4000 * 100 * 8
        assert sum(len(c) for c in state.client_sets) + len(state.test_set) == 4000

    def test_accuracy_holds_one_block(self):
        """The 100 -> 256 -> 10 MLP on 4,000 test rows: one 1,024-row block's
        hidden activations (2.1 MB), under the test set's own bytes; the whole
        set's activations were 2.7x them."""
        spec = ModelSpec("mlp", 100, 10, (256,))
        test = synthetic_dataset(4000, 100, 10, 2.0, seed=0)
        w = init_params(spec, 0)
        acc, peak = self.traced(accuracy, spec, w, test)
        assert peak <= test.features.nbytes
        assert 0.0 <= acc <= 1.0

    @staticmethod
    def write_csv(tmp_path, num_rows):
        """``num_rows`` rows of 100 six-decimal features and a label in [0, 10)."""
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.normal(0.0, 1.0, (num_rows, 100)), np.arange(num_rows) % 10])
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, fmt=["%.6f"] * 100 + ["%d"], delimiter=",", comments="",
                   header=",".join([f"f{i}" for i in range(100)] + ["label"]))
        return path

    def test_csv_load(self, tmp_path):
        path = self.write_csv(tmp_path, 4000)
        features = 4000 * 100 * 8
        ds, peak = self.traced(load_csv_dataset, str(path), 100, 10)
        assert peak <= 1.3 * features
        assert ds.features.shape == (4000, 100)
        assert np.array_equal(ds.labels, np.arange(4000) % 10)
