import tracemalloc

import numpy as np
import pytest
from reference import write_idx_images, write_idx_labels

from ternspike.data import (
    Dataset,
    dataset_stats,
    encode_batch,
    idx_dataset,
    normalize,
    parse_idx_images,
    parse_idx_labels,
    synth_event_frames,
    synth_static,
    write_manifest,
)
from ternspike.errors import ConsistencyError, FormatError, LengthError


def _fixture_idx(n=100, rows=7, cols=5, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    return write_idx_images(images), write_idx_labels(labels), images, labels


class TestIdx:
    def test_parse_shapes(self):
        img_blob, lbl_blob, images, labels = _fixture_idx()
        np.testing.assert_array_equal(parse_idx_images(img_blob), images)
        np.testing.assert_array_equal(parse_idx_labels(lbl_blob), labels)

    def test_round_trip_bit_exact(self):
        img_blob, lbl_blob, _, _ = _fixture_idx()
        assert write_idx_images(parse_idx_images(img_blob)) == img_blob
        assert write_idx_labels(parse_idx_labels(lbl_blob)) == lbl_blob

    def test_bad_magic_names_offset(self):
        blob = b"\x00\x00\x09\x99" + b"\x00" * 16
        with pytest.raises(FormatError, match="offset 0"):
            parse_idx_images(blob)
        with pytest.raises(FormatError, match="offset 0"):
            parse_idx_labels(blob)

    def test_truncated_payload(self):
        img_blob, lbl_blob, _, _ = _fixture_idx()
        with pytest.raises(LengthError, match="payload ends at offset 3515, header promises offset 3516"):
            parse_idx_images(img_blob[:-1])
        with pytest.raises(LengthError, match="header ends at offset 6, short of offset 8"):
            parse_idx_labels(lbl_blob[:6])

    @pytest.mark.parametrize(
        "parse,offset,name",
        [(parse_idx_images, 4, "count"), (parse_idx_images, 8, "rows"), (parse_idx_images, 12, "cols"),
         (parse_idx_labels, 4, "count")],
    )
    def test_zero_size_names_offset(self, parse, offset, name):
        blob = bytearray(_fixture_idx(n=10)[0 if parse is parse_idx_images else 1])
        blob[offset : offset + 4] = bytes(4)
        with pytest.raises(FormatError, match=f"{name} is 0 at offset {offset}"):
            parse(bytes(blob))

    def test_trailing_bytes_name_offset(self):
        img_blob, lbl_blob, _, _ = _fixture_idx(n=10, rows=2, cols=3)
        with pytest.raises(FormatError, match="2 trailing bytes at offset 76"):
            parse_idx_images(img_blob + b"\0\0")
        with pytest.raises(FormatError, match="1 trailing bytes at offset 18"):
            parse_idx_labels(lbl_blob + b"\0")

    def test_count_mismatch(self):
        images = parse_idx_images(_fixture_idx(n=100)[0])
        labels = parse_idx_labels(_fixture_idx(n=99, seed=1)[1])
        with pytest.raises(ConsistencyError, match="img holds 100 images but lbl holds 99 labels"):
            idx_dataset(images, labels, "img", "lbl")

    def test_load_scales_to_unit_interval(self):
        img_blob, lbl_blob, images, labels = _fixture_idx()
        ds = idx_dataset(parse_idx_images(img_blob), parse_idx_labels(lbl_blob), "img", "lbl")
        assert ds.kind == "static"
        assert ds.inputs.shape == (100, 35)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))


class TestNormalize:
    def test_identity(self):
        ds = synth_static(10, 4, 2, 1.0, np.random.default_rng(0))
        out = normalize(ds, 0.0, 1.0)
        np.testing.assert_array_equal(out.inputs, ds.inputs)

    def test_constant_images_go_to_zero(self):
        ds = Dataset(inputs=np.full((5, 3), 0.5), labels=np.zeros(5, dtype=np.int64), kind="static", num_classes=1)
        out = normalize(ds, 0.5, 1.0)
        np.testing.assert_array_equal(out.inputs, 0.0)

    def test_corpus_stats_normalize_to_zero_mean_unit_std(self):
        ds = synth_static(500, 6, 3, 2.0, np.random.default_rng(1))
        mean, std = dataset_stats(ds)
        out = normalize(ds, mean, std)
        assert abs(out.inputs.mean()) < 1e-6
        assert out.inputs.std() == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_std_rejected(self):
        ds = synth_static(10, 4, 2, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            normalize(ds, 0.0, 0.0)


class TestSynthStatic:
    def test_determinism(self):
        a = synth_static(50, 8, 4, 2.0, np.random.default_rng(9))
        b = synth_static(50, 8, 4, 2.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_round_robin(self):
        ds = synth_static(10, 4, 3, 2.0, np.random.default_rng(0))
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("dims,classes,mirror", [(8, 4, True), (8, 4, False), (3, 5, True), (784, 10, True)])
    def test_in_place_build_equals_the_literal_formula(self, dims, classes, mirror):
        # the reference adds the noise to a full (n, dims) array of +-class means
        n, margin = 203, 3.0
        ours, ref = np.random.default_rng(21), np.random.default_rng(21)
        got = synth_static(n, dims, classes, margin, ours, mirror=mirror)
        if dims >= classes:
            centers = np.zeros((classes, dims))
            centers[np.arange(classes), np.arange(classes)] = margin
        else:
            dirs = ref.normal(size=(classes, dims))
            centers = margin * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        labels = np.arange(n) % classes
        means = centers[labels]
        if mirror:
            means = np.where(ref.random(n)[:, None] < 0.5, means, -means)
        want = means + ref.standard_normal((n, dims))
        assert got.inputs.tobytes() == want.tobytes()
        assert got.labels.tolist() == labels.tolist()
        assert ours.random() == ref.random()  # both consumed the same stream

    def test_large_margin_linearly_separable(self):
        # nearest-centroid (a linear rule) classifies a wide-margin corpus perfectly
        ds = synth_static(200, 8, 4, 12.0, np.random.default_rng(4))
        centers = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
        pred = np.argmin(((ds.inputs[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
        assert np.all(pred == ds.labels)


class TestSynthEvents:
    def test_zero_rate_all_silent(self):
        ds = synth_event_frames(10, 6, 4, 0.0, np.random.default_rng(5))
        np.testing.assert_array_equal(ds.inputs, 0.0)

    def test_nonzero_fraction_near_rate(self):
        rate = 0.07
        ds = synth_event_frames(500, 40, 6, rate, np.random.default_rng(6))
        measured = np.mean(ds.inputs != 0.0)
        assert abs(measured - rate) / rate < 0.10

    def test_values_are_signed_ternary(self):
        ds = synth_event_frames(20, 10, 5, 0.3, np.random.default_rng(7))
        assert set(np.unique(ds.inputs)) <= {-1.0, 0.0, 1.0}

    def test_determinism(self):
        a = synth_event_frames(20, 10, 5, 0.3, np.random.default_rng(8))
        b = synth_event_frames(20, 10, 5, 0.3, np.random.default_rng(8))
        np.testing.assert_array_equal(a.inputs, b.inputs)

    @staticmethod
    def _float64_frames(n, dims, n_steps, rate, rng, classes, sign_noise=0.1):
        """The float64 formula the int8 generator replaced, kept as its reference."""
        templates = np.where(rng.random((classes, n_steps, dims)) < 0.5, -1.0, 1.0)
        labels = np.arange(n, dtype=np.int64) % classes
        active = rng.random((n, n_steps, dims)) < rate
        flips = np.where(rng.random((n, n_steps, dims)) < sign_noise, -1.0, 1.0)
        return active * templates[labels] * flips

    @pytest.mark.parametrize("n,dims,n_steps,rate,classes", [
        (3, 5, 4, 0.3, 2),  # far below one chunk of draws
        (41, 100, 20, 0.2, 3),  # 82,000 values: one full chunk and a partial one
        (64, 256, 4, 0.05, 10),  # exactly one chunk
        (30, 64, 40, 0.0, 2),  # rate 0, across chunks
        (30, 64, 40, 1.0, 4),  # rate 1, across chunks
    ])
    def test_int8_frames_equal_the_float64_formula(self, n, dims, n_steps, rate, classes):
        ours, ref = np.random.default_rng(12), np.random.default_rng(12)
        ds = synth_event_frames(n, dims, n_steps, rate, ours, classes=classes)
        want = self._float64_frames(n, dims, n_steps, rate, ref, classes)
        assert ds.inputs.dtype == np.int8 and ds.inputs.shape == want.shape
        np.testing.assert_array_equal(ds.inputs.astype(np.float64), want)
        assert ours.random() == ref.random()  # both consumed the same stream

    def test_generation_holds_its_int8_result_and_one_chunk(self):
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            ds = synth_event_frames(256, 784, 4, 0.05, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ds.inputs.nbytes + (1 << 20)

    def test_float_frames_are_rejected(self):
        frames = np.zeros((4, 3, 5))
        with pytest.raises(TypeError, match="int8"):
            Dataset(inputs=frames, labels=np.zeros(4, dtype=np.int64), kind="neuromorphic", num_classes=1)


class TestEncodeBatch:
    def test_static_is_one_shared_input(self):
        # direct encoding: one (1, B, D) input that forward shares across all 3 timesteps
        ds = synth_static(6, 4, 2, 2.0, np.random.default_rng(10))
        seq, labels = encode_batch(ds, np.array([0, 2]), 3)
        assert isinstance(seq, np.ndarray) and seq.shape == (1, 2, 4) and seq.dtype == np.float64
        assert seq[0].tobytes() == ds.inputs[[0, 2]].tobytes()
        np.testing.assert_array_equal(labels, ds.labels[[0, 2]])

    def test_neuromorphic_frames_per_step(self):
        ds = synth_event_frames(6, 4, 3, 0.5, np.random.default_rng(11))
        seq, _ = encode_batch(ds, np.array([1, 3]), 3)
        assert len(seq) == 3
        np.testing.assert_array_equal(seq[1], ds.inputs[[1, 3], 1, :])

    def test_neuromorphic_batch_is_one_contiguous_stack(self):
        ds = synth_event_frames(6, 4, 3, 0.5, np.random.default_rng(11))
        seq, _ = encode_batch(ds, np.array([4, 1, 3]), 3)
        assert isinstance(seq, np.ndarray) and seq.shape == (3, 3, 4) and seq.flags.c_contiguous
        want = np.stack([ds.inputs[[4, 1, 3], t, :] for t in range(3)]).astype(np.float64)
        assert seq.dtype == np.float64 and seq.tobytes() == want.tobytes()


def test_manifest_round_trips_keys(tmp_path):
    path = tmp_path / "corpus.manifest"
    write_manifest(path, {"seed": 7, "dims": 16, "source": "synth_static"})
    text = path.read_text()
    assert "seed=7" in text and "dims=16" in text and "source=synth_static" in text
