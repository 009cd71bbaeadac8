"""Streamed record I/O and row-block prediction against their whole forms.

Data files are written as a stream of encoded chunks and read back one
physical line at a time; ``net.predict`` runs the work after its forward
pass in row blocks.  The whole-text and whole-batch paths they replaced are
kept here as the oracle: readers over an open file must give the objects
(floats compared as ``float.hex``), or the exception type and message, of
the parsers over ``Path.read_text()``; a staged data file must hold the
bytes of ``format_dataset(...).encode()``, a streamed detection file
those of the per-line template; and a prediction must equal the
whole-batch computation bit for bit, dtype and shape included.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from test_codec_equivalence import (
    DATASET_CASES,
    GOOD_DET,
    GOOD_GT,
    RECORD_CASES,
    _dataset_key,
    _dataset_text,
    _records,
    _records_key,
    _same_outcome,
    _special_dataset,
    oracle_parse_detections,
)

from viewbench import records
from viewbench.errors import FormatError
from viewbench.losses import joint_detection_scores, softmax
from viewbench.metrics import Box, Detection
from viewbench.net import (
    PREDICT_BLOCK,
    ClsPrediction,
    JointClsPrediction,
    JointRegPrediction,
    NetConfig,
    RegPrediction,
    _decode_grid,
    forward,
    init_params,
    predict,
)
from viewbench.records import (
    LineStream,
    commit_files,
    format_dataset,
    format_detections,
    format_ground_truths,
    parse_dataset,
    parse_detections,
    parse_ground_truths,
    read_lines,
    write_benchmark,
)
from viewbench.synthetic import Scene, default_class_specs, generate

# ---------------------------------------------------------------- the oracle


def whole_text(parse):
    """``parse`` over the file's whole text, as the readers read it before."""

    def read(path, *args, **kwargs):
        return parse(Path(path).read_text(), *args, path=str(path), **kwargs)

    return read


def by_line(parse):
    def read(path, *args, **kwargs):
        return parse(read_lines(path), *args, path=str(path), **kwargs)

    return read


def oracle_predict(params, cfg, x):
    out = forward(params, cfg, x)
    if cfg.head == "reg":
        return RegPrediction(_decode_grid(out), out)
    if cfg.head == "cls":
        probs = softmax(out.reshape(-1, cfg.n_bins)).reshape(out.shape)
        return ClsPrediction(np.argmax(out, axis=2) + 1, probs)
    if cfg.head == "joint_reg":
        return JointRegPrediction(softmax(out.det), _decode_grid(out.pose), out.pose)
    scores = joint_detection_scores(out)
    return JointClsPrediction(scores, np.argmax(out.obj, axis=2) + 1, cfg.n_bins)


# the per-line template format_detections used before it shared box text
_DET_LINE = "%s %s %.17g %.17g %.17g %.17g %.17g %.12g"


def oracle_format_detections(dets):
    lines = [records.DET_HEADER]
    for d in dets:
        b = d.box
        lines.append(_DET_LINE % (
            d.image_id, d.class_id, b.x_min, b.y_min, b.x_max, b.y_max, d.score,
            math.degrees(d.azimuth),
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- readers

# every separator str.splitlines() splits at
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


def _write(path, text):
    """Write ``text`` with its separators as they are (no newline translation)."""
    path.write_bytes(text.encode())
    return path


def _same_reading(parse, path, key, *args, **kwargs):
    return _same_outcome(by_line(parse), whole_text(parse), key, path, *args, **kwargs)


def _record_texts():
    gts, dets = _records()
    return format_ground_truths(gts), format_detections(dets)


class TestReadLines:
    @pytest.mark.parametrize("text", [
        "", "\n", "\n\n", "a", "a\n", "a\nb", "a\r\nb\r\n", "a\rb\r", "a\r\r\nb", "\r\n\r\n",
        "a\x0c\nb", "a\x0c", "\x85\u2028\u2029", "a\r\x0bb\x1c\x1d\x1ec\n", "café\u2028x",
        "trailing space \n  \t\n",
    ])
    def test_lines_of_read_text(self, tmp_path, text):
        path = _write(tmp_path / "t.txt", text)
        assert list(read_lines(path)) == path.read_text().splitlines()

    def test_long_file_across_buffers(self, tmp_path):
        """CRLF, CR and other separators falling at every offset of the
        reader's buffers."""
        rng = np.random.default_rng(5)
        parts = []
        for i in range(6000):
            parts.append("x" * int(rng.integers(0, 40)))
            parts.append(SEPARATORS[i % len(SEPARATORS)])
        path = _write(tmp_path / "long.txt", "".join(parts))
        assert list(read_lines(path)) == path.read_text().splitlines()


class TestRecordReaders:
    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_separators(self, tmp_path, sep):
        for name, text, parse in (
            ("gt", _record_texts()[0], parse_ground_truths),
            ("det", _record_texts()[1], parse_detections),
        ):
            path = _write(tmp_path / f"{name}.txt", text.replace("\n", sep))
            got = _same_reading(parse, path, _records_key)
            assert got[0] == "ok" and len(got[1]) > 100

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_crlf_and_final_newline(self, tmp_path, final_newline):
        for name, text, parse in (
            ("gt", _record_texts()[0], parse_ground_truths),
            ("det", _record_texts()[1], parse_detections),
        ):
            text = text.replace("\n", "\r\n")
            if not final_newline:
                text = text[:-2]
            path = _write(tmp_path / f"{name}.txt", text)
            assert _same_reading(parse, path, _records_key)[0] == "ok"

    @pytest.mark.parametrize("parse", [parse_ground_truths, parse_detections])
    def test_empty_file(self, tmp_path, parse):
        path = _write(tmp_path / "empty.txt", "")
        got = _same_reading(parse, path, _records_key)
        assert got[0] == "ok" and _records_key(got[1]) == []

    @pytest.mark.parametrize("sep", ["\n", "\u2028"])
    @pytest.mark.parametrize("kind, name, tok", RECORD_CASES,
                             ids=[f"{k}-{n}" for k, n, _ in RECORD_CASES])
    def test_malformed_line(self, tmp_path, sep, kind, name, tok):
        parse, good = {
            "gt": (parse_ground_truths, GOOD_GT),
            "det": (parse_detections, GOOD_DET),
        }[kind]
        text = sep.join(["# header", " ".join(good), "", " ".join(tok), " ".join(good)]) + sep
        path = _write(tmp_path / "bad.txt", text)
        got = _same_reading(parse, path, _records_key)
        assert got[0] == "raised"


class TestDatasetReader:
    @pytest.mark.parametrize("sep", SEPARATORS)
    @pytest.mark.parametrize("inline", [True, False])
    def test_separators(self, tmp_path, sep, inline):
        ds = _special_dataset()
        features = None if inline else ds.features()
        path = _write(tmp_path / "d.txt", format_dataset(ds, inline).replace("\n", sep))
        got = _same_reading(parse_dataset, path, _dataset_key, ds.class_specs, "test", 4,
                            features=features)
        assert got[0] == "ok" and _dataset_key(got[1]) == _dataset_key(ds)

    def test_no_final_newline_and_empty(self, tmp_path):
        ds = _special_dataset()
        path = _write(tmp_path / "d.txt", format_dataset(ds).replace("\n", "\r\n")[:-2])
        assert _same_reading(parse_dataset, path, _dataset_key, ds.class_specs, "test", 4)[0] == "ok"
        path = _write(tmp_path / "e.txt", "")
        got = _same_reading(parse_dataset, path, _dataset_key, ds.class_specs, "test", 4)
        assert got[0] == "ok" and got[1].scenes == ()
        assert got[1].n_samples == 0

    @pytest.mark.parametrize("sep", ["\n", "\x1e"])
    @pytest.mark.parametrize("kind, name, tok", DATASET_CASES,
                             ids=[f"{k}-{n}" for k, n, _ in DATASET_CASES])
    def test_malformed_line(self, tmp_path, sep, kind, name, tok):
        ds, specs = _dataset_text()
        lines = format_dataset(ds).splitlines()
        lines[2 if kind == "gt" else 3] = " ".join(tok)
        path = _write(tmp_path / "d.txt", sep.join(lines) + sep)
        got = _same_reading(parse_dataset, path, _dataset_key, specs, "train", 0)
        assert got[0] == "raised"

    @pytest.mark.parametrize("features", ["none", "short", "long"])
    def test_sidecar_structure(self, tmp_path, features):
        ds, specs = _dataset_text()
        sidecar = {"none": None, "short": ds.features()[:1],
                   "long": np.concatenate([ds.features(), ds.features()])}[features]
        path = _write(tmp_path / "d.txt", format_dataset(ds, inline_features=False))
        got = _same_reading(parse_dataset, path, _dataset_key, specs, "train", 0,
                            features=sidecar)
        assert got[0] == "raised"

    def test_read_benchmark_reads_by_line(self, tmp_path, monkeypatch):
        ds = generate(2, 6, default_class_specs(feature_dim=4))
        manifest = write_benchmark(tmp_path, ds, ds)
        read = []
        monkeypatch.setattr(records, "read_lines",
                            lambda path: read.append(path) or read_lines(path))
        train, _, _ = records.read_benchmark(manifest, split="train")
        assert read == [tmp_path / "train_data.txt"]
        assert _dataset_key(train)[0] == _dataset_key(ds)[0]


class TestUndecodable:
    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0c"])
    def test_names_the_line_deep_in_the_file(self, tmp_path, sep):
        """A bad byte far past the reader's first buffer is reported at its
        line, after the lines before it were read."""
        good = " ".join(GOOD_GT)
        data = (sep.join([good] * 3000) + sep).encode()
        at = data.index(b"img0", len(data) // 2)
        data = data[:at] + b"\xff" + data[at:]
        line = len((data[:at].decode() + ".").splitlines())
        path = tmp_path / "gt.txt"
        path.write_bytes(data)
        with pytest.raises(records.FormatError, match=rf"gt.txt:{line}: not utf-8 text"):
            parse_ground_truths(read_lines(path), path=str(path))
        with pytest.raises(records.FormatError, match=rf"gt.txt:{line}: not utf-8 text"):
            records.read_text(path)
        assert line > 1500


# ---------------------------------------------------------------- writers


def _unicode_dataset():
    """Scene ids with multi-byte UTF-8 characters, encoded chunk by chunk."""
    ds = _special_dataset()
    scenes = tuple(Scene(f"café-{i}-☃", s.gts) for i, s in enumerate(ds.scenes))
    return dataclasses.replace(ds, scenes=scenes)


class TestStreamedWriter:
    @pytest.mark.parametrize("chunk", [1, 97, 4096, records._CHUNK_CHARS])
    @pytest.mark.parametrize("inline", [True, False])
    def test_line_stream_bytes(self, tmp_path, monkeypatch, chunk, inline):
        monkeypatch.setattr(records, "_CHUNK_CHARS", chunk)
        for ds in (_special_dataset(), _unicode_dataset()):
            text = format_dataset(ds, inline)
            stream = LineStream(text.splitlines())
            assert len(stream) == 0
            commit_files({tmp_path / "d.txt": stream})
            assert (tmp_path / "d.txt").read_bytes() == text.encode()
            assert len(stream) == len(text.encode())

    @pytest.mark.parametrize("chunk", [1, 4096, records._CHUNK_CHARS])
    @pytest.mark.parametrize("binary", [False, True])
    def test_write_benchmark_bytes(self, tmp_path, monkeypatch, chunk, binary):
        monkeypatch.setattr(records, "_CHUNK_CHARS", chunk)
        specs = default_class_specs(feature_dim=6)
        train, test = generate(3, 40, specs, split="train"), generate(4, 0, specs, split="test")
        write_benchmark(tmp_path, train, test, features_binary=binary)
        for name, ds in (("train", train), ("test", test)):
            data = (tmp_path / f"{name}_data.txt").read_bytes()
            assert data == format_dataset(ds, inline_features=not binary).encode()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("binary", [False, True])
    def test_callables_write_the_bytes_of_datasets(self, tmp_path, binary):
        """Splits made while they are staged give the files, manifest
        included, of the same splits made beforehand."""
        specs = default_class_specs(feature_dim=6)

        def train():
            return generate(3, 30, specs, split="train")

        def test():
            return generate(4, 9, specs, split="test")

        echo = {"seed": 3}
        write_benchmark(tmp_path / "made", train, test, echo, features_binary=binary)
        write_benchmark(tmp_path / "given", train(), test(), echo, features_binary=binary)
        names = sorted(p.name for p in (tmp_path / "given").iterdir())
        assert len(names) == (7 if binary else 5)
        assert sorted(p.name for p in (tmp_path / "made").iterdir()) == names
        for name in names:
            made, given = tmp_path / "made" / name, tmp_path / "given" / name
            assert made.read_bytes() == given.read_bytes(), name
        manifest = records.benchmark_manifest(train(), test(), binary, echo)
        assert json.loads((tmp_path / "made" / "manifest.json").read_text()) == manifest

    def test_failed_stream_leaves_nothing(self, tmp_path):
        def lines():
            yield "first"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            commit_files({tmp_path / "a.txt": b"a\n", tmp_path / "b.txt": LineStream(lines())})
        assert list(tmp_path.iterdir()) == []


class TestSharedBoxes:
    def _dets(self):
        box = Box(0.1, 0.2, 0.30000000000000004, 0.4)
        twin = Box(0.1, 0.2, 0.30000000000000004, 0.4)
        other = Box(1 / 3, 0.0, 2 / 3, 5e-324 + 1)
        return [
            Detection("a", 1, box, 0.5, 1.0),
            Detection("a", 2, box, 1 / 3, 0.0),
            Detection("a", 3, box, 0.1 + 0.2, 6.2),
            Detection("a", 1, twin, 0.25, 2.0),
            Detection("b", 2, twin, 0.75, 3.0),
            Detection("b", 1, other, 1.0, 4.0),
            Detection("b", 2, box, 0.0, 5.0),
        ]

    def test_shared_and_distinct_boxes(self):
        dets = self._dets()
        assert format_detections(dets) == oracle_format_detections(dets)

    def test_single_detection(self):
        dets = self._dets()[:1]
        assert format_detections(dets) == oracle_format_detections(dets)
        assert format_detections([]) == oracle_format_detections([])

    def test_records(self):
        _, dets = _records()
        assert format_detections(dets) == oracle_format_detections(dets)

    @pytest.mark.parametrize("which", ["shared", "single", "empty", "records"])
    def test_written_file_is_the_formatted_text(self, which, tmp_path):
        dets = {
            "shared": self._dets(), "single": self._dets()[:1], "empty": [],
            "records": _records()[1],
        }[which]
        records.write_detections(tmp_path / "dets.txt", dets)
        assert (tmp_path / "dets.txt").read_bytes() == oracle_format_detections(dets).encode()

    def test_equal_box_tokens_share_one_box(self):
        dets = self._dets()
        got = parse_detections(format_detections(dets))
        assert _records_key(got) == _records_key(oracle_parse_detections(format_detections(dets)))
        # box and twin print the same tokens: one box row for the first five lines
        assert got.box_rows.tolist() == [0, 0, 0, 0, 0, 1, 2]
        assert got.boxes[2].tolist() == got.boxes[0].tolist()

    def test_other_box_text_is_parsed_on_its_own(self):
        text = (
            "a 1 0.1 0.2 0.3 0.4 0.5 10\n"
            "a 2 0.10 0.2 0.3 0.4 0.25 20\n"
            "a 3 0.10 0.2 0.3 0.4 0.125 30\n"
            "a 4 0.1 0.2 0.3 0.4 0.0625 40\n"
        )
        got = parse_detections(text)
        assert _records_key(got) == _records_key(oracle_parse_detections(text))
        assert got.box_rows.tolist() == [0, 1, 1, 2]
        assert got.boxes[1].tolist() == got.boxes[0].tolist() == got.boxes[2].tolist()

    @pytest.mark.parametrize("rest, message", [
        ("x 10", "not a number: 'x'"), ("0.5 inf", "non-finite value 'inf'"),
        ("0.5", "expected 8 fields, got 7"),
    ])
    def test_bad_line_after_equal_box_tokens_is_read_checked(self, rest, message):
        text = "a 1 0.1 0.2 0.3 0.4 0.5 10\na 2 0.1 0.2 0.3 0.4 " + rest + "\n"
        with pytest.raises(FormatError, match=f"^d.txt:2: {message}$"):
            parse_detections(text, path="d.txt")


# ---------------------------------------------------------------- predict

BATCHES = [0, 1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 2 * PREDICT_BLOCK + 3]


@pytest.mark.parametrize("head", ["reg", "cls", "joint_reg", "joint_cls"])
def test_row_block_predict(head):
    cfg = NetConfig(input_dim=8, trunk_widths=(16,), head=head, n_classes=3, n_bins=24,
                    n_dims=3, seed=2)
    params = init_params(cfg)
    rng = np.random.default_rng(9)
    x_all = rng.standard_normal((max(BATCHES), 8)) * 4.0
    x_all[::7] *= 60.0  # rows with logits far apart
    for b in BATCHES:
        x = x_all[:b]
        got, want = predict(params, cfg, x), oracle_predict(params, cfg, x)
        assert type(got) is type(want)
        for field in type(want).__dataclass_fields__:
            g, w = getattr(got, field), getattr(want, field)
            if not isinstance(w, np.ndarray):
                assert g == w, (b, field)
                continue
            assert (g.dtype, g.shape) == (w.dtype, w.shape), (b, field)
            assert g.tobytes() == w.tobytes(), (b, field)
