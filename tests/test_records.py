"""Serialization round trips and format validation.

Dataset files and checkpoints must round-trip bit for bit (17-digit
decimals and hex floats both reproduce float64 exactly).  Record files
carry angles as 12-digit degrees, so those round-trip within 1e-9 radians
rather than exactly.  Parse errors must name the file and line.
"""

import json
import math
import os
import stat
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from test_codec_equivalence import (
    OracleDataset,
    OracleProposal,
    OracleScene,
    _dataset_key,
    _records_key,
    _same_outcome,
    dataset_records,
    detection_rows,
)

from viewbench import records
from viewbench.angles import circular_difference
from viewbench.errors import FormatError, GenerationError, InvalidParameter
from viewbench.metrics import Box, Detection, Detections, GroundTruth
from viewbench.net import NetConfig, TrainConfig, init_params
from viewbench.records import (
    _CLASS_ID,
    _GT_COLUMNS,
    _checked_box,
    _data_lines,
    _diagnose,
    _finite,
    _int_check,
    _parse_float,
    _parse_int,
    _read_box_line,
    atomic_write_text,
    commit_files,
    format_dataset,
    format_detections,
    format_eval_report,
    format_ground_truths,
    format_train_log,
    format_checkpoint,
    load_checkpoint,
    parse_checkpoint,
    parse_dataset,
    parse_detections,
    parse_ground_truths,
    read_benchmark,
    read_lines,
    save_checkpoint,
    write_benchmark,
)
from viewbench.synthetic import ClassSpec, default_class_specs, generate, oracle_eval


def _specs():
    return (
        ClassSpec(class_id=1, seed=0, feature_dim=6),
        ClassSpec(class_id=2, seed=0, feature_dim=6, symmetry_order=2),
    )


def _assert_datasets_equal(a, b):
    a, b = dataset_records(a), dataset_records(b)
    assert len(a.scenes) == len(b.scenes)
    for sa, sb in zip(a.scenes, b.scenes):
        assert sa.image_id == sb.image_id
        assert sa.gts == sb.gts
        assert len(sa.proposals) == len(sb.proposals)
        for pa, pb in zip(sa.proposals, sb.proposals):
            assert pa.box == pb.box
            assert pa.matched_gt == pb.matched_gt
            assert pa.iou == pb.iou
            assert pa.noise_seed == pb.noise_seed
            np.testing.assert_array_equal(pa.feature, pb.feature)


class TestRecordFiles:
    GTS = [
        GroundTruth("img0", 1, Box(0.1, 0.2, 0.55, 0.9), 1.234567),
        GroundTruth("img1", 2, Box(0.0, 0.0, 0.3, 0.4), 6.28),
    ]
    DETS = [
        Detection("img0", 1, Box(0.12, 0.18, 0.5, 0.88), 0.93, 1.25),
        Detection("img1", 2, Box(0.01, 0.02, 0.31, 0.41), -0.4, 0.0),
    ]

    def test_ground_truth_round_trip(self):
        back = parse_ground_truths(format_ground_truths(self.GTS))
        assert len(back) == 2
        for orig, got in zip(self.GTS, back):
            assert got.image_id == orig.image_id
            assert got.class_id == orig.class_id
            assert got.box == orig.box  # 17 significant digits, exact
            assert circular_difference(got.azimuth, orig.azimuth) < 1e-9

    def test_detection_round_trip(self):
        back = parse_detections(format_detections(self.DETS))
        assert len(back) == 2
        for orig, got in zip(self.DETS, detection_rows(back)):
            assert got.box == orig.box
            assert got.score == orig.score
            assert circular_difference(got.azimuth, orig.azimuth) < 1e-9

    def test_angles_stored_in_degrees(self):
        line = format_ground_truths([self.GTS[0]]).splitlines()[1]
        deg = float(line.split()[-1])
        assert deg == pytest.approx(math.degrees(1.234567), abs=1e-9)

    def test_comments_and_blanks_skipped(self):
        text = format_detections(self.DETS) + "\n# trailing comment\n\n"
        assert len(parse_detections(text)) == 2

    def test_malformed_line_reports_position(self):
        text = format_detections(self.DETS) + "img2 1 0 0 1 1 notanumber 10\n"
        with pytest.raises(FormatError, match=r"dets\.txt:4"):
            parse_detections(text, path="dets.txt")

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="expected 7 fields"):
            parse_ground_truths("img0 1 0 0 1 1\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(FormatError, match="non-finite"):
            parse_detections("img0 1 0 0 1 1 inf 10\n")

    @pytest.mark.parametrize("class_id", ["0", "-3"])
    @pytest.mark.parametrize("kind", ["gt", "det"])
    def test_class_id_below_1_rejected(self, kind, class_id):
        fmt, parse = {
            "gt": (format_ground_truths, parse_ground_truths),
            "det": (format_detections, parse_detections),
        }[kind]
        lines = fmt(self.GTS if kind == "gt" else self.DETS).splitlines()
        tok = lines[2].split()
        lines[2] = " ".join([tok[0], class_id, *tok[2:]])
        with pytest.raises(FormatError, match=f"^f.txt:3: class id must be >= 1, got {class_id}$"):
            parse("\n".join(lines) + "\n", path="f.txt")


class TestDatasetFiles:
    def test_inline_round_trip(self):
        ds = generate(5, 6, _specs())
        back = parse_dataset(format_dataset(ds), _specs(), ds.split, ds.seed)
        _assert_datasets_equal(ds, back)

    def test_sidecar_round_trip(self):
        ds = generate(5, 6, _specs())
        text = format_dataset(ds, inline_features=False)
        back = parse_dataset(text, _specs(), ds.split, ds.seed, features=ds.features())
        _assert_datasets_equal(ds, back)

    def test_sidecar_required_when_not_inline(self):
        ds = generate(5, 2, _specs())
        text = format_dataset(ds, inline_features=False)
        with pytest.raises(FormatError, match="no inline features"):
            parse_dataset(text, _specs(), ds.split, ds.seed)

    def test_unknown_line_type(self):
        with pytest.raises(FormatError, match=r":1.*'boxes'"):
            parse_dataset("boxes 3\n", _specs(), "train", 0)

    def test_prop_before_scene(self):
        with pytest.raises(FormatError, match="before any scene"):
            parse_dataset("prop 0 1.0 5 0 0 1 1\n", _specs(), "train", 0)

    @staticmethod
    def _lines(ds, inline=True):
        return format_dataset(ds, inline_features=inline).splitlines()

    @pytest.mark.parametrize("delta", [(1, 0), (0, -1)], ids=["gt", "prop"])
    def test_scene_counts_checked(self, delta):
        ds = generate(5, 3, _specs())
        lines = self._lines(ds)
        i = [k for k, l in enumerate(lines) if l.startswith("scene ")][1]
        tok = lines[i].split()
        lines[i] = f"scene {tok[1]} {int(tok[2]) + delta[0]} {int(tok[3]) + delta[1]}"
        with pytest.raises(FormatError, match=rf"^data.txt:{i + 1}: scene {tok[1]} declares"):
            parse_dataset("\n".join(lines), _specs(), "train", 0, path="data.txt")

    @pytest.mark.parametrize("matched", [-2, 3])
    def test_matched_gt_checked(self, matched):
        ds = generate(5, 1, _specs())
        lines = self._lines(ds)
        n_gt = int(lines[1].split()[2])
        i = next(k for k, l in enumerate(lines) if l.startswith("prop "))
        tok = lines[i].split()
        tok[1] = str(matched if matched < 0 else n_gt + matched)
        lines[i] = " ".join(tok)
        with pytest.raises(FormatError, match=rf"^data.txt:{i + 1}: matched_gt"):
            parse_dataset("\n".join(lines), _specs(), "train", 0, path="data.txt")

    @pytest.mark.parametrize("class_id", [0, 3, -1])
    def test_gt_class_needs_a_spec(self, class_id):
        lines = self._lines(generate(5, 2, _specs()))
        i = next(k for k, l in enumerate(lines) if l.startswith("gt "))
        tok = lines[i].split()
        lines[i] = " ".join(["gt", str(class_id), *tok[2:]])
        with pytest.raises(
            FormatError, match=rf"^data.txt:{i + 1}: class id {class_id} has no class spec"
        ):
            parse_dataset("\n".join(lines), _specs(), "train", 0, path="data.txt")

    def test_repeated_scene_id(self):
        lines = self._lines(generate(5, 3, _specs()))
        first, second = [k for k, l in enumerate(lines) if l.startswith("scene ")][:2]
        scene_id = lines[first].split()[1]
        tok = lines[second].split()
        lines[second] = " ".join(["scene", scene_id, *tok[2:]])
        with pytest.raises(
            FormatError,
            match=rf"^data.txt:{second + 1}: scene {scene_id} repeats the scene id of line "
                  rf"{first + 1}$",
        ):
            parse_dataset("\n".join(lines), _specs(), "train", 0, path="data.txt")

    def test_sidecar_width_checked(self):
        ds = generate(5, 2, _specs())
        lines = self._lines(ds, inline=False)
        first_prop = next(k for k, l in enumerate(lines) if l.startswith("prop "))
        with pytest.raises(FormatError, match=rf"^data.txt:{first_prop + 1}: sidecar rows must"):
            parse_dataset("\n".join(lines), _specs(), "train", 0, path="data.txt",
                          features=ds.features()[:, :-1])

    def test_extra_sidecar_rows(self):
        ds = generate(5, 2, _specs())
        feats = ds.features()
        text = format_dataset(ds, inline_features=False)
        n_lines = len(text.splitlines())
        with pytest.raises(FormatError, match=rf"^data.txt:{n_lines}: the prop lines read"):
            parse_dataset(text, _specs(), "train", 0, path="data.txt",
                          features=np.concatenate([feats, feats[:1]]))


class TestBenchmarkFiles:
    def test_round_trip(self, tmp_path):
        train = generate(1, 5, _specs(), split="train")
        test = generate(2, 3, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test, config_echo={"note": "x"})
        train2, test2, manifest = read_benchmark(manifest_path)
        _assert_datasets_equal(train, train2)
        _assert_datasets_equal(test, test2)
        assert manifest["config"] == {"note": "x"}
        assert train2.seed == train.seed

    def test_round_trip_binary_features(self, tmp_path):
        train = generate(1, 5, _specs(), split="train")
        test = generate(2, 3, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test, features_binary=True)
        train2, test2, _ = read_benchmark(manifest_path)
        _assert_datasets_equal(train, train2)
        _assert_datasets_equal(test, test2)
        assert (tmp_path / "train_features.npy").exists()

    def test_gt_file_replays_clean(self, tmp_path):
        train = generate(1, 5, _specs(), split="train")
        test = generate(2, 3, _specs(), split="test")
        write_benchmark(tmp_path, train, test)
        gts = parse_ground_truths((tmp_path / "test_gt.txt").read_text())
        assert len(gts) == len(test.ground_truths())

    def test_manifest_count_mismatch(self, tmp_path):
        train = generate(1, 3, _specs(), split="train")
        test = generate(2, 2, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test)
        doc = json.loads(manifest_path.read_text())
        doc["splits"]["train"]["n_proposals"] += 1
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="counts disagree"):
            read_benchmark(manifest_path)

    def test_not_a_manifest(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError, match="not a benchmark manifest"):
            read_benchmark(p)

    def test_one_split(self, tmp_path):
        train = generate(1, 5, _specs(), split="train")
        test = generate(2, 3, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test, features_binary=True)
        # the split not asked for is never opened
        (tmp_path / "test_data.txt").unlink()
        (tmp_path / "test_features.npy").unlink()
        train2, none, manifest = read_benchmark(manifest_path, split="train")
        _assert_datasets_equal(train, train2)
        assert none is None and manifest["splits"]["test"]["n_scenes"] == 3
        with pytest.raises(FileNotFoundError):
            read_benchmark(manifest_path, split="test")

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_one_split_counts_checked(self, tmp_path, split):
        train = generate(1, 3, _specs(), split="train")
        test = generate(2, 2, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test)
        doc = json.loads(manifest_path.read_text())
        doc["splits"][split]["n_scenes"] += 1
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"{split}_data.txt: counts disagree"):
            read_benchmark(manifest_path, split=split)
        other = "test" if split == "train" else "train"
        read_benchmark(manifest_path, split=other)

    @pytest.mark.parametrize(
        "path, message",
        [
            (("class_specs",), "manifest needs 'class_specs' as a list"),
            (("splits",), "manifest needs 'splits' as a mapping"),
            (("splits", "train"), "manifest needs 'train' as a mapping"),
            (("splits", "train", "data"), "split 'train': manifest needs 'data' as a string"),
            (("splits", "train", "seed"), "split 'train': manifest needs 'seed' as an integer"),
            (("splits", "train", "n_proposals"), "manifest needs 'n_proposals' as an integer"),
            (("splits", "train", "n_scenes"), "manifest needs 'n_scenes' as an integer"),
            (("splits", "train", "n_gt"), "manifest needs 'n_gt' as an integer"),
            (("feature_dim",), "manifest needs 'feature_dim' as an integer"),
        ],
    )
    def test_manifest_keys_required(self, tmp_path, path, message):
        train = generate(1, 2, _specs(), split="train")
        manifest_path = write_benchmark(tmp_path, train, generate(2, 1, _specs(), split="test"))
        doc = json.loads(manifest_path.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            read_benchmark(manifest_path, split="train")

    @pytest.mark.parametrize("key", ["n_scenes", "n_gt", "n_proposals"])
    def test_each_count_checked(self, tmp_path, key):
        train = generate(1, 3, _specs(), split="train")
        test = generate(2, 2, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test)
        doc = json.loads(manifest_path.read_text())
        n = doc["splits"]["test"][key]
        doc["splits"]["test"][key] = n - 1
        manifest_path.write_text(json.dumps(doc))
        message = f"test_data.txt: counts disagree with the manifest: {key} is {n - 1} in the "
        with pytest.raises(FormatError, match=f"{message}manifest, {n} in the file$"):
            read_benchmark(manifest_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["class_specs"][1].update(feature_dim=7),
             "class specs disagree on feature_dim, got [6, 7]"),
            (lambda doc: doc.update(feature_dim=7),
             "feature_dim 7 disagrees with the class specs' 6"),
        ],
        ids=["specs", "top-level"],
    )
    def test_feature_dims_must_agree(self, tmp_path, edit, message):
        train = generate(1, 2, _specs(), split="train")
        test = generate(2, 1, _specs(), split="test")
        manifest_path = write_benchmark(tmp_path, train, test)
        doc = json.loads(manifest_path.read_text())
        edit(doc)
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as e:
            read_benchmark(manifest_path, split="train")
        assert str(e.value) == f"{manifest_path}: {message}"

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failure_making_the_test_split_leaves_nothing(self, tmp_path, existed, binary):
        """A split given as a callable is made while the files are staged; if
        the second fails, the first split's staged files go and no file of
        the set lands."""
        out = tmp_path / "bench" / "v1"
        if existed:
            out.mkdir(parents=True)
            (out / "train_data.txt").write_text("an older file\n")
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        with pytest.raises(GenerationError, match="no background box"):
            write_benchmark(
                out,
                lambda: generate(1, 3, _specs(), split="train"),
                lambda: generate(2, 1, _specs(), split="test", gt_size_range=(0.9, 0.95),
                                 backgrounds_per_scene=2),
                features_binary=binary,
            )
        after = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        assert after == before

    @pytest.mark.parametrize("ids", [[2, 1, 3], [1, 3], [2], [1, 1], [1, 2, 2]])
    def test_class_ids_must_be_1_to_n(self, tmp_path, ids):
        specs = [ClassSpec(class_id=i + 1, seed=0, feature_dim=6) for i in range(len(ids))]
        manifest_path = write_benchmark(
            tmp_path, generate(1, 2, specs, split="train"), generate(2, 1, specs, split="test")
        )
        doc = json.loads(manifest_path.read_text())
        for spec, class_id in zip(doc["class_specs"], ids):
            spec["class_id"] = class_id
        manifest_path.write_text(json.dumps(doc))
        if sorted(ids) == list(range(1, len(ids) + 1)):
            read_benchmark(manifest_path)  # any order of 1..n
        else:
            with pytest.raises(FormatError, match=rf"class_specs ids must be 1\.\.{len(ids)}"):
                read_benchmark(manifest_path)

    def test_manifest_not_a_mapping(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("[1, 2]")
        with pytest.raises(FormatError, match="not a benchmark manifest"):
            read_benchmark(p)

    def test_unknown_split(self, tmp_path):
        with pytest.raises(InvalidParameter, match="'val'"):
            read_benchmark(tmp_path / "manifest.json", split="val")


class TestCheckpoints:
    CFG = NetConfig(input_dim=3, trunk_widths=(4,), head="cls", n_classes=2, n_bins=5, seed=9)

    def test_bit_exact_round_trip(self, tmp_path):
        params = init_params(self.CFG)
        # give momentum buffers nonzero content too
        for layer in params.layers.values():
            layer.vw = layer.w * 0.3
            layer.vb = layer.b + 0.1
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, self.CFG, iteration=123, extra={"tag": "t"})
        ck = load_checkpoint(path)
        assert ck.net == self.CFG
        assert ck.header["iteration"] == 123
        assert ck.header["tag"] == "t"
        assert list(ck.params.layers) == list(params.layers)
        for name in params.layers:
            for attr in ("w", "b", "vw", "vb"):
                np.testing.assert_array_equal(
                    getattr(ck.params.layers[name], attr),
                    getattr(params.layers[name], attr),
                )

    def test_save_load_save_gives_identical_vectors(self, tmp_path):
        cfg = NetConfig(input_dim=3, trunk_widths=(4, 3), head="joint_reg", n_classes=2,
                        n_dims=2, split_depth=1, seed=9)
        params = init_params(cfg)
        params.values[:] = np.random.default_rng(0).normal(size=params.values.size)
        params.velocity[:] = np.random.default_rng(1).normal(size=params.velocity.size)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, params, cfg, iteration=7)
        loaded = load_checkpoint(first).params
        save_checkpoint(second, loaded, cfg, iteration=7)
        assert first.read_bytes() == second.read_bytes()
        for vec in ("values", "velocity"):
            got, want = getattr(loaded, vec), getattr(params, vec)
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, want)
        assert loaded.n_weights == params.n_weights
        for layer in loaded.layers.values():
            assert np.shares_memory(layer.w, loaded.values)
            assert np.shares_memory(layer.vb, loaded.velocity)

    def test_missing_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_text("not a checkpoint\n")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(p)

    def test_corrupt_hex(self, tmp_path):
        params = init_params(self.CFG)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, self.CFG, iteration=0)
        text = path.read_text().replace("0x1.", "0xg.", 1)
        path.write_text(text)
        with pytest.raises(FormatError, match="hex"):
            load_checkpoint(path)

    def test_truncated_values(self, tmp_path):
        params = init_params(self.CFG)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, self.CFG, iteration=0)
        lines = path.read_text().splitlines()
        w_line = next(i for i, l in enumerate(lines) if l.startswith("w "))
        lines[w_line] = " ".join(lines[w_line].split()[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected .* values"):
            load_checkpoint(path)


    def _text(self, cfg=CFG):
        return format_checkpoint(init_params(cfg), {"net": asdict(cfg), "iteration": 0})

    def test_renamed_layer(self):
        text = self._text().replace("layer head ", "layer heed ")
        line = text.splitlines().index("layer heed 4 10") + 1
        with pytest.raises(FormatError, match=rf"^c:{line}: layer heed 4 10 does not match"):
            parse_checkpoint(text, path="c")

    def test_header_widths_disagree(self):
        text = self._text().replace('"trunk_widths": [4]', '"trunk_widths": [5]')
        with pytest.raises(FormatError, match="layer trunk0 3 4 does not match .* trunk0 3 5"):
            parse_checkpoint(text, path="c")

    def test_layer_missing_or_extra(self):
        lines = self._text().splitlines()
        with pytest.raises(FormatError, match="has 2 layers, the file 1"):
            parse_checkpoint("\n".join(lines[:7]), path="c")
        with pytest.raises(FormatError, match="has 2 layers, the file 3"):
            parse_checkpoint("\n".join(lines + lines[7:]), path="c")

    def test_layer_order(self):
        cfg = NetConfig(input_dim=4, trunk_widths=(4,), head="cls", n_classes=2, n_bins=2)
        lines = self._text(cfg).splitlines()
        swapped = lines[:2] + lines[7:] + lines[2:7]
        with pytest.raises(FormatError, match="layer head 4 4 does not match .* trunk0 4 4"):
            parse_checkpoint("\n".join(swapped), path="c")

    @pytest.mark.parametrize("header", [
        '{"iteration": 0}', "[1]", '{"net": {"depth": 3}}',
        # net configs that NetConfig rejects by value
        '{"net": {"input_dim": 4, "trunk_widths": [0], "head": "cls", "n_classes": 2}}',
        '{"net": {"input_dim": 4, "trunk_widths": [4], "head": "bogus", "n_classes": 2}}',
    ])
    def test_bad_header_net(self, header):
        lines = self._text().splitlines()
        lines[1] = header
        with pytest.raises(FormatError, match="^c:2: "):
            parse_checkpoint("\n".join(lines), path="c")

    def test_truncated_layer(self):
        lines = self._text().splitlines()
        with pytest.raises(FormatError, match="expected 'vb' line"):
            parse_checkpoint("\n".join(lines[:6]), path="c")


def _contract_text():
    """A small joint_reg checkpoint (three chains, five layers) with
    random parameters and momentum."""
    cfg = NetConfig(input_dim=3, trunk_widths=(4, 3), head="joint_reg", n_classes=2,
                    n_dims=2, split_depth=1, seed=9)
    params = init_params(cfg)
    params.values[:] = np.random.default_rng(0).normal(size=params.values.size)
    params.velocity[:] = np.random.default_rng(1).normal(size=params.velocity.size)
    return format_checkpoint(params, {"net": asdict(cfg), "iteration": 0})


def _contract_cases():
    """``id -> (text, message start)`` per malformed checkpoint: the text
    truncated after every line, and every token of every line kind
    mutated.  The FormatError names ``c:line``, or ``c`` alone where the
    file ends before a layer."""
    lines = _contract_text().splitlines()
    n_layers = sum(line.startswith("layer ") for line in lines)
    joined = lambda ls: "\n".join(ls) + "\n"
    cases = []
    for k in range(len(lines)):
        if k < 2:
            want = "c:1: missing checkpoint magic" if k == 0 else "c:2: bad checkpoint header"
        elif lines[k].startswith("layer "):
            done = sum(line.startswith("layer ") for line in lines[:k])
            want = f"c: the header's net has {n_layers} layers, the file {done}"
        else:
            want = f"c:{k + 1}: expected '{lines[k].split()[0]}' line"
        cases.append((f"truncated-after-{k}", joined(lines[:k]), want))

    def mutated(i, new):
        return joined(lines[:i] + new + lines[i + 1:])

    cases.append(
        ("magic", mutated(0, ["# viewbench checkpoint v2"]), "c:1: missing checkpoint magic")
    )
    header = json.loads(lines[1])
    for name, doc in (
        ("header-json", "{"), ("header-deep", "[" * 100_000), ("header-list", "[1]"),
        ("header-no-net", '{"iteration": 0}'),
        ("net-unknown-key", json.dumps({"net": {**header["net"], "depth": 3}})),
        ("net-head", json.dumps({"net": {**header["net"], "head": "bogus"}})),
        ("net-width-0", json.dumps({"net": {**header["net"], "trunk_widths": [0, 3]}})),
        ("net-input-dim-fraction", json.dumps({"net": {**header["net"], "input_dim": 2.5}})),
        ("net-split-depth", json.dumps({"net": {**header["net"], "split_depth": 5}})),
    ):
        cases.append((name, mutated(1, [doc]), "c:2: "))
    other = json.dumps({"net": {**header["net"], "input_dim": 4}})
    cases.append(("net-other-plan", mutated(1, [other]), "c:3: layer trunk0 3 4 does not match "
                  "the header's net, which has layer trunk0 4 4"))

    for i, line in enumerate(lines):
        tok = line.split()
        at = f"c:{i + 1}: "
        if tok[0] == "layer":
            name, fan_in, fan_out = tok[1:]
            for what, new in (
                ("name", ["layer", name + "x", fan_in, fan_out]),
                ("fan-in-fraction", ["layer", name, "1.5", fan_out]),
                ("fan-out-word", ["layer", name, fan_in, "four"]),
                ("fan-in-negative", ["layer", name, "-" + fan_in, fan_out]),
                ("fan-in-leading-zero", ["layer", name, "0" + fan_in, fan_out]),
                ("fan-out-zero", ["layer", name, fan_in, "0"]),
                ("tag", ["layers", name, fan_in, fan_out]),
                ("extra-token", tok + ["1"]),
                ("missing-token", tok[:3]),
            ):
                bad = " ".join(new)
                want = f"{bad} does not match the header's net, which has {line} here"
                cases.append((f"line-{i + 1}-layer-{what}", mutated(i, [bad]), at + want))
        elif i >= 2:
            tag, values = tok[0], tok[1:]
            n = len(values)
            other_tag = "b" if tag == "w" else "w"
            for what, new, want in (
                ("tag", [other_tag] + values, f"expected '{tag}' line"),
                ("one-too-many", tok + [values[0]], f"expected {n} values, got {n + 1}"),
                ("one-too-few", tok[:-1], f"expected {n} values, got {n - 1}"),
                ("bad-hex", [tag, "0xg.1p+0"] + values[1:], "bad hex float"),
                ("nan", [tag] + values[:-1] + ["nan"], f"non-finite '{tag}' value"),
                ("inf", [tag, "inf"] + values[1:], f"non-finite '{tag}' value"),
                ("minus-inf", [tag] + values[:-1] + ["-inf"], f"non-finite '{tag}' value"),
                ("blank", [], f"expected '{tag}' line"),
            ):
                cases.append((f"line-{i + 1}-{tag}-{what}", mutated(i, [" ".join(new)]), at + want))
    end = f"c:{len(lines) + 1}: "
    cases.append(("trailing-layer", joined(lines + lines[-5:]),
                  end + f"the header's net has {n_layers} layers, the file {n_layers + 1}"))
    cases.append(("trailing-garbage", joined(lines + ["", "junk"]),
                  f"c:{len(lines) + 2}: the header's net has {n_layers} layers, "
                  "then the file has 'junk'"))
    return {name: (text, want) for name, text, want in cases}


CONTRACT_CASES = _contract_cases()


class TestCheckpointContract:
    """Every malformed checkpoint is a FormatError that names the file and
    the line; blank lines between layers and after the last are allowed."""

    @pytest.mark.parametrize("case", list(CONTRACT_CASES))
    def test_malformed(self, case):
        text, want = CONTRACT_CASES[case]
        with pytest.raises(FormatError) as info:
            parse_checkpoint(text, path="c")
        assert str(info.value).startswith(want)

    def test_blank_lines_between_layers(self):
        text = _contract_text()
        lines = text.splitlines()
        spaced = [l for line in lines for l in ([""] if line.startswith("layer ") else []) + [line]]
        got = parse_checkpoint("\n".join(spaced + ["", "  "]) + "\n", path="c").params
        want = parse_checkpoint(text, path="c").params
        assert got.values.tobytes() == want.values.tobytes()
        assert got.velocity.tobytes() == want.velocity.tobytes()

    @pytest.mark.parametrize("case", [
        "truncated-after-12", "header-deep", "net-other-plan", "line-3-layer-fan-in-negative",
        "line-8-layer-fan-out-word", "line-4-w-nan", "line-7-vb-one-too-few",
        "line-10-b-bad-hex", "trailing-garbage",
    ])
    def test_predict_exits_2(self, case, tmp_path, capsys):
        from viewbench.cli import entry

        text, want = CONTRACT_CASES[case]
        ckpt = tmp_path / "c"
        ckpt.write_text(text)
        # predict reads the checkpoint before the benchmark
        argv = ["predict", str(ckpt), str(tmp_path / "manifest.json"),
                "--out", str(tmp_path / "dets.txt")]
        assert entry(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path}/{want}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "dets.txt").exists()


class TestConfigDicts:
    """Configs travel through checkpoint headers as ``asdict`` and come
    back through their constructors, which turn lists into tuples."""

    def test_net_config(self, tmp_path):
        cfg = NetConfig(input_dim=4, trunk_widths=(8, 6), head="joint_reg",
                        n_classes=3, n_dims=2, split_depth=1, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg), cfg, iteration=0)
        assert load_checkpoint(path).net == cfg

    def test_train_config(self, tmp_path):
        tcfg = TrainConfig(lr=0.01, decay_at=(100, 200), seed=3)
        cfg = NetConfig(input_dim=4, trunk_widths=(8,), head="cls", n_classes=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg), cfg, iteration=0, extra={"train": asdict(tcfg)})
        assert TrainConfig(**load_checkpoint(path).header["train"]) == tcfg

    def test_json_safe(self):
        # tuples serialize as JSON lists, the same bytes as a list-valued dict
        cfg = NetConfig(input_dim=4, trunk_widths=(8,), head="cls", n_classes=1)
        tcfg = TrainConfig()
        assert json.dumps(asdict(cfg)) == json.dumps({**asdict(cfg), "trunk_widths": [8]})
        assert json.dumps(asdict(tcfg)) == json.dumps({**asdict(tcfg), "decay_at": [2000]})


class TestReportsAndLogs:
    def test_eval_report_json(self):
        ds = generate(0, 5, _specs())
        report = oracle_eval(ds)
        doc = json.loads(format_eval_report(report, echo={"seed": 0}))
        assert doc["mean_ap"] == 1.0
        assert doc["mean_avp"]["24"] == 1.0
        assert doc["config"] == {"seed": 0}

    def test_train_log_format(self):
        from viewbench.net import LogEntry

        text = format_train_log([LogEntry(0, 0.001, 12.5, 0.5)])
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split() == ["0", "0.001", "12.5", "0.5"]


class TestAtomicWrites:
    def test_overwrite_in_place(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(p, "first\n")
        atomic_write_text(p, "second\n")
        assert p.read_text() == "second\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_commit_leaves_nothing(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        files = {
            tmp_path / "ok.txt": b"data",
            blocker / "sub.txt": b"cannot be staged",
        }
        with pytest.raises(OSError):
            commit_files(files)
        assert not (tmp_path / "ok.txt").exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "b.txt").mkdir()
        files = {tmp_path / name: name.encode() for name in ("a.txt", "b.txt", "c.txt")}
        with pytest.raises(IsADirectoryError):
            commit_files(files)
        # a.txt, renamed before the failure, is removed again: it was new
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt"]
        assert list((tmp_path / "b.txt").iterdir()) == []

    def test_failed_commit_removes_the_directories_it_made(self, tmp_path):
        files = {
            tmp_path / "new" / "deeper" / "a.txt": b"ok",
            tmp_path / "new" / "b.txt": "not bytes",
        }
        with pytest.raises(TypeError):
            commit_files(files)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        files = {tmp_path / "a.txt": b"ok", tmp_path / "b.txt": "not bytes"}
        with pytest.raises(TypeError):
            commit_files(files)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o027, 0o640)], ids=oct
    )
    def test_modes_honour_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "one.txt", "one\n")
            commit_files({tmp_path / "sub" / "two.txt": b"two\n"})
        finally:
            os.umask(old)
        for path in (tmp_path / "one.txt", tmp_path / "sub" / "two.txt"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


# ---------------------------------------------------------------- gt and det record files
#
# The readers that built one record object per line, kept as the oracle of
# the table reader: each line is read once and a refused line goes to
# ``_diagnose``; a detection line whose box tokens equal those of the line
# before it shares that line's Box.


def oracle_parse_ground_truths(text, path="<string>"):
    out = []
    for lineno, tok in _data_lines(text):
        line = _read_box_line(tok, 7)
        if line is None or line[0] < 1:
            _diagnose(tok, "expected", (7,), _GT_COLUMNS, f"{path}:{lineno}")
        class_id, box, (deg,) = line
        out.append(GroundTruth(tok[0], class_id, box, math.radians(deg)))
    return out


_ORACLE_DET_COLUMNS = (
    (slice(2, 6), _checked_box), (6, _parse_float), (7, _parse_float), (1, _CLASS_ID)
)


def oracle_parse_detections(text, path="<string>"):
    out = []
    box_tok = box = None
    for lineno, tok in _data_lines(text):
        line_box_tok = tok[2:6]
        if line_box_tok == box_tok:
            try:
                _, class_id, _, _, _, _, score, deg = tok
                class_id, score, deg = int(class_id), float(score), float(deg)
                ok = class_id >= 1 and (
                    math.isfinite(score + deg) or math.isfinite(score) and math.isfinite(deg)
                )
            except ValueError:
                ok = False
            if not ok:
                _diagnose(tok, "expected", (8,), _ORACLE_DET_COLUMNS, f"{path}:{lineno}")
        else:
            line = _read_box_line(tok, 8)
            if line is None or line[0] < 1:
                _diagnose(tok, "expected", (8,), _ORACLE_DET_COLUMNS, f"{path}:{lineno}")
            class_id, box, (score, deg) = line
            box_tok = line_box_tok
        out.append(Detection(tok[0], class_id, box, score, math.radians(deg)))
    return out


def _box_runs(records):
    """The box row of each record of a table, or for records, the index of
    its run of records that share one Box object."""
    if isinstance(records, Detections):
        return records.box_rows.tolist()
    rows, run, prev = [], -1, None
    for r in records:
        run += r.box is not prev
        rows.append(run)
        prev = r.box
    return rows


def _outcome(parse, text):
    try:
        got = parse(text, path="r.txt")
    except Exception as e:  # noqa: BLE001 - the exception is the result compared
        return "raised", type(e), str(e)
    key = _records_key(got)
    return ("ok", key, _box_runs(got)) if "det" in parse.__name__ else ("ok", key)


DET_LINES = [
    "img0 1 0.1 0.2 0.5 0.6 0.9 10",
    "img0 2 0.1 0.2 0.5 0.6 0.25 200",
    "img0 3 0.1 0.2 0.5 0.6 0.125 359.99",
    "img0 1 0.3 0.1 0.7 0.4 0.5 90",
    "img0 2 0.3 0.1 0.7 0.4 0.5 -45",
    "img1 1 0.3 0.1 0.7 0.4 0.75 360",
    "img1 2 0 0 1 1 1e-3 0",
]
GT_LINES = [
    "img0 1 0.1 0.2 0.5 0.6 10",
    "img0 2 0.3 0.1 0.7 0.4 359.99",
    "img1 1 0.3 0.1 0.7 0.4 -45",
    "img1 2 0 0 1 1 360",
]


def _record_cases(kind, lines):
    """(name, text) of each case built from ``lines``: every field of every
    line mutated, broken shared-box runs, comments and blank lines, and the
    file truncated after every line."""
    cases = []

    def text(new_lines):
        return "\n".join(new_lines) + "\n"

    def swap(i, tok):
        return text(lines[:i] + [" ".join(tok)] + lines[i + 1:])

    for i, line in enumerate(lines):
        tok = line.split()
        for f in range(len(tok)):
            name = f"{kind}-line{i + 1}-field{f}"
            for what, new in (
                ("word", "x"), ("fraction", "1.5"), ("nan", "nan"), ("inf", "inf"),
                ("minus-inf", "-inf"), ("overflow", "1e400"), ("empty", ""),
            ):
                cases.append((f"{name}-{what}", swap(i, tok[:f] + [new] + tok[f + 1:])))
            cases.append((f"{name}-extra", swap(i, tok[:f + 1] + ["7"] + tok[f + 1:])))
            cases.append((f"{name}-missing", swap(i, tok[:f] + tok[f + 1:])))
        for what, new in (("class-0", "0"), ("class-negative", "-2"), ("class-plus", "+2")):
            cases.append((f"{kind}-line{i + 1}-{what}", swap(i, tok[:1] + [new] + tok[2:])))
        for what, at in (("x", 4), ("y", 5)):
            degenerate = list(tok)
            degenerate[at] = degenerate[at - 2]
            cases.append((f"{kind}-line{i + 1}-degenerate-{what}", swap(i, degenerate)))
            inverted = list(tok)
            inverted[at], inverted[at - 2] = inverted[at - 2], inverted[at]
            cases.append((f"{kind}-line{i + 1}-inverted-{what}", swap(i, inverted)))
        # a comment, a blank and a white line before the line, then the
        # line itself mutated, so the line numbers it reports shift
        cases.append((f"{kind}-comments-before-line{i + 1}",
                      text(lines[:i] + ["# note", "", " \t", "  # indented"] + lines[i:])))
        bad = tok[:-1] + ["nan"]
        cases.append((f"{kind}-comments-then-bad-line{i + 1}",
                      text(lines[:i] + ["# note", ""] + [" ".join(bad)] + lines[i + 1:])))
    for k in range(len(lines) + 1):
        cases.append((f"{kind}-truncated-after-{k}", text(lines[:k]) if k else ""))
        if k < len(lines):
            cut = lines[k][: len(lines[k]) // 2]
            cases.append((f"{kind}-truncated-inside-{k + 1}", text(lines[:k] + [cut])))
    return cases


def _det_run_cases():
    """Shared-box runs broken in their middle: the second line of the
    three-line run of img0 with other box text (the same value, or another),
    and a run whose image changes inside it."""
    cases = []
    for what, new in (("same-value", "0.10"), ("other-value", "0.15"), ("word", "q")):
        tok = DET_LINES[1].split()
        tok[2] = new
        lines = DET_LINES[:1] + [" ".join(tok)] + DET_LINES[2:]
        cases.append((f"det-run-broken-{what}", "\n".join(lines) + "\n"))
    tok = DET_LINES[4].split()
    lines = DET_LINES[:4] + [" ".join(["img9"] + tok[1:])] + DET_LINES[5:]
    cases.append(("det-run-image-changes", "\n".join(lines) + "\n"))
    lines = DET_LINES[:1] + ["# inside a run", ""] + DET_LINES[1:]
    cases.append(("det-run-comment-inside", "\n".join(lines) + "\n"))
    return cases


RECORD_CONTRACT = dict(
    [(n, (oracle_parse_detections, parse_detections, t)) for n, t in
     _record_cases("det", DET_LINES) + _det_run_cases()]
    + [(n, (oracle_parse_ground_truths, parse_ground_truths, t)) for n, t in
       _record_cases("gt", GT_LINES)]
)


class TestRecordContract:
    """The gt and det readers give the oracle readers' result on every
    case: the same values (floats as ``float.hex``) and box rows, or
    the same exception type and text, naming the same ``path:line``."""

    @pytest.mark.parametrize("case", list(RECORD_CONTRACT))
    def test_matches_oracle(self, case):
        oracle, parse, text = RECORD_CONTRACT[case]
        assert _outcome(parse, text) == _outcome(oracle, text)

    def test_cases_cover_both_outcomes(self):
        outcomes = [_outcome(oracle, text)[0] for oracle, _, text in RECORD_CONTRACT.values()]
        assert outcomes.count("ok") > 40 and outcomes.count("raised") > 400

    @pytest.mark.parametrize("bad, undecodable", [(2, 2000), (2000, 2), (1999, 2000)])
    def test_undecodable_bytes_after_or_before_a_refused_line(self, bad, undecodable, tmp_path):
        """The error of whichever the file read line by line reaches first:
        a refused line, or bytes that are not UTF-8 (which the reader meets
        a buffer of text at a time)."""
        lines = [line.encode() for line in DET_LINES * 300]
        tok = lines[bad].split()
        lines[bad] = b" ".join(tok[:6] + [b"nan"] + tok[7:])
        lines[undecodable] += b" caf\xff"
        path = tmp_path / "r.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")

        def error(parse):
            with pytest.raises(FormatError) as info:
                parse(read_lines(path), path=str(path))
            return str(info.value)

        assert error(parse_detections) == error(oracle_parse_detections)
        if abs(bad - undecodable) > 1000:  # in buffers far apart
            assert error(parse_detections).startswith(f"{path}:{min(bad, undecodable) + 1}: ")

    @pytest.mark.parametrize("case", [
        "det-line2-field6-nan", "det-line3-field1-fraction", "det-line4-degenerate-x",
        "det-line5-field7-missing", "det-comments-then-bad-line6", "det-run-broken-word",
        "det-line7-class-0", "det-truncated-inside-4",
    ])
    def test_eval_exits_2(self, case, tmp_path, capsys):
        from viewbench.cli import entry

        oracle, _, text = RECORD_CONTRACT[case]
        _, _, message = _outcome(oracle, text)
        assert message.startswith("r.txt:")
        gt, det = tmp_path / "gt.txt", tmp_path / "r.txt"
        gt.write_text("\n".join(GT_LINES) + "\n")
        det.write_text(text)
        assert entry(["eval", str(gt), str(det), "--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path}/{message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------- dataset contract
# The dataset reader as it stood before the proposal table, one record per
# proposal, is the oracle: it reads each line once, as the reader does, and
# sends a refused line to the same diagnosis.


def _oracle_read_prop_line(tok, counts, n_gt):
    if len(tok) not in counts:
        return None
    try:
        matched, ov, noise_seed = int(tok[1]), float(tok[2]), int(tok[3])
        values = list(map(float, tok[4:]))
        if not -1 <= matched < n_gt or not math.isfinite(ov) or not _finite(values):
            return None
        return matched, ov, noise_seed, Box(*values[:4]), values[4:]
    except (ValueError, InvalidParameter):  # InvalidParameter: a degenerate box
        return None


def oracle_parse_dataset(text, class_specs, split, seed, path="<string>", features=None):
    class_specs = tuple(class_specs)
    feature_dim = class_specs[0].feature_dim
    class_ids = {spec.class_id for spec in class_specs}
    scenes = []
    scene_lines = {}
    cur_id = None
    scene_where = ""
    n_gt = n_prop = 0
    gts, props = [], []
    next_feature = 0

    def flush():
        if cur_id is None:
            return
        if len(gts) != n_gt or len(props) != n_prop:
            raise FormatError(
                f"{scene_where}: scene {cur_id} declares {n_gt} gt and {n_prop} prop lines, "
                f"got {len(gts)} and {len(props)}"
            )
        scenes.append(OracleScene(cur_id, tuple(gts), tuple(props)))

    sidecar_rows, no_row = 0, "no inline features and no sidecar given"
    if features is not None and (features.ndim != 2 or features.shape[1] != feature_dim):
        no_row = (
            f"sidecar rows must have {feature_dim} values, the sidecar has shape {features.shape}"
        )
    elif features is not None:
        sidecar_rows, no_row = features.shape[0], "sidecar has too few feature rows"

    def feature_values(tokens, where):
        for t in tokens:
            _parse_float(t, where)
        if not tokens:
            raise FormatError(f"{where}: {no_row}")

    gt_columns = (
        (slice(2, 6), _checked_box),
        (1, _int_check(class_ids.__contains__, lambda c: (
            f"class id {c} has no class spec, the specs have ids {sorted(class_ids)}"
        ))),
        (6, _parse_float),
    )
    prop_fields = (8, 8 + feature_dim)
    prop_columns = (
        (1, _int_check(lambda m: -1 <= m < n_gt, lambda m: (
            f"matched_gt {m} is neither -1 nor one of the scene's {n_gt} ground truths"
        ))),
        (2, _parse_float),
        (3, _parse_int),
        (slice(4, 8), _checked_box),
        (slice(8, None), feature_values),
    )

    lineno = 0
    for lineno, tok in _data_lines(text):
        kind = tok[0]
        if cur_id is None and kind in ("gt", "prop"):
            raise FormatError(f"{path}:{lineno}: {kind} line before any scene line")
        if kind == "prop":
            line = _oracle_read_prop_line(tok, prop_fields, n_gt)
            if line is None or not line[4] and next_feature >= sidecar_rows:
                _diagnose(tok, "prop line needs", prop_fields, prop_columns, f"{path}:{lineno}")
            matched, ov, noise_seed, box, feat = line
            if not feat:
                feat = features[next_feature]
                next_feature += 1
            props.append(
                OracleProposal(box, np.array(feat, dtype=np.float64), matched, ov, noise_seed)
            )
        elif kind == "gt":
            line = _read_box_line(tok, 7)
            if line is None or line[0] not in class_ids:
                _diagnose(tok, "gt line needs", (7,), gt_columns, f"{path}:{lineno}")
            class_id, box, (az,) = line
            gts.append(GroundTruth(cur_id, class_id, box, az))
        elif kind == "scene":
            where = f"{path}:{lineno}"
            if len(tok) != 4:
                raise FormatError(f"{where}: scene line needs 4 fields, got {len(tok)}")
            flush()
            cur_id = tok[1]
            if cur_id in scene_lines:
                raise FormatError(
                    f"{where}: scene {cur_id} repeats the scene id of line {scene_lines[cur_id]}"
                )
            scene_lines[cur_id] = lineno
            scene_where = where
            n_gt, n_prop = _parse_int(tok[2], where), _parse_int(tok[3], where)
            gts, props = [], []
        else:
            raise FormatError(f"{path}:{lineno}: unknown line type {kind!r}")
    flush()
    if features is not None and features.shape[:1] != (next_feature,):
        raise FormatError(
            f"{path}:{lineno}: the prop lines read {next_feature} sidecar rows, "
            f"the sidecar has shape {features.shape}"
        )
    return OracleDataset(tuple(scenes), class_specs, feature_dim, split, seed)


def _contract_dataset():
    """Two scenes of a two-class roster with two-value features, each with
    its ground truths, foreground and background proposals."""
    specs = (ClassSpec(class_id=1, seed=0, feature_dim=2),
             ClassSpec(class_id=2, seed=0, feature_dim=2, symmetry_order=2))
    return generate(5, 2, specs, backgrounds_per_scene=2), specs


def _dataset_cases(lines):
    """(name, text) of each case built from a dataset file's ``lines``:
    every field of every line mutated, a token added or dropped, comments
    and blank lines, repeated scene ids, and the file truncated after and
    inside every line."""
    cases = []

    def text(new_lines):
        return "\n".join(new_lines) + "\n"

    def swap(i, tok):
        return text(lines[:i] + [" ".join(tok)] + lines[i + 1:])

    for i, line in enumerate(lines):
        tok = line.split()
        if tok[0] == "#":
            continue
        for f in range(len(tok)):
            name = f"line{i + 1}-{tok[0]}-field{f}"
            for what, new in (
                ("word", "x"), ("fraction", "1.5"), ("nan", "nan"), ("inf", "inf"),
                ("minus-inf", "-inf"), ("overflow", "1e400"), ("empty", ""),
            ):
                cases.append((f"{name}-{what}", swap(i, tok[:f] + [new] + tok[f + 1:])))
            cases.append((f"{name}-extra", swap(i, tok[:f + 1] + ["7"] + tok[f + 1:])))
            cases.append((f"{name}-missing", swap(i, tok[:f] + tok[f + 1:])))
        cases.append((f"comments-before-line{i + 1}",
                      text(lines[:i] + ["# note", "", " \t", "  # indented"] + lines[i:])))
    scene_at = [i for i, line in enumerate(lines) if line.startswith("scene ")]
    for i in scene_at[1:]:
        tok = lines[i].split()
        first = lines[scene_at[0]].split()[1]
        cases.append((f"line{i + 1}-scene-id-repeated", swap(i, tok[:1] + [first] + tok[2:])))
    cases.append(("scene-id-repeated-at-the-end", text(lines + lines[scene_at[0]:scene_at[1]])))
    for k in range(len(lines) + 1):
        cases.append((f"truncated-after-{k}", text(lines[:k]) if k else ""))
        if k < len(lines):
            cut = lines[k][: len(lines[k]) // 2]
            cases.append((f"truncated-inside-{k + 1}", text(lines[:k] + [cut])))
    return cases


def _sidecar_cases(ds):
    """(name, sidecar) of feature sidecars of another shape, dtype or row
    count than the prop lines that read them."""
    f = ds.features()
    return [
        ("sidecar-none", None), ("sidecar-1d", f.ravel()), ("sidecar-3d", f[None]),
        ("sidecar-narrow", f[:, :1]), ("sidecar-wide", np.concatenate([f, f], axis=1)),
        ("sidecar-short", f[:-1]), ("sidecar-long", np.concatenate([f, f[:1]])),
        ("sidecar-empty", f[:0]), ("sidecar-float32", f.astype(np.float32)),
        ("sidecar-int", (f * 100).astype(np.int64)),
        ("sidecar-uint", np.arange(f.size, dtype=np.uint64).reshape(f.shape) * (2**61 + 1)),
        ("sidecar-bool", f > 0), ("sidecar-fortran", np.asfortranarray(f)),
        ("sidecar-strided", np.concatenate([f, f], axis=1)[:, ::2]),
    ]


def _dataset_contract():
    ds, specs = _contract_dataset()
    inline = format_dataset(ds).splitlines()
    binary = format_dataset(ds, inline_features=False).splitlines()
    cases = {f"inline-{n}": (t, None) for n, t in _dataset_cases(inline)}
    cases.update({f"sidecar-{n}": (t, ds.features()) for n, t in _dataset_cases(binary)})
    cases.update({n: ("\n".join(binary) + "\n", f) for n, f in _sidecar_cases(ds)})
    return specs, ds.n_samples, cases


CONTRACT_SPECS, CONTRACT_ROWS, DATASET_CONTRACT = _dataset_contract()


class TestDatasetContract:
    """The dataset reader gives the oracle reader's result on every case,
    with its table made at any size: the same values (floats as
    ``float.hex``), or the same exception type and text, naming the same
    ``path:line``."""

    @pytest.mark.parametrize("case", list(DATASET_CONTRACT))
    def test_matches_oracle(self, case):
        text, features = DATASET_CONTRACT[case]
        for rows in (None, 0, CONTRACT_ROWS, 3 * CONTRACT_ROWS):
            _same_outcome(
                lambda *a, **k: parse_dataset(*a, **k, n_proposals=rows), oracle_parse_dataset,
                _dataset_key, text, CONTRACT_SPECS, "train", 0, path="d.txt", features=features,
            )

    def test_cases_cover_both_outcomes(self):
        outcomes = [
            _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, text,
                          CONTRACT_SPECS, "train", 0, path="d.txt", features=features)[0]
            for text, features in DATASET_CONTRACT.values()
        ]
        assert outcomes.count("ok") > 100 and outcomes.count("raised") > 1000

    @pytest.mark.parametrize("seed, ok", [
        ("0", True), (str(2**63), True), (str(2**64 - 1), True), ("-1", False),
        (str(2**64), False), (str(-(2**70)), False),
    ])
    def test_noise_seed_range(self, seed, ok):
        """Noise seeds outside [0, 2**64), which the oracle read, are
        refused where they enter, naming the line."""
        ds, specs = _contract_dataset()
        lines = format_dataset(ds).splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("prop "))
        tok = lines[i].split()
        lines[i] = " ".join(tok[:3] + [seed] + tok[4:])
        text = "\n".join(lines) + "\n"
        want = oracle_parse_dataset(text, specs, "train", 0, path="d.txt")
        if ok:
            got = parse_dataset(text, specs, "train", 0, path="d.txt")
            assert _dataset_key(got) == _dataset_key(want)
            assert got.proposals.noise_seed[0] == int(seed)
        else:
            with pytest.raises(FormatError) as info:
                parse_dataset(text, specs, "train", 0, path="d.txt")
            assert str(info.value) == (
                f"d.txt:{i + 1}: noise seed must be in [0, 2**64), got {seed}"
            )

    @pytest.mark.parametrize("case", [
        "inline-line2-scene-field2-word", "inline-line4-gt-field6-nan",
        "inline-line6-prop-field3-fraction", "inline-line6-prop-field5-overflow",
        "inline-line7-prop-field9-missing", "inline-truncated-inside-8",
        "inline-line11-scene-id-repeated", "sidecar-line13-prop-field7-extra",
    ])
    def test_train_exits_2(self, case, tmp_path, capsys):
        from viewbench.cli import entry

        text, features = DATASET_CONTRACT[case]
        got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, text,
                            CONTRACT_SPECS, "train", 0, path="d.txt", features=features)
        assert got[0] == "raised" and got[1][1].startswith("d.txt:")
        ds, specs = _contract_dataset()
        manifest = write_benchmark(tmp_path / "bench", ds, generate(6, 1, specs, split="test"),
                                   features_binary=features is not None)
        (tmp_path / "bench" / "train_data.txt").write_text(text)
        cfg = tmp_path / "train.yaml"
        cfg.write_text(json.dumps({"data": str(manifest), "train": {"total_iters": 2}}))
        assert entry(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'bench' / 'train_data.txt'}{got[1][1][5:]}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.txt").exists()


# ---------------------------------------------------------------- prop runs
# parse_dataset reads the lines that start "prop " in runs of
# records._RUN_ROWS through NumPy's C reader, and a run it refuses line by
# line.  At every run size, and with every run refused, the outcome is the
# oracle's: the same table bits, or the same error naming the same line.

RUN_SIZES = (1, 2, 7, records._RUN_ROWS)


def _run_lines(inline=True):
    """The lines of a file of six scenes, four or five prop lines each and
    27 in all, and the dataset written to it."""
    ds = generate(0, 6, CONTRACT_SPECS, backgrounds_per_scene=2)
    return format_dataset(ds, inline_features=inline).splitlines(), ds


def _runs_agree(monkeypatch, lines, features=None):
    """The outcome of reading ``lines`` at every run size and with every
    run refused, each the oracle's; returns the last."""
    args = ("\n".join(lines) + "\n", CONTRACT_SPECS, "train", 0)
    kwargs = {"path": "d.txt", "features": features}
    with monkeypatch.context() as m:
        for rows in RUN_SIZES:
            m.setattr(records, "_RUN_ROWS", rows)
            _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, *args, **kwargs)
        m.setattr(records, "_read_run", lambda *a: None)
        return _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, *args, **kwargs)


def _prop_index(lines, k):
    """The index in ``lines`` of the k-th prop line."""
    return [i for i, line in enumerate(lines) if line.startswith("prop ")][k]


def _with_token(lines, k, field, token):
    """``lines`` with field ``field`` of the k-th prop line set to ``token``."""
    i = _prop_index(lines, k)
    tok = lines[i].split()
    tok[field] = token
    return lines[:i] + [" ".join(tok)] + lines[i + 1:]


class TestPropRuns:
    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    def test_runs_span_scenes(self, inline, monkeypatch):
        """Every run of a clean file is read by the C reader, ``_RUN_ROWS``
        lines at a time across scene lines, and the table matches."""
        lines, ds = _run_lines(inline)
        features = None if inline else ds.features()
        calls = []

        def counted(run, dtype, n_gt):
            got = read_run(run, dtype, n_gt)
            calls.append(got is not None)
            return got

        read_run = records._read_run
        monkeypatch.setattr(records, "_read_run", counted)
        for rows in RUN_SIZES:
            calls.clear()
            monkeypatch.setattr(records, "_RUN_ROWS", rows)
            got = parse_dataset("\n".join(lines), CONTRACT_SPECS, "train", 0, features=features)
            assert _dataset_key(got) == _dataset_key(ds)
            assert calls == [True] * -(-ds.n_samples // rows)
        assert _runs_agree(monkeypatch, lines, features)[0] == "ok"

    @pytest.mark.parametrize("rows", [2, 7])
    def test_contract_cases(self, rows, monkeypatch):
        """Every case of the dataset contract at run sizes that cut its
        files in other places."""
        monkeypatch.setattr(records, "_RUN_ROWS", rows)
        for text, features in DATASET_CONTRACT.values():
            _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, text,
                          CONTRACT_SPECS, "train", 0, path="d.txt", features=features)

    @pytest.mark.parametrize("bad", [
        (1, "9", "matched_gt 9 is neither -1 nor one of the scene's 3 ground truths"),
        (1, "x", "not an integer: 'x'"),
        (6, "0.1", "degenerate box"),
    ], ids=["matched-range", "matched-word", "degenerate-box"])
    @pytest.mark.parametrize("later", ["gt", "count", "scene-fields", "scene-repeated", "kind"])
    def test_pending_error_comes_first(self, bad, later, monkeypatch):
        """A bad prop line waiting in a run raises its own error before
        that of a later line, or of its scene's count."""
        lines, _ = _run_lines()
        field, token, message = bad
        lines = _with_token(lines, 1, field, token)
        at = _prop_index(lines, 1) + 1
        scenes = [i for i, line in enumerate(lines) if line.startswith("scene ")]
        i = scenes[2] + 1  # the first gt line of the third scene
        if later == "gt":
            lines[i] = "gt 9 " + lines[i].split(maxsplit=2)[2]
        elif later == "count":
            del lines[i]
        elif later == "scene-fields":
            lines[scenes[2]] += " 7"
        elif later == "scene-repeated":
            lines[scenes[2]] = lines[scenes[0]]
        else:
            lines.insert(i, "box 1 2 3")
        got = _runs_agree(monkeypatch, lines)
        assert got[0] == "raised"
        assert got[1][1].startswith(f"d.txt:{at}: ") and message in got[1][1]

    @pytest.mark.parametrize("field, token, value", [
        (1, "0_0", 0), (1, "-0", 0), (2, "0_5", 5.0), (2, "٣", 3.0), (3, "-0", 0), (3, "+7", 7),
        (3, "1_0", 10), (3, "٣", 3), (8, "1_0", 10.0), (9, "٣.٥", 3.5),
    ])
    def test_tokens_only_python_reads(self, field, token, value, monkeypatch):
        """Numbers that ``int`` and ``float`` read and the C reader refuses
        read as the line-by-line read reads them."""
        lines, _ = _run_lines()
        got = _runs_agree(monkeypatch, _with_token(lines, 3, field, token))
        assert got[0] == "ok"
        column = {1: "matched_gt", 2: "iou", 3: "noise_seed"}.get(field, "features")
        read = getattr(got[1].proposals, column)[3]
        assert (read[field - 8] if field >= 8 else read) == value

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x1f", "\x7f", "\xa0", "　"],
                             ids=["nul", "soh", "bs", "us", "del", "nbsp", "ideographic-space"])
    @pytest.mark.parametrize("where", ["separator", "before", "after", "inside", "line-end"])
    def test_control_and_space_characters(self, char, where, monkeypatch):
        """A character that ``str.split`` may take for a space, or that no
        number holds, put between, before, after or inside the tokens of a
        prop line.  NUL and the other control characters in a token are
        refused by both readers."""
        lines, _ = _run_lines()
        i = _prop_index(lines, 4)
        tok = lines[i].split()
        lines[i] = {
            "separator": lambda: " ".join(tok[:5]) + char + " ".join(tok[5:]),
            "before": lambda: " ".join(tok[:5] + [char + tok[5]] + tok[6:]),
            "after": lambda: " ".join(tok[:5] + [tok[5] + char] + tok[6:]),
            "inside": lambda: " ".join(tok[:5] + [tok[5][:3] + char + tok[5][3:]] + tok[6:]),
            "line-end": lambda: lines[i] + char,
        }[where]()
        got = _runs_agree(monkeypatch, lines)
        if char in "\x00\x01\x08\x7f" and where != "line-end":
            assert got[0] == "raised" and got[1][1].startswith(f"d.txt:{i + 1}: ")

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(" ", "\t"),
        lambda line: line.replace(" ", " \t ", 3),
        lambda line: "  " + line,
        lambda line: "\t" + line,
        lambda line: line + " \t ",
        lambda line: line.replace("prop ", "prop  ", 1),
    ], ids=["tabs", "tab-runs", "leading-spaces", "leading-tab", "trailing", "double-space"])
    def test_tabs_and_leading_whitespace(self, edit, monkeypatch):
        lines, ds = _run_lines()
        lines = [edit(line) if line.startswith("prop ") and k % 2 else line
                 for k, line in enumerate(lines)]
        got = _runs_agree(monkeypatch, lines)
        assert got[0] == "ok" and _dataset_key(got[1]) == _dataset_key(ds)

    def test_mixed_inline_and_sidecar_lines(self, monkeypatch):
        """Beside a sidecar, every third prop line carries its features
        inline and reads no sidecar row."""
        lines, ds = _run_lines(inline=False)
        features = ds.features()
        inline = [k % 3 == 1 for k in range(ds.n_samples)]
        k = 0
        for i, line in enumerate(lines):
            if line.startswith("prop "):
                if inline[k]:
                    lines[i] = line + " " + " ".join("%.17g" % v for v in features[k])
                k += 1
        got = _runs_agree(monkeypatch, lines, features[[not x for x in inline]])
        assert got[0] == "ok" and _dataset_key(got[1]) == _dataset_key(ds)

    @pytest.mark.parametrize("field, token, ok", [
        (1, "1_0", False), (3, "1_0", True), (2, "inf", False), (6, "0.01", False),
        (8, "٣", True),
    ])
    def test_run_refused_at_its_last_row(self, field, token, ok, monkeypatch):
        """The 7th prop line, the last of the first run of 7, is one the C
        reader or a run check refuses: the lines before it still read, and
        it reads or raises as the line-by-line read has it."""
        lines, _ = _run_lines()
        lines = _with_token(lines, 6, field, token)
        got = _runs_agree(monkeypatch, lines)
        assert got[0] == ("ok" if ok else "raised")
        if not ok:
            assert got[1][1].startswith(f"d.txt:{_prop_index(lines, 6) + 1}: ")

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x85"])
    def test_line_breaks_inside_given_lines(self, brk, monkeypatch):
        """Lines given as an iterable may hold a line break, which
        ``str.split`` takes for a space: one such line that holds two prop
        lines is one line of too many fields, and one that ends in the
        break reads."""
        lines, _ = _run_lines()
        i = _prop_index(lines, 2)
        joined = lines[:i] + [lines[i] + brk + lines[i + 1]] + lines[i + 2:]
        ended = lines[:i] + [lines[i] + brk] + lines[i + 1:]
        for given, ok in ((joined, False), (ended, True)):
            with monkeypatch.context() as m:
                for rows in RUN_SIZES:
                    m.setattr(records, "_RUN_ROWS", rows)
                    got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key, given,
                                        CONTRACT_SPECS, "train", 0, path="d.txt")
                    assert got[0] == ("ok" if ok else "raised")

    @pytest.mark.parametrize("n_gt", [str(2**63), str(10**20), str(-(10**20))])
    @pytest.mark.parametrize("matched", [str(2**63 - 1), "0"])
    def test_gt_counts_past_int64(self, n_gt, matched, monkeypatch):
        """A scene line may declare a gt count that no int64 holds; its
        prop lines are checked against it as the line-by-line read does."""
        lines, _ = _run_lines()
        lines = _with_token(lines, 1, 1, matched)
        i = next(k for k, line in enumerate(lines) if line.startswith("scene "))
        tok = lines[i].split()
        lines[i] = " ".join(tok[:2] + [n_gt] + tok[3:])
        assert _runs_agree(monkeypatch, lines)[0] == "raised"

    def test_short_sidecar_raises_at_its_line(self, monkeypatch):
        """A run that would read past the sidecar's rows is read line by
        line, which names the first line with no row left."""
        lines, ds = _run_lines(inline=False)
        got = _runs_agree(monkeypatch, lines, ds.features()[:10])
        assert got[1][1] == f"d.txt:{_prop_index(lines, 10) + 1}: sidecar has too few feature rows"

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(" ", "\t"),
        lambda line: line.replace("prop ", "prop\t", 1),
        lambda line: "  " + line,
        lambda line: "\t" + line.replace(" ", "  "),
    ], ids=["tabs", "tab-after-kind", "leading-spaces", "leading-tab-double-spaces"])
    def test_every_prop_line_joins_the_run(self, edit, inline, monkeypatch):
        """A prop line that does not start ``prop `` joins the run as any
        other does: every run, ``_RUN_ROWS`` lines long but the last, is
        read by the C reader, and the table is the dataset's."""
        lines, ds = _run_lines(inline)
        lines = [edit(line) if line.startswith("prop ") else line for line in lines]
        features = None if inline else ds.features()
        runs = []

        def counted(run, dtype, n_gt):
            got = read_run(run, dtype, n_gt)
            runs.append((len(run), got is not None))
            return got

        read_run = records._read_run
        monkeypatch.setattr(records, "_read_run", counted)
        for rows in RUN_SIZES:
            runs.clear()
            monkeypatch.setattr(records, "_RUN_ROWS", rows)
            got = parse_dataset("\n".join(lines), CONTRACT_SPECS, "train", 0, features=features)
            assert _dataset_key(got) == _dataset_key(ds)
            n = ds.n_samples
            assert runs == [(min(rows, n - start), True) for start in range(0, n, rows)]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_noise_seed_out_of_range_at_every_run_size(self, seed, monkeypatch):
        """A noise seed outside [0, 2**64) raises at its line whether its
        run is read by the C reader or refused and read line by line.  The
        oracle reads such seeds, so the message is checked here."""
        lines, _ = _run_lines()
        lines = _with_token(lines, 3, 3, seed)
        text = "\n".join(lines) + "\n"
        want = f"d.txt:{_prop_index(lines, 3) + 1}: noise seed must be in [0, 2**64), got {seed}"
        with monkeypatch.context() as m:
            for refused in (False, True):
                if refused:
                    m.setattr(records, "_read_run", lambda *a: None)
                for rows in RUN_SIZES:
                    m.setattr(records, "_RUN_ROWS", rows)
                    with pytest.raises(FormatError) as info:
                        parse_dataset(text, CONTRACT_SPECS, "train", 0, path="d.txt")
                    assert str(info.value) == want


# ---------------------------------------------------------------- manifests

MANIFEST_TOP_KEYS = ("format", "version", "feature_dim", "features_binary", "class_specs",
                     "splits", "config")
MANIFEST_SPLIT_KEYS = ("data", "gt", "features", "seed", "n_scenes", "n_gt", "n_proposals")
MANIFEST_SPEC_KEYS = ("class_id", "seed", "feature_dim", "n_harmonics", "symmetry_order",
                      "noise_sigma")
# keys whose value is a string (or a null standing for none)
_STRING_KEYS = ("format", "data", "gt", "features")
# keys read_benchmark does not read: any well-formed JSON value reads cleanly
_UNREAD = {("version",), ("features_binary",), ("config",), ("splits", "train", "gt"),
           ("splits", "test", "gt")}
_REMOVED = object()
_DEEP = "@@deep@@"


def _mutation(key, name):
    return {
        "wrong-type": 7 if key in _STRING_KEYS else "7", "bool": True, "fraction": 1.5,
        "negative": -1, "nan": math.nan, "inf": math.inf, "null": None, "deep": _DEEP,
        "removed": _REMOVED,
    }[name]


def _manifest_key_paths():
    for key in MANIFEST_TOP_KEYS:
        yield (key,)
    for split in ("train", "test"):
        for key in MANIFEST_SPLIT_KEYS:
            yield ("splits", split, key)
    for i in (0, 3):
        for key in MANIFEST_SPEC_KEYS:
            yield ("class_specs", i, key)


def _reads_cleanly(path, name):
    """Whether the mutation leaves a manifest that reads: one of a key the
    reader does not read, a null or absent sidecar, or a class spec field
    given a value it may hold (a fraction of noise, a default)."""
    if name == "deep":
        return False
    key = path[-1]
    return (
        path in _UNREAD
        or (key == "features" and name in ("null", "removed"))
        or (path[0] == "class_specs" and key == "noise_sigma" and name == "fraction")
        or (path[0] == "class_specs" and name == "removed"
            and key in ("n_harmonics", "symmetry_order", "noise_sigma"))
    )


MANIFEST_MUTATIONS = ("wrong-type", "bool", "fraction", "negative", "nan", "inf", "null",
                      "deep", "removed")
MANIFEST_CONTRACT = {
    ".".join(map(str, path)) + "-" + name: (path, name)
    for path in _manifest_key_paths() for name in MANIFEST_MUTATIONS
}


def _mutated_manifest(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    owner = doc
    for p in parents:
        owner = owner[p]
    if value is _REMOVED:
        del owner[key]
    else:
        owner[key] = value
    return json.dumps(doc, indent=2).replace(json.dumps(_DEEP), "[" * 10_000 + "]" * 10_000)


@pytest.fixture(scope="module")
def contract_bench(tmp_path_factory):
    """A generated benchmark of the default four-class roster, inline
    features; the mutated manifests go beside its files."""
    root = tmp_path_factory.mktemp("manifest_contract")
    specs = default_class_specs(0, feature_dim=4)
    manifest = write_benchmark(root, generate(1, 6, specs, split="train"),
                               generate(2, 3, specs, split="test"))
    return manifest, json.loads(manifest.read_text())


def _train_with(manifest, tmp_path, capsys):
    from viewbench.cli import entry

    cfg = tmp_path / "train.yaml"
    cfg.write_text(json.dumps({
        "data": str(manifest), "net": {"head": "joint_cls", "trunk_widths": [4]},
        "loss": {"kind": "joint_classification"}, "train": {"total_iters": 2, "batch_size": 8},
    }))
    code = entry(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    return code, capsys.readouterr().err


class TestManifestContract:
    """Every key of a generated manifest, top level, split entry and class
    spec, mutated: ``read_benchmark`` raises a FormatError whose message
    starts with the manifest's path, or, where the key is not read or the
    value is one the key may hold, reads the splits as they are."""

    def test_table_covers_every_key(self, contract_bench):
        _, doc = contract_bench
        assert set(doc) == set(MANIFEST_TOP_KEYS)
        assert all(set(doc["splits"][s]) == set(MANIFEST_SPLIT_KEYS) for s in ("train", "test"))
        assert all(set(spec) == set(MANIFEST_SPEC_KEYS) for spec in doc["class_specs"])
        assert len(doc["class_specs"]) == 4

    @pytest.mark.parametrize("case", list(MANIFEST_CONTRACT))
    def test_mutated(self, case, contract_bench):
        manifest, doc = contract_bench
        path, name = MANIFEST_CONTRACT[case]
        mutated = manifest.parent / f"{case}.json"
        mutated.write_text(_mutated_manifest(doc, path, _mutation(path[-1], name)))
        if _reads_cleanly(path, name):
            got = read_benchmark(mutated)
            want = read_benchmark(manifest)
            for g, w in zip(got[:2], want[:2]):
                assert g.ground_truths() == w.ground_truths()
                assert g.features().tobytes() == w.features().tobytes()
        else:
            with pytest.raises(FormatError) as info:
                read_benchmark(mutated)
            assert str(info.value).startswith(f"{mutated}:") \
                or str(info.value).startswith(f"{mutated} split "), str(info.value)

    def test_cases_cover_both_outcomes(self):
        clean = [c for c, (path, name) in MANIFEST_CONTRACT.items() if _reads_cleanly(path, name)]
        assert len(MANIFEST_CONTRACT) == 9 * (7 + 2 * 7 + 2 * 6)
        assert 40 < len(clean) < 60

    @pytest.mark.parametrize("case", [
        "format-null", "feature_dim-bool", "splits.train.n_gt-negative",
        "splits.train.features-wrong-type", "class_specs.0.seed-nan",
        "class_specs.3.n_harmonics-fraction", "class_specs.3.noise_sigma-bool",
        "class_specs.0.class_id-deep",
    ])
    def test_train_exits_2(self, case, contract_bench, tmp_path, capsys):
        manifest, doc = contract_bench
        path, name = MANIFEST_CONTRACT[case]
        mutated = manifest.parent / f"train-{case}.json"
        mutated.write_text(_mutated_manifest(doc, path, _mutation(path[-1], name)))
        code, err = _train_with(mutated, tmp_path, capsys)
        assert code == 2
        assert f"error: {mutated}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.txt").exists()

    def test_train_ignores_unread_keys(self, contract_bench, tmp_path, capsys):
        manifest, doc = contract_bench
        mutated = manifest.parent / "train-version-nan.json"
        mutated.write_text(_mutated_manifest(doc, ("version",), math.nan))
        code, err = _train_with(mutated, tmp_path, capsys)
        assert code == 0, err
        assert (tmp_path / "run" / "checkpoint.txt").exists()

    # Sizes whose first allocation would be larger than memory: the class
    # spec bound refuses them before anything is sized by them.
    @pytest.mark.parametrize("case, owners", [
        pytest.param("n_harmonics-10**9",
                     lambda doc: [(doc["class_specs"][0], "n_harmonics", 10**9)],
                     id="n_harmonics-10**9"),
        pytest.param("feature_dim-10**12",
                     lambda doc: [(d, "feature_dim", 10**12) for d in (doc, *doc["class_specs"])],
                     id="feature_dim-10**12"),
    ])
    def test_huge_sizes_exit_2(self, case, owners, contract_bench, tmp_path, capsys):
        manifest, doc = contract_bench
        doc = json.loads(json.dumps(doc))
        for owner, key, value in owners(doc):
            owner[key] = value
        mutated = manifest.parent / f"huge-{case}.json"
        mutated.write_text(json.dumps(doc))
        code, err = _train_with(mutated, tmp_path, capsys)
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("binary", [False, True], ids=["inline", "sidecar"])
    def test_wide_rows_are_sized_by_the_files(self, binary, tmp_path):
        """A feature_dim under the class spec bound, with a row count that no
        file holds: the feature table is sized by the rows of a sidecar of
        its width or by the bytes of the data file, not by the count."""
        specs = default_class_specs(0, feature_dim=4)
        manifest = write_benchmark(tmp_path, generate(1, 6, specs, split="train"),
                                   generate(2, 3, specs, split="test"), features_binary=binary)
        doc = json.loads(manifest.read_text())
        for owner in (doc, *doc["class_specs"]):
            owner["feature_dim"] = 2**18
        for entry in doc["splits"].values():
            entry["n_proposals"] = 10**9
        manifest.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                read_benchmark(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21  # one row of the table would take 2**21 bytes
