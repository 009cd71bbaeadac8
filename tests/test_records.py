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
from dataclasses import asdict

import numpy as np
import pytest

from viewbench.angles import circular_difference
from viewbench.errors import FormatError, GenerationError, InvalidParameter
from viewbench.metrics import Box, Detection, GroundTruth
from viewbench.net import NetConfig, TrainConfig, init_params
from viewbench.records import (
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
    save_checkpoint,
    write_benchmark,
)
from viewbench.synthetic import ClassSpec, generate, oracle_eval


def _specs():
    return (
        ClassSpec(class_id=1, seed=0, feature_dim=6),
        ClassSpec(class_id=2, seed=0, feature_dim=6, symmetry_order=2),
    )


def _assert_datasets_equal(a, b):
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
        for orig, got in zip(self.DETS, back):
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
        # a.txt was renamed before the failure; b.txt is the directory
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
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
