"""Command-line behavior: exit codes, config validation, and the full
generate / train / predict / eval pipeline.

Every command must be byte-identical on rerun with equal inputs and
seeds.  Exit code 2 flags input or config problems, 3 flags numerical
failures (divergence, gradient checks over tolerance).
"""

import dataclasses
import functools
import importlib
import json
import math
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from viewbench import synthetic
from viewbench.cli import entry, load_run_config
from viewbench.errors import ConfigError
from viewbench.net import HEAD_KINDS, forward
from viewbench.records import DET_HEADER, load_checkpoint, parse_detections, read_benchmark
from viewbench.synthetic import ClassSpec

N_BINS = 24


def _write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _read(path):
    return path.read_bytes()


SMALL_DATASET = {
    "feature_dim": 8,
    "noise_sigma": 0.05,
    "n_train_scenes": 8,
    "n_test_scenes": 4,
    "classes": [{"class_id": 1}, {"class_id": 2}],
}

SMALL_TRAIN = {
    "net": {"trunk_widths": [16], "head": "cls"},
    "train": {
        "batch_size": 16,
        "positive_fraction": 1.0,
        "total_iters": 150,
        "decay_at": [100],
        "log_every": 50,
    },
    "loss": {"kind": "classification"},
}


@pytest.fixture(scope="module")
def small_bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg = _write_yaml(root / "gen.yaml", {"seed": 0, "dataset": SMALL_DATASET})
    out = root / "bench"
    assert entry(["generate", "--config", cfg, "--out", str(out)]) == 0
    return {"root": root, "gen_cfg": cfg, "manifest": out / "manifest.json", "dir": out}


@pytest.fixture(scope="module")
def small_ckpt(small_bench):
    root = small_bench["root"]
    doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
    cfg = _write_yaml(root / "train.yaml", doc)
    out = root / "run"
    assert entry(["train", "--config", cfg, "--out", str(out)]) == 0
    dets = root / "dets.txt"
    ckpt = out / "checkpoint.txt"
    assert entry(["predict", str(ckpt), str(small_bench["manifest"]), "--out", str(dets)]) == 0
    return {"cfg": cfg, "ckpt": ckpt, "dir": out, "dets": dets}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline at low noise: enough azimuth coverage that a joint
    classification head resolves most test poses at 24 bins."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = _write_yaml(
        root / "gen.yaml",
        {
            "seed": 0,
            "dataset": {
                "feature_dim": 16,
                "noise_sigma": 0.01,
                "n_train_scenes": 300,
                "n_test_scenes": 30,
                "classes": [{"class_id": 1}, {"class_id": 2}],
            },
        },
    )
    bench = root / "bench"
    assert entry(["generate", "--config", gen_cfg, "--out", str(bench)]) == 0
    train_cfg = _write_yaml(
        root / "train.yaml",
        {
            "seed": 0,
            "data": str(bench / "manifest.json"),
            "net": {"trunk_widths": [128], "head": "joint_cls"},
            "train": {"total_iters": 6000, "decay_at": [4000]},
            "loss": {"kind": "joint_classification"},
        },
    )
    run = root / "run"
    assert entry(["train", "--config", train_cfg, "--out", str(run)]) == 0
    dets = root / "dets.txt"
    assert (
        entry(
            ["predict", str(run / "checkpoint.txt"), str(bench / "manifest.json"),
             "--config", train_cfg, "--out", str(dets)]
        )
        == 0
    )
    report = root / "report.json"
    assert (
        entry(
            ["eval", str(bench / "test_gt.txt"), str(dets), "--out", str(report)]
        )
        == 0
    )
    return {
        "root": root,
        "gen_cfg": gen_cfg,
        "train_cfg": train_cfg,
        "bench": bench,
        "ckpt": run / "checkpoint.txt",
        "dets": dets,
        "report": report,
    }


# json.dumps(load_run_config(None), sort_keys=True): the default run config
# as manifests and checkpoint headers echo it.
DEFAULT_CONFIG = (
    '{"data": null, "dataset": {"backgrounds_per_scene": 8, "classes": null,'
    ' "feature_dim": 32, "features_binary": false, "gt_size_range": [0.15, 0.4],'
    ' "jitter": 0.15, "n_test_scenes": 100, "n_train_scenes": 200,'
    ' "noise_sigma": 0.25, "objects_per_scene": [1, 3], "proposals_per_gt": 1},'
    ' "eval": {"bins": [4, 8, 16, 24], "iou": 0.5, "rule": "allpoints"},'
    ' "loss": {"delta": 1.0, "kind": "classification", "lam": 1.0, "sigma": null},'
    ' "net": {"head": "cls", "n_bins": 24, "n_dims": 3, "seed": 0, "split_depth": 1,'
    ' "trunk_widths": [64]}, "out_dir": null, "predict": {"score_floor": 0.0,'
    ' "split": "test"}, "seed": 0, "train": {"batch_size": 128, "checkpoint_every": 0,'
    ' "decay_at": [2000], "flip_augment": true, "log_every": 100, "lr": 0.001,'
    ' "lr_decay_factor": 10.0, "momentum": 0.9, "positive_fraction": 0.25, "seed": 0,'
    ' "total_iters": 3000, "weight_decay": 0.0005}}'
)


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {"sede": 3})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown config key: sede" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {"net": {"depth": 3}})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown config key: net.depth" in capsys.readouterr().err

    def test_unknown_class_spec_key(self, tmp_path, capsys):
        cfg = _write_yaml(
            tmp_path / "c.yaml",
            {"dataset": {"classes": [{"class_id": 1, "symmetry": 2}]}},
        )
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown class spec key: symmetry" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("dataset: [unclosed\n")
        assert entry(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    def test_top_level_not_mapping(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("- a list\n")
        with pytest.raises(ConfigError, match="mapping at the top level"):
            load_run_config(str(cfg))

    def test_not_utf8_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"seed: 0\n\n# caf\xff\n")
        with pytest.raises(ConfigError, match=r"c.yaml:3: not utf-8 text"):
            load_run_config(str(cfg))

    def test_default_config_is_pinned(self):
        """Each section takes its defaults from what it configures, so a
        changed library default changes the echo of every run: this shows it."""
        assert json.dumps(load_run_config(None), sort_keys=True) == DEFAULT_CONFIG
        cfg = json.loads(DEFAULT_CONFIG)
        cfg["seed"] = cfg["net"]["seed"] = cfg["train"]["seed"] = 7
        assert json.dumps(load_run_config(None, seed_override=7), sort_keys=True) \
            == json.dumps(cfg, sort_keys=True)

    def test_seed_flows_into_net_and_train(self, tmp_path):
        cfg = load_run_config(None, seed_override=5)
        assert cfg["net"]["seed"] == 5 and cfg["train"]["seed"] == 5
        path = _write_yaml(tmp_path / "c.yaml", {"net": {"seed": 9}})
        cfg = load_run_config(path, seed_override=5)
        assert cfg["net"]["seed"] == 9 and cfg["train"]["seed"] == 5

    def test_generate_needs_out(self, capsys):
        assert entry(["generate"]) == 2
        assert "no output location" in capsys.readouterr().err

    def test_train_needs_data(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {"seed": 0})
        assert entry(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config needs 'data'" in capsys.readouterr().err


class TestCodec:
    @staticmethod
    def _round_trip_deg(out):
        line = next(l for l in out.splitlines() if "round trip" in l)
        return float(line.split("=")[1].split()[0])

    def test_front_3d(self, capsys):
        assert entry(["codec", "0", "3d"]) == 0
        out = capsys.readouterr().out
        assert "[0.5, 1, 0.5]" in out
        assert abs(self._round_trip_deg(out)) < 1e-9

    def test_quarter_turn_2d(self, capsys):
        assert entry(["codec", "90", "2d"]) == 0
        assert self._round_trip_deg(capsys.readouterr().out) == pytest.approx(90, abs=1e-9)


class TestGenerate:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = _write_yaml(tmp_path / "gen.yaml", {"seed": 3, "dataset": SMALL_DATASET})
        for d in ("a", "b"):
            assert entry(["generate", "--config", cfg, "--out", str(tmp_path / d)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "manifest.json" in names and "train_data.txt" in names
        for name in names:
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name), name

    def test_seed_override_changes_data(self, tmp_path):
        cfg = _write_yaml(tmp_path / "gen.yaml", {"seed": 0, "dataset": SMALL_DATASET})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert entry(["generate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "b")]) == 0
        assert _read(tmp_path / "a" / "train_data.txt") != _read(tmp_path / "b" / "train_data.txt")

    def test_counts_reported(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "gen.yaml", {"seed": 0, "dataset": SMALL_DATASET})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "train: 8 scenes" in out and "test: 4 scenes" in out

    @pytest.mark.parametrize("binary, n_bytes", [(False, 39667), (True, 28699)])
    def test_traced_bytes_written(self, tmp_path, binary, n_bytes):
        """The benchmark's count pass weighs what generate writes by the
        bytes it staged: the size of the files on disk, and the count taken
        when both splits were made before any file was staged."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import tracing
            import worker
        finally:
            sys.path.pop(0)
        modules = {m: importlib.import_module(f"viewbench.{m}") for m in worker.MODULES}
        cfg = _write_yaml(tmp_path / "gen.yaml", {
            "seed": 0, "dataset": {**SMALL_DATASET, "features_binary": binary},
        })
        installer, counter = tracing.Installer(), tracing.Counter()
        counter.install(installer, modules)
        try:
            assert entry(["generate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        finally:
            installer.restore()
        on_disk = sum(p.stat().st_size for p in (tmp_path / "b").iterdir())
        assert counter.totals()["records.bytes_written"] == on_disk == n_bytes

    def test_failed_regenerate_keeps_the_old_set(self, small_bench, tmp_path, capsys):
        """Regenerating another seed over a benchmark whose test data file
        cannot be replaced exits 2 and leaves every old file's bytes."""
        out = tmp_path / "bench"
        assert entry(["generate", "--config", small_bench["gen_cfg"], "--out", str(out)]) == 0
        (out / "test_data.txt").unlink()
        (out / "test_data.txt").mkdir()
        before = {p.name: _read(p) for p in out.iterdir() if p.is_file()}
        argv = ["generate", "--config", small_bench["gen_cfg"], "--seed", "1", "--out", str(out)]
        assert entry(argv) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert {p.name: _read(p) for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, "test_data.txt"])


class TestTrain:
    def test_reruns_byte_identical(self, small_bench, tmp_path):
        doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
        cfg = _write_yaml(tmp_path / "t.yaml", doc)
        for d in ("a", "b"):
            assert entry(["train", "--config", cfg, "--out", str(tmp_path / d)]) == 0
        for name in ("checkpoint.txt", "train_log.txt"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name), name

    def test_lr_zero_freezes_loss(self, small_bench, tmp_path):
        doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
        doc["train"] = dict(doc["train"], lr=0.0)
        cfg = _write_yaml(tmp_path / "t.yaml", doc)
        assert entry(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        rows = [
            line.split()
            for line in (tmp_path / "run" / "train_log.txt").read_text().splitlines()
            if not line.startswith("#")
        ]
        losses = [float(r[2]) for r in rows]
        assert len(losses) >= 3
        assert max(losses) - min(losses) <= 1e-12 * max(1.0, abs(losses[0]))

    def test_divergence_exit_3(self, small_bench, tmp_path, capsys):
        doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
        doc["train"] = dict(doc["train"], lr=1e9)
        cfg = _write_yaml(tmp_path / "t.yaml", doc)
        with np.errstate(all="ignore"):
            assert entry(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert "diverged at iteration" in capsys.readouterr().err

    def test_periodic_checkpoints(self, small_bench, tmp_path):
        doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
        doc["train"] = dict(doc["train"], checkpoint_every=50)
        cfg = _write_yaml(tmp_path / "t.yaml", doc)
        assert entry(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert "checkpoint_000050.txt" in names
        assert "checkpoint_000100.txt" in names
        assert "checkpoint_000150.txt" not in names  # final state is checkpoint.txt
        assert "checkpoint.txt" in names

    def test_loss_head_mismatch_exit_2(self, small_bench, tmp_path, capsys):
        doc = {"seed": 0, "data": str(small_bench["manifest"]), **SMALL_TRAIN}
        doc["loss"] = {"kind": "regression"}
        cfg = _write_yaml(tmp_path / "t.yaml", doc)
        assert entry(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPredict:
    def test_score_floor_filters_everything(self, small_bench, small_ckpt, tmp_path):
        cfg = _write_yaml(
            tmp_path / "p.yaml", {"predict": {"score_floor": 1.1}}
        )
        out = tmp_path / "dets.txt"
        assert (
            entry(
                ["predict", str(small_ckpt["ckpt"]), str(small_bench["manifest"]),
                 "--config", cfg, "--out", str(out)]
            )
            == 0
        )
        text = out.read_text()
        assert text.startswith("#")
        assert len(parse_detections(text)) == 0

    def test_reruns_byte_identical(self, small_bench, small_ckpt, tmp_path):
        outs = []
        for d in ("a.txt", "b.txt"):
            out = tmp_path / d
            assert (
                entry(
                    ["predict", str(small_ckpt["ckpt"]), str(small_bench["manifest"]),
                     "--out", str(out)]
                )
                == 0
            )
            outs.append(_read(out))
        assert outs[0] == outs[1]

    def test_feature_dim_mismatch_exit_2(self, small_ckpt, tmp_path, capsys):
        ds = dict(SMALL_DATASET, feature_dim=12, n_train_scenes=2, n_test_scenes=2)
        cfg = _write_yaml(tmp_path / "g.yaml", {"seed": 0, "dataset": ds})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path / "bench")]) == 0
        assert (
            entry(
                ["predict", str(small_ckpt["ckpt"]),
                 str(tmp_path / "bench" / "manifest.json"),
                 "--out", str(tmp_path / "d.txt")]
            )
            == 2
        )
        assert "checkpoint expects 8-dim features" in capsys.readouterr().err

    def test_empty_split_writes_header_only(self, small_ckpt, tmp_path):
        ds = dict(SMALL_DATASET, n_test_scenes=0)
        cfg = _write_yaml(tmp_path / "g.yaml", {"seed": 0, "dataset": ds})
        assert entry(["generate", "--config", cfg, "--out", str(tmp_path / "bench")]) == 0
        out = tmp_path / "d.txt"
        assert (
            entry(
                ["predict", str(small_ckpt["ckpt"]), str(tmp_path / "bench" / "manifest.json"),
                 "--out", str(out)]
            )
            == 0
        )
        assert out.read_text() == DET_HEADER + "\n"


@pytest.fixture(scope="module")
def broken(small_bench, small_ckpt, tmp_path_factory):
    """Copies of the small benchmark and checkpoint, each with one defect."""
    root = tmp_path_factory.mktemp("broken")
    src = small_bench["dir"]
    out = {}

    def bench(name, mutate=None, binary=False):
        d = root / name
        if binary:
            cfg = _write_yaml(root / f"{name}.yaml", {
                "seed": 0, "dataset": {**SMALL_DATASET, "features_binary": True},
            })
            assert entry(["generate", "--config", cfg, "--out", str(d)]) == 0
        else:
            d.mkdir()
            for f in src.iterdir():
                (d / f.name).write_bytes(f.read_bytes())
        if mutate:
            mutate(d)
        out[name] = d / "manifest.json"

    def edit_manifest(fn):
        def mutate(d):
            doc = json.loads((d / "manifest.json").read_text())
            fn(doc)
            (d / "manifest.json").write_text(json.dumps(doc))
        return mutate

    def edit_lines(fn):
        def mutate(d):
            lines = (d / "test_data.txt").read_text().splitlines()
            fn(lines)
            (d / "test_data.txt").write_text("\n".join(lines) + "\n")
        return mutate

    def more_gts(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("scene "))
        tok = lines[i].split()
        lines[i] = " ".join(tok[:2] + [str(int(tok[2]) + 1), tok[3]])

    def gt_class_7(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("gt "))
        lines[i] = " ".join(["gt", "7", *lines[i].split()[2:]])

    def matched_past(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("prop "))
        tok = lines[i].split()
        lines[i] = " ".join(["prop", "9"] + tok[2:])

    def noise_seed(value):
        def fn(lines):
            i = next(i for i, l in enumerate(lines) if l.startswith("prop "))
            tok = lines[i].split()
            lines[i] = " ".join(tok[:3] + [value] + tok[4:])
        return fn

    def repeat_scene_id(lines):
        first, second = [i for i, l in enumerate(lines) if l.startswith("scene ")][:2]
        tok = lines[second].split()
        lines[second] = " ".join(["scene", lines[first].split()[1], *tok[2:]])

    def gt_degenerate(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("gt "))
        tok = lines[i].split()
        lines[i] = " ".join(tok[:4] + tok[2:4] + tok[6:])

    def edit_sidecar(fn):
        def mutate(d):
            path = d / "test_features.npy"
            np.save(path, fn(np.load(path)))
        return mutate

    def replace_sidecar(fn):
        def mutate(d):
            path = d / "test_features.npy"
            path.write_bytes(fn(path.read_bytes()))
        return mutate

    def first_nan(f):
        f = f.copy()
        f[0, 0] = np.nan
        return f

    def pickled(d):
        path = d / "test_features.npy"
        np.save(path, np.load(path).astype(object), allow_pickle=True)

    def renumber_class(doc):
        doc["class_specs"][1]["class_id"] = 3

    def set_spec_field(key, value):
        def fn(doc):
            doc["class_specs"][0][key] = value
        return edit_manifest(fn)

    bench("no_specs", edit_manifest(lambda doc: doc.pop("class_specs")))
    bench("spec_class_0", set_spec_field("class_id", 0))
    bench("spec_seed_negative", set_spec_field("seed", -1))
    bench("spec_harmonics_fraction", set_spec_field("n_harmonics", 3.5))
    bench("spec_dim_float", set_spec_field("feature_dim", 8.0))
    bench("spec_symmetry_fraction", set_spec_field("symmetry_order", 1.5))
    bench("spec_class_bool", set_spec_field("class_id", True))
    bench("spec_symmetry_overflow", set_spec_field("symmetry_order", 10**30))
    bench("specs_empty", edit_manifest(lambda doc: doc.update(class_specs=[])))
    bench("class_ids", edit_manifest(renumber_class))
    bench("no_splits", edit_manifest(lambda doc: doc.pop("splits")))
    for key in ("data", "seed", "n_proposals", "n_scenes", "n_gt"):
        bench(f"no_{key}", edit_manifest(lambda doc, k=key: doc["splits"]["test"].pop(k)))
    bench("n_gt_off", edit_manifest(lambda doc: doc["splits"]["test"].update(n_gt=9)))
    bench("spec_dims", set_spec_field("feature_dim", 16))
    bench("top_dim", edit_manifest(lambda doc: doc.update(feature_dim=7)))
    bench("scene_counts", edit_lines(more_gts))
    bench("matched_past", edit_lines(matched_past))
    bench("seed_negative", edit_lines(noise_seed("-1")))
    bench("seed_2_64", edit_lines(noise_seed(str(2**64))))
    bench("gt_class_7", edit_lines(gt_class_7))
    bench("scene_repeated", edit_lines(repeat_scene_id))
    bench("data_degenerate", edit_lines(gt_degenerate))
    bench("sidecar_width", edit_sidecar(lambda f: f[:, :-1]), binary=True)
    bench("sidecar_rows", edit_sidecar(lambda f: np.concatenate([f, f[:1]])), binary=True)
    bench("sidecar_empty", replace_sidecar(lambda data: b""), binary=True)
    bench("sidecar_garbage", replace_sidecar(lambda data: b"not a feature array\n"), binary=True)
    bench("sidecar_truncated", replace_sidecar(lambda data: data[:-8]), binary=True)
    bench("sidecar_pickled", pickled, binary=True)
    bench("sidecar_complex", edit_sidecar(lambda f: f * (1 + 1j)), binary=True)
    bench("sidecar_nan", edit_sidecar(first_nan), binary=True)
    # JSON nested deeper than the decoder's recursion limit
    bench("manifest_deep", lambda d: (d / "manifest.json").write_text("[" * 10**5 + "]" * 10**5))
    bench("train_garbage", lambda d: (d / "train_data.txt").write_text("garbage\n"))

    text = small_ckpt["ckpt"].read_text()
    for name, old, new in (
        ("ckpt_renamed", "layer head ", "layer heed "),
        ("ckpt_widths", '"trunk_widths": [16]', '"trunk_widths": [17]'),
        ("ckpt_huge", '"trunk_widths": [16]', '"trunk_widths": [1000000000]'),
    ):
        assert old in text
        out[name] = root / f"{name}.txt"
        out[name].write_text(text.replace(old, new))

    # a checkpoint whose first layer has a negative shape and 6 weights
    lines = text.splitlines()
    i = lines.index("layer trunk0 8 16")
    lines[i] = "layer trunk0 -2 -3"
    lines[i + 1] = " ".join(lines[i + 1].split()[:7])
    out["ckpt_negative"] = root / "ckpt_negative.txt"
    out["ckpt_negative"].write_text("\n".join(lines) + "\n")

    # checkpoints with a non-finite first value in a parameter row
    for name, tag, value in (("ckpt_nan", "w", "nan"), ("ckpt_inf", "vb", "-inf")):
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
        lines[i] = " ".join([tag, value, *lines[i].split()[2:]])
        out[name] = root / f"{name}.txt"
        out[name].write_text("\n".join(lines) + "\n")

    # record files whose second record has a class id below 1
    for name, src_path, class_id in (
        ("gt_class_0", small_bench["dir"] / "test_gt.txt", "0"),
        ("det_class_neg", small_ckpt["dets"], "-3"),
    ):
        lines = src_path.read_text().splitlines()
        tok = lines[2].split()
        lines[2] = " ".join([tok[0], class_id, *tok[2:]])
        out[name] = root / f"{name}.txt"
        out[name].write_text("\n".join(lines) + "\n")

    # record files whose second record has a degenerate box (x_max = x_min)
    for name, src_path in (
        ("gt_degenerate", small_bench["dir"] / "test_gt.txt"),
        ("det_degenerate", small_ckpt["dets"]),
    ):
        lines = src_path.read_text().splitlines()
        tok = lines[2].split()
        tok[4] = tok[2]
        lines[2] = " ".join(tok)
        out[name] = root / f"{name}.txt"
        out[name].write_text("\n".join(lines) + "\n")

    # files with a byte that is not UTF-8 (0xff) on a known line
    def insert_ff(path, lineno, after):
        lines = path.read_bytes().splitlines(keepends=True)
        assert after in lines[lineno - 1]
        lines[lineno - 1] = lines[lineno - 1].replace(after, after + b"\xff", 1)
        path.write_bytes(b"".join(lines))

    # a run config nested deeper than the YAML loader's recursion limit
    out["deep_config"] = root / "deep_config.yaml"
    out["deep_config"].write_text("a: " + "[" * 5000 + "]" * 5000 + "\n")

    out["utf8_config"] = root / "utf8_config.yaml"
    out["utf8_config"].write_bytes(b"seed: 0\n# caf\xff\n")
    bench("utf8_manifest", lambda d: insert_ff(d / "manifest.json", 2, b'"class_specs'))
    bench("utf8_data", lambda d: insert_ff(d / "test_data.txt", 2, b"scene "))
    for name, src_path, lineno, after in (
        ("utf8_gt", small_bench["dir"] / "test_gt.txt", 3, b""),
        ("utf8_det", small_ckpt["dets"], 3, b""),
        ("utf8_ckpt", small_ckpt["ckpt"], 2, b'"iteration'),
    ):
        out[name] = root / f"{name}.txt"
        out[name].write_bytes(src_path.read_bytes())
        insert_ff(out[name], lineno, after)
    return out


# A value of each ``train:`` key that only TrainConfig refuses, with the
# message that follows the key's name.
BAD_TRAIN_VALUES = (
    ("lr", -1, "must be >= 0, got -1"),
    ("momentum", 1.0, "must be in [0, 1), got 1.0"),
    ("weight_decay", -0.5, "must be >= 0, got -0.5"),
    ("batch_size", 0, "must be >= 1, got 0"),
    ("positive_fraction", 1.5, "must be in [0, 1], got 1.5"),
    ("total_iters", 0, "must be >= 1, got 0"),
    ("decay_at", [5, -1], "milestones must be >= 0, got (5, -1)"),
    ("lr_decay_factor", 0, "must be > 0, got 0"),
    ("log_every", 0, "must be >= 1, got 0"),
)

# net: fields that need no class roster, refused when the config loads
BAD_NET_VALUES = (
    ("trunk_widths", {"trunk_widths": [64, 0]}, "trunk widths must be >= 1, got (64, 0)"),
    ("head", {"head": "mlp"}, f"head must be one of {HEAD_KINDS}, got 'mlp'"),
    ("n_bins", {"n_bins": 1}, "n_bins must be >= 2, got 1"),
    ("n_dims", {"n_dims": 4}, "n_dims must be 2 or 3, got 4"),
    ("split_depth", {"head": "joint_reg", "split_depth": 2}, "split_depth must be in [0, 1], got 2"),
)


def _exit_code(argv):
    """Exit code of a command, whether entry returns it or argparse exits."""
    try:
        return entry(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "{gt}", "{gt}", "--bins", "4,x"], "not a list of integers: '4,x'"),
        (["eval", "{gt}", "{gt}", "--bins", ""], "not a list of integers: ''"),
        (["eval", "{gt}", "{gt}", "--bins", "8,1"], "bin counts must be >= 2, got '8,1'"),
        (
            ["predict", "{ckpt}", "{manifest}", "--config", "{val}", "--out", "{out}"],
            "predict.split must be 'train' or 'test', got 'val'",
        ),
        (
            ["generate", "--config", "{objects}", "--out", "{out}"],
            "config key dataset.objects_per_scene must be a list of 2 integers, got 2",
        ),
        (
            ["train", "--config", "{widths}", "--out", "{out}"],
            "config key net.trunk_widths must be a list of integers, got 'abc'",
        ),
        (
            ["train", "--config", "{iters}", "--out", "{out}"],
            "config key train.total_iters must be an integer, got 2.5",
        ),
        (
            ["train", "--config", "{decay}", "--out", "{out}"],
            "config key train.weight_decay must be a finite number, got nan",
        ),
        (
            ["generate", "--config", "{class_sigma}", "--out", "{out}"],
            "config key dataset.classes.noise_sigma must be a finite number, got inf",
        ),
        (["generate", "--seed", "-1", "--out", "{out}"], "seeds must be >= 0, got -1"),
        (["gradcheck", "--seed", "-2"], "seeds must be >= 0, got -2"),
        (
            ["train", "--config", "{train_seed}", "--out", "{out}"],
            "config key train.seed must be >= 0, got -3",
        ),
        (
            ["train", "--config", "{checkpoint_every}", "--out", "{out}"],
            "config key train.checkpoint_every must be >= 0, got -5",
        ),
        (
            ["generate", "--config", "{class_seed}", "--out", "{out}"],
            "seed must be >= 0, got -4",
        ),
        (
            ["predict", "{ckpt}", "{no_specs}", "--out", "{out}"],
            "manifest needs 'class_specs' as a list",
        ),
        (
            ["predict", "{ckpt}", "{spec_class_0}", "--out", "{out}"],
            "spec_class_0/manifest.json: class spec 0: class_id must be >= 1, got 0",
        ),
        (
            ["predict", "{ckpt}", "{spec_seed_negative}", "--out", "{out}"],
            "spec_seed_negative/manifest.json: class spec 0: seed must be >= 0, got -1",
        ),
        (
            ["train", "--config", "{spec_harmonics_train}", "--out", "{out}"],
            "spec_harmonics_fraction/manifest.json: class spec 0: n_harmonics must be an "
            "integer, got 3.5",
        ),
        (
            ["predict", "{ckpt}", "{spec_dim_float}", "--out", "{out}"],
            "spec_dim_float/manifest.json: class spec 0: feature_dim must be an integer, got 8.0",
        ),
        (
            ["predict", "{ckpt}", "{spec_symmetry_fraction}", "--out", "{out}"],
            "spec_symmetry_fraction/manifest.json: class spec 0: symmetry_order must be an "
            "integer, got 1.5",
        ),
        (
            ["predict", "{ckpt}", "{spec_class_bool}", "--out", "{out}"],
            "spec_class_bool/manifest.json: class spec 0: class_id must be an integer, got True",
        ),
        (
            ["predict", "{ckpt}", "{class_ids}", "--out", "{out}"],
            "class_specs ids must be 1..2, each once, got [1, 3]",
        ),
        (
            ["generate", "--config", "{class_symmetry_overflow}", "--out", "{out}"],
            "n_harmonics * symmetry_order must be <= 2**63 - 1, got "
            "3 * 1000000000000000000000000000000",
        ),
        (
            ["train", "--config", "{spec_symmetry_train}", "--out", "{out}"],
            "spec_symmetry_overflow/manifest.json: class spec 0: n_harmonics * symmetry_order "
            "must be <= 2**63 - 1, got 3 * 1000000000000000000000000000000",
        ),
        (
            ["generate", "--config", "{classes_empty}", "--out", "{out}"],
            "need at least one class spec",
        ),
        (
            ["predict", "{ckpt}", "{specs_empty}", "--out", "{out}"],
            "specs_empty/manifest.json: need at least one class spec",
        ),
        (
            ["generate", "--config", "{class_3}", "--out", "{out}"],
            "dataset.classes ids must be 1..1, each once, got [3]",
        ),
        (
            ["generate", "--config", "{class_twice}", "--out", "{out}"],
            "dataset.classes ids must be 1..2, each once, got [1, 1]",
        ),
        (
            ["generate", "--config", "{class_unnumbered}", "--out", "{out}"],
            "every dataset.classes entry needs a class_id",
        ),
        (
            ["eval", "{gt_class_0}", "{gt}", "--out", "{out}"],
            "gt_class_0.txt:3: class id must be >= 1, got 0",
        ),
        (
            ["eval", "{gt}", "{det_class_neg}", "--out", "{out}"],
            "det_class_neg.txt:3: class id must be >= 1, got -3",
        ),
        (
            ["predict", "{ckpt}", "{no_splits}", "--out", "{out}"],
            "manifest needs 'splits' as a mapping",
        ),
        *(
            (
                ["predict", "{ckpt}", "{no_%s}" % key, "--out", "{out}"],
                f"split 'test': manifest needs '{key}' as a",
            )
            for key in ("data", "seed", "n_proposals", "n_scenes", "n_gt")
        ),
        (
            ["predict", "{ckpt}", "{scene_counts}", "--out", "{out}"],
            "test_data.txt:2: scene",
        ),
        (
            ["predict", "{ckpt}", "{gt_class_7}", "--out", "{out}"],
            "test_data.txt:3: class id 7 has no class spec, the specs have ids [1, 2]",
        ),
        (
            ["predict", "{ckpt}", "{scene_repeated}", "--out", "{out}"],
            "scene test_00000 repeats the scene id of line 2",
        ),
        (
            ["predict", "{ckpt}", "{matched_past}", "--out", "{out}"],
            "matched_gt 9 is neither -1 nor one of the scene's",
        ),
        (
            ["predict", "{ckpt}", "{seed_negative}", "--out", "{out}"],
            "seed_negative/test_data.txt:6: noise seed must be in [0, 2**64), got -1",
        ),
        (
            ["predict", "{ckpt}", "{seed_2_64}", "--out", "{out}"],
            f"seed_2_64/test_data.txt:6: noise seed must be in [0, 2**64), got {2**64}",
        ),
        (
            ["predict", "{ckpt}", "{sidecar_width}", "--out", "{out}"],
            "sidecar rows must have 8 values, the sidecar has shape",
        ),
        (
            ["predict", "{ckpt}", "{sidecar_rows}", "--out", "{out}"],
            "sidecar rows, the sidecar has shape",
        ),
        *(
            (["predict", "{ckpt}", "{sidecar_%s}" % case, "--out", "{out}"],
             f"sidecar_{case}/test_features.npy: {message}")
            for case, message in (
                ("empty", "not a .npy array: "),
                ("garbage", "not a .npy array: "),
                ("truncated", "not a .npy array: "),
                ("pickled", "not a .npy array: Object arrays cannot be loaded"),
                ("complex", "features must be finite integers or floats"),
                ("nan", "features must be finite integers or floats"),
            )
        ),
        (
            ["predict", "{ckpt_nan}", "{manifest}", "--out", "{out}"],
            "ckpt_nan.txt:4: non-finite 'w' value",
        ),
        (
            ["predict", "{ckpt_inf}", "{manifest}", "--out", "{out}"],
            "ckpt_inf.txt:7: non-finite 'vb' value",
        ),
        (
            ["predict", "{ckpt_renamed}", "{manifest}", "--out", "{out}"],
            "layer heed 16 48 does not match the header's net, which has layer head 16 48",
        ),
        (
            ["predict", "{ckpt_widths}", "{manifest}", "--out", "{out}"],
            "layer trunk0 8 16 does not match the header's net, which has layer trunk0 8 17",
        ),
        (
            ["predict", "{ckpt_negative}", "{manifest}", "--out", "{out}"],
            "ckpt_negative.txt:3: layer trunk0 -2 -3 does not match the header's net, "
            "which has layer trunk0 8 16 here",
        ),
        (
            ["generate", "--config", "{utf8_config}", "--out", "{out}"],
            "utf8_config.yaml:2: not utf-8 text: invalid start byte",
        ),
        (
            ["predict", "{ckpt}", "{utf8_manifest}", "--out", "{out}"],
            "manifest.json:2: not utf-8 text: invalid start byte",
        ),
        (
            ["predict", "{ckpt}", "{utf8_data}", "--out", "{out}"],
            "test_data.txt:2: not utf-8 text: invalid start byte",
        ),
        (
            ["eval", "{utf8_gt}", "{gt}", "--out", "{out}"],
            "utf8_gt.txt:3: not utf-8 text: invalid start byte",
        ),
        (
            ["eval", "{gt}", "{utf8_det}", "--out", "{out}"],
            "utf8_det.txt:3: not utf-8 text: invalid start byte",
        ),
        (
            ["predict", "{utf8_ckpt}", "{manifest}", "--out", "{out}"],
            "utf8_ckpt.txt:2: not utf-8 text: invalid start byte",
        ),
        (
            ["eval", "{gt_degenerate}", "{gt}", "--out", "{out}"],
            "gt_degenerate.txt:3: degenerate box (",
        ),
        (
            ["eval", "{gt}", "{det_degenerate}", "--out", "{out}"],
            "det_degenerate.txt:3: degenerate box (",
        ),
        (
            ["predict", "{ckpt}", "{data_degenerate}", "--out", "{out}"],
            "test_data.txt:3: degenerate box (",
        ),
        (
            ["predict", "{ckpt}", "{n_gt_off}", "--out", "{out}"],
            "test_data.txt: counts disagree with the manifest: n_gt is 9 in the manifest, "
            "8 in the file",
        ),
        (
            ["predict", "{ckpt}", "{spec_dims}", "--out", "{out}"],
            "spec_dims/manifest.json: class specs disagree on feature_dim, got [16, 8]",
        ),
        (
            ["train", "--config", "{top_dim_train}", "--out", "{out}"],
            "top_dim/manifest.json: feature_dim 7 disagrees with the class specs' 8",
        ),
        (
            ["train", "--config", "{deep_manifest_train}", "--out", "{out}"],
            "manifest_deep/manifest.json: invalid JSON: maximum recursion depth exceeded",
        ),
        (
            ["generate", "--config", "{deep_config}", "--out", "{out}"],
            "deep_config.yaml: invalid YAML: maximum recursion depth exceeded",
        ),
        (
            ["generate", "--config", "{small_gen}", "--out", "{blocked}"],
            "Is a directory",
        ),
        (
            ["generate", "--config", "{test_split_fails}", "--out", "{out}"],
            "scene 0: no background box got IoU < 0.3",
        ),
        (
            ["generate", "--config", "{features_overflow}", "--out", "{out}"],
            "drew features that are not finite (noise_sigma 1.7e+308)",
        ),
        (
            ["train", "--config", "{loss_delta}", "--out", "{out}"],
            "config key loss.delta must be > 0, got -1",
        ),
        (
            ["train", "--config", "{widths_huge}", "--out", "{out}"],
            "trunk_widths [1000000000] and n_bins 24 give 57000000048 parameters; "
            "a net holds at most 16777216",
        ),
        (
            ["predict", "{ckpt_huge}", "{manifest}", "--out", "{out}"],
            "ckpt_huge.txt:2: bad net config in the checkpoint header: trunk_widths [1000000000] "
            "and n_bins 24 give",
        ),
        *(
            (["generate", "--config", "{scenes_%d}" % n, "--out", "{out}"],
             f"{n} scenes of up to 3 objects, 1 proposals per object and 8 backgrounds give up "
             f"to {3 * n} ground truths and {n * 11 * 32} feature values (32 per proposal); "
             "a split holds at most 33554432 of either")
            for n in (3_000_000_000, 5_000_000_000)
        ),
        (
            ["train", "--config", "{widths_huge_garbage}", "--out", "{out}"],
            "config section net: trunk_widths [1000000000] and n_bins 24 give 57000000048 "
            "parameters",
        ),
        (
            ["generate", "--config", "{train_seed}", "--out", "{out}"],
            "train_seed.yaml: config key train.seed must be >= 0, got -3",
        ),
        (
            ["generate", "--config", "{test_scenes_huge}", "--out", "{out}"],
            "3000000000 scenes of up to 3 objects, 1 proposals per object and 8 backgrounds "
            "give up to 9000000000 ground truths and 1056000000000 feature values "
            "(32 per proposal); a split holds at most 33554432 of either",
        ),
        *(
            (["generate", "--config", "{train_%s}" % key, "--out", "{out}"],
             f"train_{key}.yaml: config key train.{key} {message}")
            for key, _, message in BAD_TRAIN_VALUES
        ),
        *(
            (["generate", "--config", "{net_%s}" % key, "--out", "{out}"],
             f"net_{key}.yaml: config section net: {message}")
            for key, _, message in BAD_NET_VALUES
        ),
    ],
    ids=[
        "bins-not-integers", "bins-empty", "bins-below-2", "predict-split",
        "objects-per-scene-scalar", "trunk-widths-string", "total-iters-fraction",
        "weight-decay-nan", "class-sigma-inf", "seed-flag-negative",
        "gradcheck-seed-negative", "train-seed-negative",
        "train-checkpoint-every-negative", "class-seed-negative",
        "manifest-no-class-specs", "manifest-spec-class-0", "manifest-spec-seed-negative",
        "manifest-spec-harmonics-fraction", "manifest-spec-feature-dim-float",
        "manifest-spec-symmetry-fraction", "manifest-spec-class-id-bool", "manifest-class-ids",
        "config-class-symmetry-overflow", "manifest-spec-symmetry-overflow",
        "config-classes-empty", "manifest-class-specs-empty", "config-class-id-3",
        "config-class-id-twice", "config-class-id-missing", "gt-class-0", "det-class-negative",
        "manifest-no-splits", "manifest-no-data",
        "manifest-no-seed", "manifest-no-n-proposals", "manifest-no-n-scenes", "manifest-no-n-gt",
        "scene-counts", "dataset-gt-class-7", "dataset-scene-id-repeated",
        "matched-gt-past", "noise-seed-negative", "noise-seed-2**64", "sidecar-width",
        "sidecar-extra-rows", "sidecar-empty", "sidecar-garbage", "sidecar-truncated",
        "sidecar-pickled", "sidecar-complex", "sidecar-nan", "checkpoint-nan", "checkpoint-inf",
        "checkpoint-renamed-layer", "checkpoint-widths", "checkpoint-negative-shape",
        "config-not-utf8", "manifest-not-utf8", "data-not-utf8", "gt-not-utf8",
        "det-not-utf8", "checkpoint-not-utf8", "gt-degenerate-box", "det-degenerate-box",
        "data-degenerate-box", "manifest-n-gt-off-by-one", "manifest-spec-feature-dims",
        "manifest-feature-dim", "manifest-nested-deep", "config-nested-deep",
        "generate-rename-fails", "generate-test-split-fails", "generate-features-overflow",
        "loss-delta-negative", "net-past-parameter-ceiling",
        "checkpoint-net-past-parameter-ceiling", "generate-3e9-scenes-past-split-ceiling",
        "generate-5e9-scenes-past-split-ceiling", "train-net-refused-before-split-read",
        "config-error-names-file", "generate-3e9-test-scenes-past-split-ceiling",
        *(f"generate-train-{key.replace('_', '-')}-refused-at-load"
          for key, _, _ in BAD_TRAIN_VALUES),
        *(f"generate-net-{key.replace('_', '-')}-refused-at-load" for key, _, _ in BAD_NET_VALUES),
    ],
)
def test_bad_input_exits_2(
    argv, message, small_bench, small_ckpt, broken, tmp_path, capsys, monkeypatch
):
    """Bad values are rejected where they enter, with a message and exit 2,
    and with no RuntimeWarning; a failed write leaves no temp file.  A
    split past the size ceiling is refused before any split is made."""
    blocked = tmp_path / "blocked"  # an output directory whose test_data.txt cannot be replaced
    (blocked / "test_data.txt").mkdir(parents=True)
    paths = {
        "gt": small_bench["dir"] / "test_gt.txt",
        "ckpt": small_ckpt["ckpt"],
        "manifest": small_bench["manifest"],
        "val": _write_yaml(tmp_path / "p.yaml", {"predict": {"split": "val"}}),
        "objects": _write_yaml(tmp_path / "o.yaml", {"dataset": {"objects_per_scene": 2}}),
        "class_seed": _write_yaml(
            tmp_path / "s.yaml", {"dataset": {"classes": [{"class_id": 1, "seed": -4}]}}
        ),
        "class_sigma": _write_yaml(
            tmp_path / "c.yaml",
            {"dataset": {"classes": [{"class_id": 1, "noise_sigma": float("inf")}]}},
        ),
        **{
            name: _write_yaml(tmp_path / f"{name}.yaml", {"dataset": {"classes": classes}})
            for name, classes in (
                ("class_3", [{"class_id": 3}]),
                ("class_twice", [{"class_id": 1}, {"class_id": 1}]),
                ("class_unnumbered", [{"seed": 1}]),
            )
        },
        "class_symmetry_overflow": _write_yaml(tmp_path / "so.yaml", {"dataset": {
            **SMALL_DATASET, "classes": [{"class_id": 1, "symmetry_order": 10**30}],
        }}),
        "classes_empty": _write_yaml(
            tmp_path / "e.yaml", {"dataset": {**SMALL_DATASET, "classes": []}}
        ),
        **{
            name: _write_yaml(
                tmp_path / f"{name}.yaml",
                {"data": str(small_bench["manifest"]), **SMALL_TRAIN, **section},
            )
            for name, section in (
                ("widths", {"net": {"trunk_widths": "abc", "head": "cls"}}),
                ("iters", {
                    "net": {"head": "joint_cls"},
                    "train": {"total_iters": 2.5},
                    "loss": {"kind": "joint_classification"},
                }),
                ("decay", {"train": {"weight_decay": float("nan")}}),
                ("train_seed", {"train": {"seed": -3}}),
                ("checkpoint_every", {"train": {"checkpoint_every": -5}}),
                ("loss_delta", {
                    "net": {"head": "reg"}, "loss": {"kind": "regression", "delta": -1},
                }),
                ("widths_huge", {"net": {"trunk_widths": [10**9], "head": "cls"}}),
            )
        },
        "widths_huge_garbage": _write_yaml(tmp_path / "widths_huge_garbage.yaml", {
            "data": str(broken["train_garbage"]), **SMALL_TRAIN,
            "net": {"trunk_widths": [10**9], "head": "cls"},
        }),
        "test_scenes_huge": _write_yaml(tmp_path / "test_scenes_huge.yaml", {"dataset": {
            "n_train_scenes": 20000, "n_test_scenes": 3_000_000_000,
        }}),
        **{
            f"train_{key}": _write_yaml(tmp_path / f"train_{key}.yaml", {"train": {key: value}})
            for key, value, _ in BAD_TRAIN_VALUES
        },
        **{
            f"net_{key}": _write_yaml(tmp_path / f"net_{key}.yaml", {"net": section})
            for key, section, _ in BAD_NET_VALUES
        },
        **{
            f"scenes_{n}": _write_yaml(
                tmp_path / f"scenes_{n}.yaml", {"dataset": {"n_train_scenes": n}}
            )
            for n in (3_000_000_000, 5_000_000_000)
        },
        "top_dim_train": _write_yaml(
            tmp_path / "top_dim_train.yaml", {"data": str(broken["top_dim"]), **SMALL_TRAIN}
        ),
        "spec_harmonics_train": _write_yaml(
            tmp_path / "spec_harmonics_train.yaml",
            {"data": str(broken["spec_harmonics_fraction"]), **SMALL_TRAIN},
        ),
        "spec_symmetry_train": _write_yaml(
            tmp_path / "spec_symmetry_train.yaml",
            {"data": str(broken["spec_symmetry_overflow"]), **SMALL_TRAIN},
        ),
        "deep_manifest_train": _write_yaml(
            tmp_path / "deep_manifest_train.yaml",
            {"data": str(broken["manifest_deep"]), **SMALL_TRAIN},
        ),
        "small_gen": small_bench["gen_cfg"],
        "blocked": blocked,
        "test_split_fails": _write_yaml(tmp_path / "t.yaml", {"dataset": {
            "n_train_scenes": 0, "n_test_scenes": 1, "gt_size_range": [0.9, 0.95],
            "backgrounds_per_scene": 2,
        }}),
        "features_overflow": _write_yaml(tmp_path / "f.yaml", {"seed": 0, "dataset": {
            "n_train_scenes": 6, "n_test_scenes": 3, "feature_dim": 4, "noise_sigma": 1.7e308,
        }}),
        **broken,
        "out": tmp_path / "out.txt",
    }
    generate, made = synthetic.generate, []

    def spy(*args, **kwargs):
        made.append(args[1])  # the split's scene count
        return generate(*args, **kwargs)

    monkeypatch.setattr(synthetic, "generate", functools.wraps(generate)(spy))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _exit_code([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not paths["out"].exists()
    assert not list(tmp_path.rglob("*.tmp"))
    if "a split holds at most" in message:
        assert made == []


GT_TEXT = """\
img0 1 0.0 0.0 0.2 0.2 10
img0 1 0.5 0.5 0.8 0.8 100
"""

# correct-bin match at full IoU, then a no-overlap false positive, then a
# second correct-bin match: precisions 1, 1/2, 2/3 at recalls 1/2, 1/2, 1
DET_TEXT = """\
img0 1 0.0 0.0 0.2 0.2 0.9 12
img0 1 0.3 0.0 0.45 0.2 0.8 50
img0 1 0.5 0.5 0.8 0.8 0.7 98
"""


class TestEval:
    def _eval(self, tmp_path, det_text, *extra):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "dets.txt"
        report = tmp_path / "report.json"
        gt.write_text(GT_TEXT)
        det.write_text(det_text)
        code = entry(["eval", str(gt), str(det), "--out", str(report), *extra])
        return code, report

    def test_replay_is_perfect(self, tmp_path):
        det_text = "\n".join(
            " ".join(line.split()[:6]) + " 1.0 " + line.split()[6]
            for line in GT_TEXT.splitlines()
        )
        code, report = self._eval(tmp_path, det_text + "\n")
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["mean_ap"] == 1.0
        assert all(v == 1.0 for v in doc["mean_avp"].values())

    def test_empty_detections_score_zero(self, tmp_path):
        code, report = self._eval(tmp_path, "# no detections\n")
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["mean_ap"] == 0.0
        assert all(v == 0.0 for v in doc["mean_avp"].values())

    def test_hand_worked_curve(self, tmp_path):
        code, report = self._eval(tmp_path, DET_TEXT)
        assert code == 0
        doc = json.loads(report.read_text())
        expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
        assert doc["per_class"]["1"]["ap"] == pytest.approx(expected, abs=1e-12)
        assert doc["per_class"]["1"]["avp"]["24"] == pytest.approx(expected, abs=1e-12)
        assert doc["per_class"]["1"]["avp"]["4"] == pytest.approx(expected, abs=1e-12)

    def test_eleven_point_rule(self, tmp_path):
        code, report = self._eval(tmp_path, DET_TEXT, "--ap-rule", "elevenpoint")
        assert code == 0
        doc = json.loads(report.read_text())
        expected = (6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0
        assert doc["per_class"]["1"]["ap"] == pytest.approx(expected, abs=1e-12)

    def test_bins_argument(self, tmp_path):
        code, report = self._eval(tmp_path, DET_TEXT, "--bins", "8,24")
        assert code == 0
        doc = json.loads(report.read_text())
        assert sorted(doc["mean_avp"]) == ["24", "8"]

    def test_reruns_byte_identical(self, tmp_path):
        _, first = self._eval(tmp_path, DET_TEXT)
        text1 = first.read_bytes()
        _, second = self._eval(tmp_path, DET_TEXT)
        assert text1 == second.read_bytes()

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        code, _ = self._eval(tmp_path, "img0 1 0 0 1 1 0.9 zero\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "dets.txt:1" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert entry(["eval", str(tmp_path / "no.txt"), str(tmp_path / "no2.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_in_missing_directory_names_the_target(self, tmp_path, capsys):
        gt, det = tmp_path / "gt.txt", tmp_path / "dets.txt"
        gt.write_text(GT_TEXT)
        det.write_text(DET_TEXT)
        target = tmp_path / "missing" / "r.json"
        assert entry(["eval", str(gt), str(det), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: '{target}'\n" in err
        assert ".tmp" not in err


class TestGradcheck:
    def test_passes(self, capsys):
        assert entry(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "gradient checks passed" in out

    def test_corrupt_fails_exit_3(self, capsys):
        assert entry(["gradcheck", "--seed", "0", "--corrupt"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_other_seed_same_verdict(self, capsys):
        assert entry(["gradcheck", "--seed", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_every_command_releases_freed_memory(monkeypatch, tmp_path, capsys):
    from viewbench import cli

    calls = []
    monkeypatch.setattr(cli, "_MALLOC_TRIM", lambda pad: calls.append(pad.value))
    assert entry(["codec", "0", "3d"]) == 0
    assert entry(["gradcheck", "--seed", "0", "--corrupt"]) == 3
    assert entry(["train", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert calls == [0, 0, 0]
    capsys.readouterr()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_malloc_trim_found_on_glibc():
    from viewbench import cli

    assert cli._MALLOC_TRIM is not None
    assert cli._MALLOC_TRIM(cli.ctypes.c_size_t(0)) in (0, 1)


class TestPipeline:
    def test_pose_quality_at_24_bins(self, pipeline):
        doc = json.loads(pipeline["report"].read_text())
        assert doc["mean_ap"] > 0.95
        assert doc["mean_avp"]["24"] > 0.9

    def test_detection_rows_cover_all_proposals(self, pipeline):
        _, test_ds, _ = read_benchmark(pipeline["bench"] / "manifest.json")
        dets = parse_detections(pipeline["dets"].read_text())
        assert len(dets) == test_ds.n_samples * test_ds.n_classes

    def test_joint_scores_are_global_softmax_shares(self, pipeline):
        """File scores must equal the class mass of a softmax over all
        (class, bin) slots plus background, and each proposal's class
        scores plus its background share must sum to 1."""
        ckpt = load_checkpoint(pipeline["ckpt"])
        _, test_ds, _ = read_benchmark(pipeline["bench"] / "manifest.json")
        feats = test_ds.features()
        out = forward(ckpt.params, ckpt.net, feats)
        n = feats.shape[0]
        m = np.maximum(np.max(out.obj.reshape(n, -1), axis=1), out.back)
        e = np.exp(out.obj - m[:, None, None])
        back_mass = np.exp(out.back - m)
        denom = back_mass + e.sum(axis=(1, 2))
        scores = e.sum(axis=2) / denom[:, None]

        dets = parse_detections(pipeline["dets"].read_text())
        file_scores = dets.scores.reshape(n, test_ds.n_classes)
        np.testing.assert_allclose(file_scores, scores, rtol=0, atol=1e-12)
        total = scores.sum(axis=1) + back_mass / denom
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-9)

    def test_predicted_angles_are_bin_centers(self, pipeline):
        dets = parse_detections(pipeline["dets"].read_text())
        step = 2 * math.pi / N_BINS
        for azimuth in dets.azimuths[:50].tolist():
            ratio = azimuth / step
            assert abs(ratio - round(ratio)) < 1e-9


# The run config's keys, by section, and a class entry's fields.
CONFIG_SECTIONS = {
    "dataset": ("feature_dim", "noise_sigma", "n_train_scenes", "n_test_scenes",
                "objects_per_scene", "proposals_per_gt", "backgrounds_per_scene", "jitter",
                "gt_size_range", "features_binary", "classes"),
    "net": ("trunk_widths", "head", "n_bins", "n_dims", "split_depth", "seed"),
    "train": ("lr", "momentum", "weight_decay", "batch_size", "positive_fraction",
              "total_iters", "decay_at", "lr_decay_factor", "flip_augment", "log_every", "seed",
              "checkpoint_every"),
    "loss": ("kind", "sigma", "lam", "delta"),
    "predict": ("score_floor", "split"),
    "eval": ("bins", "iou", "rule"),
}
CONFIG_TOP_KEYS = ("seed", "out_dir", "data", *CONFIG_SECTIONS)
CLASS_ENTRY_KEYS = ("class_id", "seed", "feature_dim", "n_harmonics", "symmetry_order",
                    "noise_sigma")
# the command that reads each top-level key and its section (None: none does)
CONFIG_COMMANDS = {"seed": "generate", "out_dir": "generate", "data": "train",
                   "dataset": "generate", "net": "train", "train": "train", "loss": "train",
                   "predict": "predict", "eval": None}
CONFIG_MUTATIONS = ("wrong-type", "bool", "fraction", "nan", "inf", "-inf", "null", "empty",
                    "other-length", "negative", "zero", "removed")
_CONFIG_REMOVED = object()
_CONFIG_DEEP = "@@deep@@"


def _config_key_paths():
    for key in CONFIG_TOP_KEYS:
        yield (key,)
    for section, keys in CONFIG_SECTIONS.items():
        for key in keys:
            yield (section, key)
    for key in CLASS_ENTRY_KEYS:
        yield ("dataset", "classes", 0, key)


# A list nested 10,000 deep is refused by the YAML loader before any key
# is read, so one case, at the deepest key, stands for every key: PyYAML
# scans such a list in time quadratic in its depth, 1.6 s a case.
CONFIG_CONTRACT = {
    ".".join(map(str, path)) + "-" + name: (path, name)
    for path in _config_key_paths() for name in CONFIG_MUTATIONS
} | {"dataset.classes.0.class_id-deep": (("dataset", "classes", 0, "class_id"), "deep")}


def _config_mutation(value, name):
    """The value a mutation puts in place of ``value``.  Sizes stay small:
    a huge scene count, iteration count or width would run without bound."""
    if name == "other-length":
        return value + value[-1:] if isinstance(value, list) and value else [1, 2]
    return {
        "wrong-type": 7 if isinstance(value, str) else "7", "bool": True, "fraction": 1.5,
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "null": None, "empty": [],
        "deep": _CONFIG_DEEP, "negative": -1, "zero": 0, "removed": _CONFIG_REMOVED,
    }[name]


def _mutated_config(base, path, name):
    """YAML text of ``base`` with the mutation ``name`` at ``path``."""
    doc = json.loads(json.dumps(base))
    *parents, key = path
    owner = doc
    for p in parents:
        owner = owner[p]
    value = _config_mutation(owner[key], name)
    if value is _CONFIG_REMOVED:
        del owner[key]
    else:
        owner[key] = value
    deep = "[" * 10_000 + "]" * 10_000
    return yaml.safe_dump(doc).replace(f"'{_CONFIG_DEEP}'", deep)


@pytest.fixture(scope="module")
def contract_config(tmp_path_factory):
    """A small run config that generates, trains and predicts, holding every
    key; the directory the cases write to, and the config's benchmark and
    checkpoint, which the mutated configs read."""
    root = tmp_path_factory.mktemp("config_contract")
    base = json.loads(json.dumps(load_run_config(None)))
    base["dataset"].update(feature_dim=4, n_train_scenes=6, n_test_scenes=3, classes=[
        {"class_id": 1, "seed": 0, "feature_dim": 4, "n_harmonics": 3, "symmetry_order": 1,
         "noise_sigma": 0.25},
        {"class_id": 2},
    ])
    base["net"]["trunk_widths"] = [4]
    base["train"].update(total_iters=5, positive_fraction=1.0, batch_size=8, decay_at=[3])
    cfg = root / "base.yaml"
    cfg.write_text(yaml.safe_dump(base))
    assert entry(["generate", "--config", str(cfg), "--out", str(root / "bench")]) == 0
    base["data"] = str(root / "bench" / "manifest.json")
    cfg.write_text(yaml.safe_dump(base))
    assert entry(["train", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return root, base, root / "run" / "checkpoint.txt"


class TestConfigContract:
    """Every key of the run config, and every field of a class entry,
    mutated: ``load_run_config`` raises a ConfigError that names the key
    (the file, for a value nested past the YAML loader's depth), or loads,
    and then the command that reads the key's section exits 0, 2 or 3
    with no traceback."""

    def test_table_covers_every_key(self):
        cfg = load_run_config(None)
        assert tuple(cfg) == CONFIG_TOP_KEYS
        assert {s: set(v) for s, v in cfg.items() if isinstance(v, dict)} == {
            s: set(keys) for s, keys in CONFIG_SECTIONS.items()
        }
        assert tuple(f.name for f in dataclasses.fields(ClassSpec)) == CLASS_ENTRY_KEYS
        assert set(CONFIG_COMMANDS) == set(CONFIG_TOP_KEYS)
        assert len(CONFIG_CONTRACT) == (9 + 38 + 6) * len(CONFIG_MUTATIONS) + 1

    @pytest.mark.parametrize("case", list(CONFIG_CONTRACT))
    def test_mutated(self, case, contract_config, capsys):
        root, base, ckpt = contract_config
        path, name = CONFIG_CONTRACT[case]
        out = root / case
        cfg = root / f"{case}.yaml"
        cfg.write_text(_mutated_config({**base, "out_dir": str(out)}, path, name))
        key = ".".join(str(p) for p in path if p != 0)  # dataset.classes.<field> for an entry
        try:
            load_run_config(str(cfg))
        except ConfigError as e:
            message = str(e)
            if name == "deep":
                assert message.startswith(f"{cfg}: invalid YAML"), message
            elif key == "dataset.classes.class_id":  # or the roster's ids, as a whole
                assert "dataset.classes" in message, message
            else:
                assert key in message, message
            return
        command = CONFIG_COMMANDS[path[0]]
        if command is None:
            return
        argv = {
            "generate": ["generate"],
            "train": ["train"],
            "predict": ["predict", str(ckpt), base["data"], "--out", f"{out}.txt"],
        }[command]
        code = entry([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: "), err
