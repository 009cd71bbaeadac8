"""Record files, dataset serialization, checkpoints, and reports.

All formats are line-delimited text, one record per line, with ``#``
comment headers.  Angles in the ground-truth and detection record files
are degrees printed at 12 significant digits (parsed back to radians);
dataset files keep azimuths in radians and every float at 17 significant
digits, which round-trips float64 exactly, so a parsed dataset is
bit-identical to the generated one.  Checkpoints store every parameter
as a C99 hex float (``float.hex()``), a lossless text encoding.

Every write goes through a temp-file-then-rename, so a failed run never
leaves a partially written artifact; multi-file outputs are staged
completely before any file is moved into place.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import secrets
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .angles import canonicalize
from .errors import FormatError, InvalidParameter
from .metrics import Box, Detection, EvalReport, GroundTruth
from .net import Dense, LogEntry, ModelParams, NetConfig, layer_plan
from .synthetic import ClassSpec, Dataset, Proposal, Scene

GT_HEADER = "# viewbench ground truth: image_id class_id x_min y_min x_max y_max azimuth_deg"
DET_HEADER = "# viewbench detections: image_id class_id x_min y_min x_max y_max score azimuth_pred_deg"
CHECKPOINT_MAGIC = "# viewbench checkpoint v1"
LOG_HEADER = "# viewbench training log: iteration lr loss loss_per_sample"


def _f(x: float) -> str:
    """Exact float64 round trip (17 significant digits)."""
    return format(float(x), ".17g")


def _deg(rad: float) -> str:
    """Angles in record files: degrees at 12 significant digits."""
    return format(math.degrees(rad), ".12g")


def _parse_float(token: str, where: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise FormatError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(v):
        raise FormatError(f"{where}: non-finite value {token!r}")
    return v


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{where}: not an integer: {token!r}") from None


def _data_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


# ---------------------------------------------------------------- records


def format_ground_truths(gts: Sequence[GroundTruth]) -> str:
    lines = [GT_HEADER]
    for g in gts:
        lines.append(
            f"{g.image_id} {g.class_id} {_f(g.box.x_min)} {_f(g.box.y_min)} "
            f"{_f(g.box.x_max)} {_f(g.box.y_max)} {_deg(g.azimuth)}"
        )
    return "\n".join(lines) + "\n"


def parse_ground_truths(text: str, path: str = "<string>") -> list[GroundTruth]:
    out = []
    for lineno, tok in _data_lines(text):
        where = f"{path}:{lineno}"
        if len(tok) != 7:
            raise FormatError(f"{where}: expected 7 fields, got {len(tok)}")
        box = Box(*(_parse_float(t, where) for t in tok[2:6]))
        az = canonicalize(math.radians(_parse_float(tok[6], where)))
        out.append(GroundTruth(tok[0], _parse_int(tok[1], where), box, az))
    return out


def format_detections(dets: Sequence[Detection]) -> str:
    lines = [DET_HEADER]
    for d in dets:
        lines.append(
            f"{d.image_id} {d.class_id} {_f(d.box.x_min)} {_f(d.box.y_min)} "
            f"{_f(d.box.x_max)} {_f(d.box.y_max)} {_f(d.score)} {_deg(d.azimuth)}"
        )
    return "\n".join(lines) + "\n"


def parse_detections(text: str, path: str = "<string>") -> list[Detection]:
    out = []
    for lineno, tok in _data_lines(text):
        where = f"{path}:{lineno}"
        if len(tok) != 8:
            raise FormatError(f"{where}: expected 8 fields, got {len(tok)}")
        box = Box(*(_parse_float(t, where) for t in tok[2:6]))
        score = _parse_float(tok[6], where)
        az = canonicalize(math.radians(_parse_float(tok[7], where)))
        out.append(Detection(tok[0], _parse_int(tok[1], where), box, score, az))
    return out


# ---------------------------------------------------------------- datasets


def format_dataset(ds: Dataset, inline_features: bool = True) -> str:
    """Scene/gt/prop lines; azimuths in radians for an exact round trip.
    Without inline features the prop lines stop after the box and the
    feature matrix travels in a binary sidecar."""
    lines = [
        f"# viewbench dataset: split={ds.split} feature_dim={ds.feature_dim} "
        f"inline_features={int(inline_features)}"
    ]
    for scene in ds.scenes:
        lines.append(f"scene {scene.image_id} {len(scene.gts)} {len(scene.proposals)}")
        for g in scene.gts:
            lines.append(
                f"gt {g.class_id} {_f(g.box.x_min)} {_f(g.box.y_min)} "
                f"{_f(g.box.x_max)} {_f(g.box.y_max)} {_f(g.azimuth)}"
            )
        for p in scene.proposals:
            base = (
                f"prop {p.matched_gt} {_f(p.iou)} {p.noise_seed} "
                f"{_f(p.box.x_min)} {_f(p.box.y_min)} {_f(p.box.x_max)} {_f(p.box.y_max)}"
            )
            if inline_features:
                base += " " + " ".join(_f(v) for v in p.feature)
            lines.append(base)
    return "\n".join(lines) + "\n"


def parse_dataset(
    text: str,
    class_specs: Sequence[ClassSpec],
    split: str,
    seed: int,
    path: str = "<string>",
    features: np.ndarray | None = None,
) -> Dataset:
    """Rebuild a Dataset from its text form (plus sidecar features if the
    file was written without inline features).

    Each scene must hold as many gt and prop lines as its scene line
    declares, a prop's ``matched_gt`` must be -1 or index one of them, and
    a sidecar must be (rows, feature_dim) with one row per prop line that
    reads it, no more."""
    class_specs = tuple(class_specs)
    feature_dim = class_specs[0].feature_dim
    scenes: list[Scene] = []
    cur_id: str | None = None
    scene_where = ""
    n_gt = n_prop = 0
    gts: list[GroundTruth] = []
    props: list[Proposal] = []
    next_feature = 0

    def flush():
        if cur_id is None:
            return
        if len(gts) != n_gt or len(props) != n_prop:
            raise FormatError(
                f"{scene_where}: scene {cur_id} declares {n_gt} gt and {n_prop} prop lines, "
                f"got {len(gts)} and {len(props)}"
            )
        scenes.append(Scene(cur_id, tuple(gts), tuple(props)))

    lineno = 0
    for lineno, tok in _data_lines(text):
        where = f"{path}:{lineno}"
        kind = tok[0]
        if kind == "scene":
            if len(tok) != 4:
                raise FormatError(f"{where}: scene line needs 4 fields, got {len(tok)}")
            flush()
            cur_id = tok[1]
            scene_where = where
            n_gt, n_prop = _parse_int(tok[2], where), _parse_int(tok[3], where)
            gts, props = [], []
        elif kind == "gt":
            if cur_id is None:
                raise FormatError(f"{where}: gt line before any scene line")
            if len(tok) != 7:
                raise FormatError(f"{where}: gt line needs 7 fields, got {len(tok)}")
            box = Box(*(_parse_float(t, where) for t in tok[2:6]))
            gts.append(
                GroundTruth(cur_id, _parse_int(tok[1], where), box, _parse_float(tok[6], where))
            )
        elif kind == "prop":
            if cur_id is None:
                raise FormatError(f"{where}: prop line before any scene line")
            if len(tok) not in (8, 8 + feature_dim):
                raise FormatError(
                    f"{where}: prop line needs 8 or {8 + feature_dim} fields, got {len(tok)}"
                )
            matched = _parse_int(tok[1], where)
            if not -1 <= matched < n_gt:
                raise FormatError(
                    f"{where}: matched_gt {matched} is neither -1 nor one of the "
                    f"scene's {n_gt} ground truths"
                )
            ov = _parse_float(tok[2], where)
            noise_seed = _parse_int(tok[3], where)
            box = Box(*(_parse_float(t, where) for t in tok[4:8]))
            if len(tok) == 8 + feature_dim:
                feat = np.array([_parse_float(t, where) for t in tok[8:]])
            else:
                if features is None:
                    raise FormatError(f"{where}: no inline features and no sidecar given")
                if features.ndim != 2 or features.shape[1] != feature_dim:
                    raise FormatError(
                        f"{where}: sidecar rows must have {feature_dim} values, "
                        f"the sidecar has shape {features.shape}"
                    )
                if next_feature >= features.shape[0]:
                    raise FormatError(f"{where}: sidecar has too few feature rows")
                feat = np.array(features[next_feature], dtype=np.float64)
                next_feature += 1
            props.append(Proposal(box, feat, matched, ov, noise_seed))
        else:
            raise FormatError(f"{where}: unknown line type {kind!r}")
    flush()
    if features is not None and features.shape[:1] != (next_feature,):
        raise FormatError(
            f"{path}:{lineno}: the prop lines read {next_feature} sidecar rows, "
            f"the sidecar has shape {features.shape}"
        )
    return Dataset(tuple(scenes), class_specs, feature_dim, split, seed)


# ---------------------------------------------------------------- manifest


def benchmark_manifest(
    train: Dataset,
    test: Dataset,
    features_binary: bool,
    config_echo: dict | None,
) -> dict:
    def split_entry(ds: Dataset, name: str) -> dict:
        entry = {
            "data": f"{name}_data.txt",
            "gt": f"{name}_gt.txt",
            "features": f"{name}_features.npy" if features_binary else None,
            "seed": ds.seed,
            "n_scenes": len(ds.scenes),
            "n_gt": len(ds.ground_truths()),
            "n_proposals": ds.n_samples,
        }
        return entry

    return {
        "format": "viewbench-benchmark",
        "version": 1,
        "feature_dim": train.feature_dim,
        "features_binary": features_binary,
        "class_specs": [asdict(s) for s in train.class_specs],
        "splits": {"train": split_entry(train, "train"), "test": split_entry(test, "test")},
        "config": config_echo,
    }


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def write_benchmark(
    out_dir: str | Path,
    train: Dataset,
    test: Dataset,
    config_echo: dict | None = None,
    features_binary: bool = False,
) -> Path:
    """Write both splits plus manifest; returns the manifest path."""
    out = Path(out_dir)
    manifest = benchmark_manifest(train, test, features_binary, config_echo)
    files: dict[Path, bytes] = {}
    for name, ds in (("train", train), ("test", test)):
        files[out / f"{name}_data.txt"] = format_dataset(
            ds, inline_features=not features_binary
        ).encode()
        files[out / f"{name}_gt.txt"] = format_ground_truths(ds.ground_truths()).encode()
        if features_binary:
            files[out / f"{name}_features.npy"] = _npy_bytes(ds.features())
    files[out / "manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    commit_files(files)
    return out / "manifest.json"


_KIND_NAMES = {list: "a list", dict: "a mapping", str: "a string", int: "an integer"}


def _field(doc, key: str, kind: type, where: str):
    """``doc[key]`` of a JSON mapping, which must be there with type ``kind``."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{where}: manifest needs {key!r} as {_KIND_NAMES[kind]}")
    return value


def read_benchmark(
    manifest_path: str | Path, split: str | None = None
) -> tuple[Dataset | None, Dataset | None, dict]:
    """Both splits of a benchmark and its manifest.  With ``split``
    ('train' or 'test') only that split is parsed and checked against the
    manifest's counts; the other comes back as None.  A manifest that
    lacks a key this needs is a FormatError."""
    if split not in (None, "train", "test"):
        raise InvalidParameter(f"split must be 'train' or 'test', got {split!r}")
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid JSON: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "viewbench-benchmark":
        raise FormatError(f"{manifest_path}: not a benchmark manifest")
    specs = []
    for d in _field(manifest, "class_specs", list, str(manifest_path)):
        try:
            specs.append(ClassSpec(**d))
        except TypeError:
            raise FormatError(f"{manifest_path}: bad class spec {d!r}") from None
    if not specs:
        raise FormatError(f"{manifest_path}: manifest has no class specs")
    splits = _field(manifest, "splits", dict, str(manifest_path))
    root = manifest_path.parent
    out = []
    for name in ("train", "test"):
        if split not in (None, name):
            out.append(None)
            continue
        where = f"{manifest_path} split {name!r}"
        entry = _field(splits, name, dict, str(manifest_path))
        data = _field(entry, "data", str, where)
        seed = _field(entry, "seed", int, where)
        n_proposals = _field(entry, "n_proposals", int, where)
        n_scenes = _field(entry, "n_scenes", int, where)
        features = None
        if entry.get("features"):
            features = np.load(root / _field(entry, "features", str, where), allow_pickle=False)
        data_path = root / data
        ds = parse_dataset(
            data_path.read_text(), specs, name, seed, path=str(data_path), features=features,
        )
        if ds.n_samples != n_proposals or len(ds.scenes) != n_scenes:
            raise FormatError(f"{data_path}: counts disagree with the manifest")
        out.append(ds)
    return out[0], out[1], manifest


# ---------------------------------------------------------------- checkpoints


@dataclass(frozen=True)
class Checkpoint:
    params: ModelParams
    net: NetConfig
    header: dict


def format_checkpoint(params: ModelParams, header: dict) -> str:
    """Header JSON line, then per layer its shape and the four parameter
    arrays as hex floats (row-major), which round-trip bit for bit."""
    lines = [CHECKPOINT_MAGIC, json.dumps(header, sort_keys=True)]
    for name, layer in params.layers.items():
        fan_in, fan_out = layer.w.shape
        lines.append(f"layer {name} {fan_in} {fan_out}")
        for tag, arr in (("w", layer.w), ("b", layer.b), ("vw", layer.vw), ("vb", layer.vb)):
            lines.append(tag + " " + " ".join(float.hex(float(v)) for v in arr.ravel()))
    return "\n".join(lines) + "\n"


def parse_checkpoint(text: str, path: str = "<string>") -> Checkpoint:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}:1: missing checkpoint magic line")
    try:
        header = json.loads(lines[1])
    except (IndexError, json.JSONDecodeError):
        raise FormatError(f"{path}:2: bad checkpoint header") from None
    layers: dict[str, Dense] = {}
    layer_lines: list[tuple[int, str, int, int]] = []
    i = 2
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        tok = lines[i].split()
        if tok[0] != "layer" or len(tok) != 4:
            raise FormatError(f"{path}:{i + 1}: expected a layer line, got {lines[i]!r}")
        name = tok[1]
        fan_in = _parse_int(tok[2], f"{path}:{i + 1}")
        fan_out = _parse_int(tok[3], f"{path}:{i + 1}")
        arrays = {}
        for j, tag in enumerate(("w", "b", "vw", "vb")):
            row = lines[i + 1 + j].split() if i + 1 + j < len(lines) else []
            if not row or row[0] != tag:
                raise FormatError(f"{path}:{i + 2 + j}: expected {tag!r} line")
            want = fan_in * fan_out if tag in ("w", "vw") else fan_out
            if len(row) - 1 != want:
                raise FormatError(
                    f"{path}:{i + 2 + j}: expected {want} values, got {len(row) - 1}"
                )
            try:
                vals = np.array([float.fromhex(t) for t in row[1:]])
            except ValueError:
                raise FormatError(f"{path}:{i + 2 + j}: bad hex float") from None
            arrays[tag] = vals.reshape((fan_in, fan_out) if tag in ("w", "vw") else (fan_out,))
        layers[name] = Dense(arrays["w"], arrays["b"], arrays["vw"], arrays["vb"])
        layer_lines.append((i + 1, name, fan_in, fan_out))
        i += 5
    net = _header_net(header, path)
    plan = layer_plan(net)
    for (lineno, *got), want in zip(layer_lines, plan):
        if tuple(got) != want:
            raise FormatError(
                f"{path}:{lineno}: layer {' '.join(map(str, got))} does not match the "
                f"header's net, which has layer {' '.join(map(str, want))} here"
            )
    if len(layer_lines) != len(plan):
        raise FormatError(
            f"{path}: the header's net has {len(plan)} layers, the file {len(layer_lines)}"
        )
    return Checkpoint(ModelParams(layers), net, header)


def _header_net(header, path: str) -> NetConfig:
    net = header.get("net") if isinstance(header, dict) else None
    if not isinstance(net, dict):
        raise FormatError(f"{path}:2: checkpoint header lacks the net config")
    try:
        return NetConfig(**net)
    except TypeError as e:
        raise FormatError(f"{path}:2: bad net config in the checkpoint header: {e}") from None


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    cfg: NetConfig,
    iteration: int,
    extra: dict | None = None,
) -> None:
    header = {"net": asdict(cfg), "iteration": iteration}
    if extra:
        header.update(extra)
    atomic_write_text(path, format_checkpoint(params, header))


def load_checkpoint(path: str | Path) -> Checkpoint:
    return parse_checkpoint(Path(path).read_text(), path=str(path))


# ---------------------------------------------------------------- logs, reports


def format_train_log(entries: Sequence[LogEntry]) -> str:
    lines = [LOG_HEADER]
    for e in entries:
        lines.append(f"{e.iteration} {_f(e.lr)} {_f(e.loss)} {_f(e.loss_per_sample)}")
    return "\n".join(lines) + "\n"


def format_eval_report(report: EvalReport, echo: dict | None = None) -> str:
    doc = {
        "mean_ap": report.mean_ap,
        "mean_avp": {str(k): v for k, v in report.mean_avp.items()},
        "per_class": {
            str(c): {
                "ap": m.ap,
                "avp": {str(k): v for k, v in m.avp.items()},
                "n_gt": m.n_gt,
            }
            for c, m in report.per_class.items()
        },
        "config": echo,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- writing


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def _discard(tmps: Iterable[str]) -> None:
    for tmp in tmps:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _stage(path: Path, data: bytes) -> str:
    """Write ``data`` to a new temp file beside ``path`` and return its
    name.  The file is created with mode 0o666 less the umask, as a plain
    open() would make it (mkstemp's 0o600 would survive the rename); on
    failure it is removed."""
    tmp = str(path.parent / f"{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
    except BaseException:
        _discard([tmp])
        raise
    return tmp


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write to a temp file in the target directory, then rename over the
    destination; a failure never leaves a partial file at ``path``."""
    path = Path(path)
    tmp = _stage(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _discard([tmp])
        raise


def commit_files(files: dict[Path, bytes]) -> None:
    """Stage every file, then rename all: either the whole set lands or,
    on any failure while staging, nothing does."""
    staged: list[tuple[str, Path]] = []
    try:
        for path, data in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append((_stage(path, data), path))
    except BaseException:
        _discard(tmp for tmp, _ in staged)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)
