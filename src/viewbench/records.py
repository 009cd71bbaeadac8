"""Record files, dataset serialization, checkpoints, and reports.

All formats are line-delimited text, one record per line, with ``#``
comment headers.  Angles in the ground-truth and detection record files
are degrees printed at 12 significant digits (parsed back to radians);
dataset files keep azimuths in radians and every float at 17 significant
digits, which round-trips float64 exactly, so a parsed dataset is
bit-identical to the generated one.  Checkpoints store every parameter
as a C99 hex float (``float.hex()``), a lossless text encoding.

Writers build each line with one ``%`` template over Python floats
(``"%.17g" % x`` is the text of ``format(x, ".17g")``); a dataset prop
line appends its features, each formatted by ``"%.17g" %``, to the
template of its box.  Readers take a fast path on each line: unpack the
fields, convert them with ``float`` and ``int``, and check finiteness
once.  A line that fails any of that is read again by the checked path,
which converts field by field and raises a FormatError naming
``path:line`` and the first bad field, so the messages do not depend on
the fast path.  Class ids in record files must be at least 1.

Every write goes through a temp-file-then-rename, so a failed run never
leaves a partially written artifact; multi-file outputs are staged
completely before any file is moved into place.

A benchmark's data files are the largest artifacts, and no whole-text
copy of one is held.  ``write_benchmark`` streams each data file into its
staged temp file, encoding its lines a chunk of ``_CHUNK_CHARS``
characters at a time (``format_dataset`` joins the same lines into one
string).  ``read_benchmark`` and ``read_lines`` read a file one physical
line at a time, in the encoding ``Path.read_text`` uses, and split each
with ``str.splitlines``, so the parsers see exactly the lines, and name
exactly the line numbers, of ``read_text().splitlines()``.  The parsers
take either that text or such an iterable of lines.  Bytes that the
encoding cannot decode are a FormatError naming the file and the line.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import math
import os
import secrets
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, InvalidParameter
from .metrics import Box, Detection, EvalReport, GroundTruth
from .net import Dense, LogEntry, ModelParams, NetConfig, layer_plan
from .synthetic import ClassSpec, Dataset, Proposal, Scene

GT_HEADER = "# viewbench ground truth: image_id class_id x_min y_min x_max y_max azimuth_deg"
DET_HEADER = "# viewbench detections: image_id class_id x_min y_min x_max y_max score azimuth_pred_deg"
CHECKPOINT_MAGIC = "# viewbench checkpoint v1"
LOG_HEADER = "# viewbench training log: iteration lr loss loss_per_sample"


# Line templates: 17 significant digits round-trip float64 exactly; record
# files carry angles as degrees at 12.
_GT_LINE = "%s %s %.17g %.17g %.17g %.17g %.12g"
_DATA_GT_LINE = "gt %s %.17g %.17g %.17g %.17g %.17g"
_DATA_PROP_LINE = "prop %s %.17g %s %.17g %.17g %.17g %.17g"
_DET_BOX = "%.17g %.17g %.17g %.17g"
_DET_REST = "%s %s %s %.17g %.12g"  # a detection line around its formatted box
_FLOAT17 = "%.17g".__mod__  # one float at 17 significant digits
_LOG_LINE = "%s %.17g %.17g %.17g"

# Characters of text encoded and written per chunk of a streamed file.
_CHUNK_CHARS = 1 << 18


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


def _class_id(token: str, where: str) -> int:
    class_id = _parse_int(token, where)
    if class_id < 1:
        raise FormatError(f"{where}: class id must be >= 1, got {class_id}")
    return class_id


def _data_lines(source: str | Iterable[str]) -> Iterable[tuple[int, list[str]]]:
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        tok = line.split()
        if tok and tok[0][0] != "#":
            yield lineno, tok


def _undecodable(path: str | Path, encoding: str) -> FormatError:
    """The error for a file holding bytes that ``encoding`` cannot decode,
    naming the line of the first such byte."""
    data = Path(path).read_bytes()
    name = codecs.lookup(encoding).name
    try:
        data.decode(encoding)
    except UnicodeDecodeError as e:
        # a character after the prefix counts the line that holds the byte
        line = len((data[:e.start].decode(encoding, "replace") + ".").splitlines())
        return FormatError(f"{path}:{line}: not {name} text: {e.reason}")
    return FormatError(f"{path}: not {name} text")


def read_text(path: str | Path) -> str:
    """``Path(path).read_text()``; undecodable bytes are a FormatError."""
    with open(path) as fh:  # the default encoding, as read_text() opens it
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise _undecodable(path, fh.encoding) from None


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of ``read_text(path).splitlines()``, read one physical
    line at a time.  Text mode has turned ``\\r\\n`` and ``\\r`` into ``\\n``;
    ``splitlines`` splits each physical line at the other separators."""
    with open(path) as fh:
        try:
            for physical in fh:
                yield from physical.splitlines()
        except UnicodeDecodeError:
            raise _undecodable(path, fh.encoding) from None


# ---------------------------------------------------------------- records


def format_ground_truths(gts: Sequence[GroundTruth]) -> str:
    lines = [GT_HEADER]
    for g in gts:
        b = g.box
        lines.append(_GT_LINE % (
            g.image_id, g.class_id, b.x_min, b.y_min, b.x_max, b.y_max, math.degrees(g.azimuth)
        ))
    return "\n".join(lines) + "\n"


def _fast_ground_truth(tok: list[str]) -> GroundTruth | None:
    """The record of a well-formed line, or None to read it checked."""
    try:
        image_id, class_id, x0, y0, x1, y1, deg = tok
        class_id = int(class_id)
        x0, y0, x1, y1, deg = map(float, tok[2:])
    except ValueError:
        return None
    # a non-finite value makes the sum non-finite; a sum that overflows
    # only sends a good line to the checked path
    if class_id < 1 or not math.isfinite(x0 + y0 + x1 + y1 + deg):
        return None
    return GroundTruth(image_id, class_id, Box(x0, y0, x1, y1), math.radians(deg))


def _checked_ground_truth(tok: list[str], where: str) -> GroundTruth:
    if len(tok) != 7:
        raise FormatError(f"{where}: expected 7 fields, got {len(tok)}")
    box = Box(*(_parse_float(t, where) for t in tok[2:6]))
    az = math.radians(_parse_float(tok[6], where))
    return GroundTruth(tok[0], _class_id(tok[1], where), box, az)


def parse_ground_truths(text: str | Iterable[str], path: str = "<string>") -> list[GroundTruth]:
    out = []
    for lineno, tok in _data_lines(text):
        g = _fast_ground_truth(tok)
        out.append(g if g is not None else _checked_ground_truth(tok, f"{path}:{lineno}"))
    return out


def format_detections(dets: Sequence[Detection]) -> str:
    """Detection lines; the box of a run of detections that share one
    ``Box`` object (the classes of a proposal) is formatted once."""
    lines = [DET_HEADER]
    box = box_text = None
    for d in dets:
        if d.box is not box:
            box = d.box
            box_text = _DET_BOX % (box.x_min, box.y_min, box.x_max, box.y_max)
        lines.append(_DET_REST % (
            d.image_id, d.class_id, box_text, d.score, math.degrees(d.azimuth)
        ))
    return "\n".join(lines) + "\n"


def _fast_detection(tok: list[str]) -> Detection | None:
    """The record of a well-formed line, or None to read it checked."""
    try:
        image_id, class_id, x0, y0, x1, y1, score, deg = tok
        class_id = int(class_id)
        x0, y0, x1, y1, score, deg = map(float, tok[2:])
    except ValueError:
        return None
    if class_id < 1 or not math.isfinite(x0 + y0 + x1 + y1 + score + deg):
        return None
    return Detection(image_id, class_id, Box(x0, y0, x1, y1), score, math.radians(deg))


def _checked_detection(tok: list[str], where: str) -> Detection:
    if len(tok) != 8:
        raise FormatError(f"{where}: expected 8 fields, got {len(tok)}")
    box = Box(*(_parse_float(t, where) for t in tok[2:6]))
    score = _parse_float(tok[6], where)
    az = math.radians(_parse_float(tok[7], where))
    return Detection(tok[0], _class_id(tok[1], where), box, score, az)


def parse_detections(text: str | Iterable[str], path: str = "<string>") -> list[Detection]:
    out = []
    for lineno, tok in _data_lines(text):
        d = _fast_detection(tok)
        out.append(d if d is not None else _checked_detection(tok, f"{path}:{lineno}"))
    return out


# ---------------------------------------------------------------- datasets


def _dataset_lines(ds: Dataset, inline_features: bool) -> Iterator[str]:
    yield (
        f"# viewbench dataset: split={ds.split} feature_dim={ds.feature_dim} "
        f"inline_features={int(inline_features)}"
    )
    for scene in ds.scenes:
        yield f"scene {scene.image_id} {len(scene.gts)} {len(scene.proposals)}"
        for g in scene.gts:
            b = g.box
            yield _DATA_GT_LINE % (g.class_id, b.x_min, b.y_min, b.x_max, b.y_max, g.azimuth)
        for p in scene.proposals:
            b = p.box
            line = _DATA_PROP_LINE % (
                p.matched_gt, p.iou, p.noise_seed, b.x_min, b.y_min, b.x_max, b.y_max
            )
            if inline_features:
                # joined rather than one template over the line: a template's
                # growing buffer fragments the heap, which raised the peak RSS
                # of the pipeline benchmark by 7%; joined text has its exact size
                line += " " + " ".join(map(_FLOAT17, p.feature.tolist()))
            yield line


def format_dataset(ds: Dataset, inline_features: bool = True) -> str:
    """Scene/gt/prop lines; azimuths in radians for an exact round trip.
    Without inline features the prop lines stop after the box and the
    feature matrix travels in a binary sidecar."""
    return "\n".join(_dataset_lines(ds, inline_features)) + "\n"


def parse_dataset(
    text: str | Iterable[str],
    class_specs: Sequence[ClassSpec],
    split: str,
    seed: int,
    path: str = "<string>",
    features: np.ndarray | None = None,
) -> Dataset:
    """Rebuild a Dataset from its text form, or from the lines of it
    (plus sidecar features if the file was written without inline features).

    Each scene must hold as many gt and prop lines as its scene line
    declares, a gt's class id must be one of the class specs', a prop's
    ``matched_gt`` must be -1 or index one of the scene's gts, and a
    sidecar must be (rows, feature_dim) with one row per prop line that
    reads it, no more."""
    class_specs = tuple(class_specs)
    feature_dim = class_specs[0].feature_dim
    class_ids = {spec.class_id for spec in class_specs}
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

    # rows a prop line without inline features may read from a usable sidecar
    sidecar_rows = (
        features.shape[0]
        if features is not None and features.ndim == 2 and features.shape[1] == feature_dim
        else 0
    )

    def fast_gt(tok: list[str]) -> GroundTruth | None:
        """The ground truth of a well-formed gt line, or None to read it checked."""
        try:
            _, class_id, x0, y0, x1, y1, az = tok
            class_id = int(class_id)
            x0, y0, x1, y1, az = map(float, tok[2:])
        except ValueError:
            return None
        if cur_id is None or class_id not in class_ids:
            return None
        if not math.isfinite(x0 + y0 + x1 + y1 + az):
            return None
        return GroundTruth(cur_id, class_id, Box(x0, y0, x1, y1), az)

    def fast_prop(tok: list[str]) -> Proposal | None:
        """The proposal of a well-formed prop line, or None to read it checked."""
        nonlocal next_feature
        if cur_id is None or len(tok) < 8:
            return None
        try:
            matched = int(tok[1])
            ov = float(tok[2])
            noise_seed = int(tok[3])
            values = list(map(float, tok[4:]))
        except ValueError:
            return None
        if not -1 <= matched < n_gt or not math.isfinite(sum(values, ov)):
            return None
        if len(values) == 4 + feature_dim:
            feat = np.array(values[4:])
        elif len(values) == 4 and next_feature < sidecar_rows:
            feat = np.array(features[next_feature], dtype=np.float64)
            next_feature += 1
        else:
            return None
        return Proposal(Box(*values[:4]), feat, matched, ov, noise_seed)

    lineno = 0
    for lineno, tok in _data_lines(text):
        kind = tok[0]
        if kind == "prop":
            prop = fast_prop(tok)
            if prop is not None:
                props.append(prop)
                continue
        elif kind == "gt":
            gt = fast_gt(tok)
            if gt is not None:
                gts.append(gt)
                continue
        where = f"{path}:{lineno}"
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
            class_id = _parse_int(tok[1], where)
            if class_id not in class_ids:
                raise FormatError(
                    f"{where}: class id {class_id} has no class spec, the specs have ids "
                    f"{sorted(class_ids)}"
                )
            gts.append(GroundTruth(cur_id, class_id, box, _parse_float(tok[6], where)))
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
    files: dict[Path, bytes | LineStream] = {}
    for name, ds in (("train", train), ("test", test)):
        files[out / f"{name}_data.txt"] = LineStream(
            _dataset_lines(ds, inline_features=not features_binary)
        )
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
        manifest = json.loads(read_text(manifest_path))
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid JSON: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "viewbench-benchmark":
        raise FormatError(f"{manifest_path}: not a benchmark manifest")
    specs = []
    for i, d in enumerate(_field(manifest, "class_specs", list, str(manifest_path))):
        try:
            specs.append(ClassSpec(**d))
        except TypeError:
            raise FormatError(f"{manifest_path}: bad class spec {d!r}") from None
        except InvalidParameter as e:
            raise FormatError(f"{manifest_path}: class spec {i}: {e}") from None
    if not specs:
        raise FormatError(f"{manifest_path}: manifest has no class specs")
    ids = [spec.class_id for spec in specs]
    if set(ids) != set(range(1, len(ids) + 1)):
        raise FormatError(
            f"{manifest_path}: class_specs ids must be 1..{len(ids)}, each once, got {ids}"
        )
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
            read_lines(data_path), specs, name, seed, path=str(data_path), features=features,
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
    return parse_checkpoint(read_text(path), path=str(path))


# ---------------------------------------------------------------- logs, reports


def format_train_log(entries: Sequence[LogEntry]) -> str:
    lines = [LOG_HEADER]
    for e in entries:
        lines.append(_LOG_LINE % (e.iteration, e.lr, e.loss, e.loss_per_sample))
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


class LineStream:
    """A file's content given as lines, each written with a newline after
    it, encoded as UTF-8 and written a chunk of ``_CHUNK_CHARS`` characters
    at a time.  ``len()`` is the number of bytes written so far: the size
    of the file once it is staged.  A stream is written once."""

    def __init__(self, lines: Iterable[str]):
        self._lines = lines
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def write_to(self, fh) -> None:
        chunk: list[str] = []
        n = 0
        for line in self._lines:
            chunk.append(line)
            n += len(line) + 1
            if n >= _CHUNK_CHARS:
                self._write(fh, chunk)
                chunk, n = [], 0
        if chunk:
            self._write(fh, chunk)

    def _write(self, fh, chunk: list[str]) -> None:
        chunk.append("")  # the newline after the chunk's last line
        self._size += fh.write("\n".join(chunk).encode())


def _stage(path: Path, data: bytes | LineStream) -> str:
    """Write ``data`` to a new temp file beside ``path`` and return its
    name.  The file is created with mode 0o666 less the umask, as a plain
    open() would make it (mkstemp's 0o600 would survive the rename); on
    failure it is removed."""
    tmp = str(path.parent / f"{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if isinstance(data, LineStream):
                data.write_to(fh)
            else:
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


def commit_files(files: dict[Path, bytes | LineStream]) -> None:
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
