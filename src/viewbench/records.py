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
line with inline features takes the template of its feature count, made
once per count.  Readers read each line once, with ``float`` and
``int`` and one finiteness check of the sum of its floats (each float is
looked at only when the sum is not finite, so finite values whose sum
overflows still read).  Ground-truth, detection and dataset gt lines
share one read (a label, a class id, four box floats, then floats), and
each caller applies its class rule; prop lines have their own.  A refused
line goes to ``_diagnose``, which only raises: it walks the kind's column
table, ``(token position, check)`` pairs in reporting order, and raises
the first error, naming ``path:line`` and the bad field (or the
degenerate box).  Class ids in record files must be at least 1.  A
detection line whose box tokens equal those of the line before it (the
next class of a proposal) shares that line's Box.

Every write goes through a temp-file-then-rename, so a failed run never
leaves a partially written artifact; multi-file outputs are staged
completely before any file is moved into place.

A benchmark's data files are the largest artifacts, and no whole-text
copy of one is held.  ``write_benchmark`` streams each data file into its
staged temp file, encoding its lines a chunk of ``_CHUNK_CHARS``
characters at a time (``format_dataset`` joins the same lines into one
string); ``write_detections`` streams a detection file the same way.
Nor are two splits held at once: ``write_benchmark`` makes and stages the
splits one at a time, each when its first file is staged, lets each go
after its last file, and stages the manifest last, from the seed and
counts it recorded of each split.
``read_benchmark`` and ``read_lines`` read a file one physical
line at a time, in the encoding ``Path.read_text`` uses, and split each
with ``str.splitlines``, so the parsers see exactly the lines, and name
exactly the line numbers, of ``read_text().splitlines()``.  The parsers
take either that text or such an iterable of lines.  Bytes that the
encoding cannot decode are a FormatError naming the file and the line.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import io
import json
import math
import os
import secrets
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, FormatError, InvalidParameter
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


def _checked_box(tokens: list[str], where: str) -> Box:
    coords = [_parse_float(t, where) for t in tokens]
    try:
        return Box(*coords)
    except InvalidParameter as e:
        raise FormatError(f"{where}: {e}") from None


def _int_check(ok: Callable[[int], bool], problem: Callable[[int], str]) -> Callable:
    """The check that a token is an integer that ``ok`` accepts;
    ``problem(value)`` is the error for one it refuses."""
    def check(token: str, where: str) -> None:
        value = _parse_int(token, where)
        if not ok(value):
            raise FormatError(f"{where}: {problem(value)}")
    return check


_CLASS_ID = _int_check((1).__le__, "class id must be >= 1, got {}".format)

# A column table holds a line kind's (token position, check) pairs, in the
# order in which their errors are reported.
_GT_COLUMNS = ((slice(2, 6), _checked_box), (6, _parse_float), (1, _CLASS_ID))
_DET_COLUMNS = ((slice(2, 6), _checked_box), (6, _parse_float), (7, _parse_float), (1, _CLASS_ID))


def _diagnose(tok: list[str], what: str, counts: tuple, columns: tuple, where: str) -> NoReturn:
    """Raise the error of a line that its read refused: a field count not
    in ``counts`` (``what`` words the message), or else the error of the
    first ``(position, check)`` in ``columns`` that fails on ``tok[position]``."""
    if len(tok) not in counts:
        raise FormatError(f"{where}: {what} {' or '.join(map(str, counts))} fields, got {len(tok)}")
    for position, check in columns:
        check(tok[position], where)
    raise AssertionError(f"{where}: a refused line passes every check")


def _finite(values: list[float]) -> bool:
    """Whether every value is finite.  One sum decides unless it is not
    finite; then each value is looked at, since finite values can overflow."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _read_box_line(tok: list[str], n_fields: int) -> tuple | None:
    """The class id, Box and last floats of a well-formed box line (a
    label, a class id, four box floats, then floats: ``n_fields`` in all),
    or None for ``_diagnose`` to explain."""
    if len(tok) != n_fields:
        return None
    try:
        class_id = int(tok[1])
        values = list(map(float, tok[2:]))
        if not _finite(values):
            return None
        box = Box(*values[:4])  # a degenerate box raises
    except (ValueError, InvalidParameter):
        return None
    return class_id, box, values[4:]


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


def _ground_truth_lines(gts: Sequence[GroundTruth]) -> Iterator[str]:
    yield GT_HEADER
    for g in gts:
        b = g.box
        yield _GT_LINE % (
            g.image_id, g.class_id, b.x_min, b.y_min, b.x_max, b.y_max, math.degrees(g.azimuth)
        )


def format_ground_truths(gts: Sequence[GroundTruth]) -> str:
    return "\n".join(_ground_truth_lines(gts)) + "\n"


def parse_ground_truths(text: str | Iterable[str], path: str = "<string>") -> list[GroundTruth]:
    out = []
    for lineno, tok in _data_lines(text):
        line = _read_box_line(tok, 7)
        if line is None or line[0] < 1:
            _diagnose(tok, "expected", (7,), _GT_COLUMNS, f"{path}:{lineno}")
        class_id, box, (deg,) = line
        out.append(GroundTruth(tok[0], class_id, box, math.radians(deg)))
    return out


def _detection_lines(dets: Sequence[Detection]) -> Iterator[str]:
    yield DET_HEADER
    box = box_text = None
    for d in dets:
        if d.box is not box:
            box = d.box
            box_text = _DET_BOX % (box.x_min, box.y_min, box.x_max, box.y_max)
        yield _DET_REST % (d.image_id, d.class_id, box_text, d.score, math.degrees(d.azimuth))


def format_detections(dets: Sequence[Detection]) -> str:
    """Detection lines; the box of a run of detections that share one
    ``Box`` object (the classes of a proposal) is formatted once."""
    return "\n".join(_detection_lines(dets)) + "\n"


def write_detections(path: str | Path, dets: Sequence[Detection]) -> None:
    """Write the text of ``format_detections(dets)`` to ``path``, streamed
    (see :class:`LineStream`)."""
    atomic_write_bytes(path, LineStream(_detection_lines(dets)))


def parse_detections(text: str | Iterable[str], path: str = "<string>") -> list[Detection]:
    """Detection records.  A line whose four box tokens equal those of the
    line before it (the classes of one proposal, as ``format_detections``
    writes them) shares that line's Box."""
    out = []
    box_tok = box = None  # the box tokens of the line before, and its Box
    for lineno, tok in _data_lines(text):
        line_box_tok = tok[2:6]
        if line_box_tok == box_tok:  # the box was read: read the class id, score, azimuth
            try:
                _, class_id, _, _, _, _, score, deg = tok
                class_id, score, deg = int(class_id), float(score), float(deg)
                ok = class_id >= 1 and (
                    math.isfinite(score + deg) or math.isfinite(score) and math.isfinite(deg)
                )
            except ValueError:
                ok = False
            if not ok:
                _diagnose(tok, "expected", (8,), _DET_COLUMNS, f"{path}:{lineno}")
        else:
            line = _read_box_line(tok, 8)
            if line is None or line[0] < 1:
                _diagnose(tok, "expected", (8,), _DET_COLUMNS, f"{path}:{lineno}")
            class_id, box, (score, deg) = line
            box_tok = line_box_tok
        out.append(Detection(tok[0], class_id, box, score, math.radians(deg)))
    return out


# ---------------------------------------------------------------- datasets


@functools.cache
def _inline_prop_line(n_features: int) -> str:
    """The template of a prop line with ``n_features`` inline features: the
    box template, a space, then the features joined by spaces (so a line
    with no features ends in a space)."""
    return _DATA_PROP_LINE + " " + " ".join(["%.17g"] * n_features)


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
            if inline_features:
                feature = p.feature.tolist()
                yield _inline_prop_line(len(feature)) % (
                    p.matched_gt, p.iou, p.noise_seed, b.x_min, b.y_min, b.x_max, b.y_max,
                    *feature,
                )
            else:
                yield _DATA_PROP_LINE % (
                    p.matched_gt, p.iou, p.noise_seed, b.x_min, b.y_min, b.x_max, b.y_max
                )


def format_dataset(ds: Dataset, inline_features: bool = True) -> str:
    """Scene/gt/prop lines; azimuths in radians for an exact round trip.
    Without inline features the prop lines stop after the box and the
    feature matrix travels in a binary sidecar."""
    return "\n".join(_dataset_lines(ds, inline_features)) + "\n"


def _read_prop_line(tok: list[str], counts: tuple, n_gt: int) -> tuple | None:
    """The matched gt, IoU, noise seed, Box and inline features (none if it
    reads a sidecar row) of a well-formed prop line of ``counts`` fields in a
    scene of ``n_gt`` ground truths, or None for ``_diagnose`` to explain."""
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

    # the rows a prop line without inline features may read from the
    # sidecar, and the error of such a line once there are none
    sidecar_rows, no_row = 0, "no inline features and no sidecar given"
    if features is not None and (features.ndim != 2 or features.shape[1] != feature_dim):
        no_row = (
            f"sidecar rows must have {feature_dim} values, the sidecar has shape {features.shape}"
        )
    elif features is not None:
        sidecar_rows, no_row = features.shape[0], "sidecar has too few feature rows"

    def feature_values(tokens: list[str], where: str) -> None:
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
            line = _read_prop_line(tok, prop_fields, n_gt)
            if line is None or not line[4] and next_feature >= sidecar_rows:
                _diagnose(tok, "prop line needs", prop_fields, prop_columns, f"{path}:{lineno}")
            matched, ov, noise_seed, box, feat = line
            if not feat:
                feat = features[next_feature]
                next_feature += 1
            props.append(Proposal(box, np.array(feat, dtype=np.float64), matched, ov, noise_seed))
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
    return Dataset(tuple(scenes), class_specs, feature_dim, split, seed)


# ---------------------------------------------------------------- manifest


@dataclass(frozen=True)
class _SplitSummary:
    """What a manifest records of a split: its seed and counts, and (taken
    from the train split) the feature dimension and class specs."""

    seed: int
    n_scenes: int
    n_gt: int
    n_proposals: int
    feature_dim: int
    class_specs: tuple[ClassSpec, ...]

    @classmethod
    def of(cls, ds: Dataset) -> _SplitSummary:
        n_gt = sum(len(scene.gts) for scene in ds.scenes)
        return cls(ds.seed, len(ds.scenes), n_gt, ds.n_samples, ds.feature_dim, ds.class_specs)


def _manifest(
    train: _SplitSummary, test: _SplitSummary, features_binary: bool, config_echo: dict | None
) -> dict:
    def split_entry(summary: _SplitSummary, name: str) -> dict:
        return {
            "data": f"{name}_data.txt",
            "gt": f"{name}_gt.txt",
            "features": f"{name}_features.npy" if features_binary else None,
            "seed": summary.seed,
            "n_scenes": summary.n_scenes,
            "n_gt": summary.n_gt,
            "n_proposals": summary.n_proposals,
        }

    return {
        "format": "viewbench-benchmark",
        "version": 1,
        "feature_dim": train.feature_dim,
        "features_binary": features_binary,
        "class_specs": [asdict(s) for s in train.class_specs],
        "splits": {"train": split_entry(train, "train"), "test": split_entry(test, "test")},
        "config": config_echo,
    }


def benchmark_manifest(
    train: Dataset,
    test: Dataset,
    features_binary: bool,
    config_echo: dict | None,
) -> dict:
    """The manifest ``write_benchmark`` writes for these two splits."""
    return _manifest(
        _SplitSummary.of(train), _SplitSummary.of(test), features_binary, config_echo
    )


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def _split_files(
    out: Path,
    name: str,
    source: Dataset | Callable[[], Dataset],
    features_binary: bool,
    summaries: dict[str, _SplitSummary],
) -> dict[Path, ByteStream]:
    """A split's files as streams.  The split is made (a callable ``source``
    called) when the first of them is staged, and its summary put in
    ``summaries``.  Only the streams' generators reach it, and a generator
    lets go of its frame once exhausted, so the split goes once the last of
    its files is staged."""
    ds: Dataset | None = None

    def dataset() -> Dataset:
        nonlocal ds
        if ds is None:
            ds = source() if callable(source) else source
            summaries[name] = _SplitSummary.of(ds)
        return ds

    def data_lines() -> Iterator[str]:
        yield from _dataset_lines(dataset(), inline_features=not features_binary)

    def gt_lines() -> Iterator[str]:
        yield from _ground_truth_lines(dataset().ground_truths())

    def feature_chunks() -> Iterator[bytes]:
        yield _npy_bytes(dataset().features())

    files = {
        out / f"{name}_data.txt": LineStream(data_lines()),
        out / f"{name}_gt.txt": LineStream(gt_lines()),
    }
    if features_binary:
        files[out / f"{name}_features.npy"] = ByteStream(feature_chunks())
    return files


def write_benchmark(
    out_dir: str | Path,
    train: Dataset | Callable[[], Dataset],
    test: Dataset | Callable[[], Dataset],
    config_echo: dict | None = None,
    features_binary: bool = False,
) -> Path:
    """Write both splits plus manifest; returns the manifest path.

    Each split is given as a Dataset or as a zero-argument callable that
    makes one.  The splits are made and staged one at a time, train first:
    a split is made when its first file is staged and let go after its
    last, so two splits given as callables are never in memory together.
    The manifest is staged last, from the seed and counts recorded of each
    split, and every file lands through one ``commit_files`` call."""
    out = Path(out_dir)
    summaries: dict[str, _SplitSummary] = {}

    def manifest_lines() -> Iterator[str]:
        doc = _manifest(summaries["train"], summaries["test"], features_binary, config_echo)
        yield json.dumps(doc, indent=2, sort_keys=True)

    files = {
        **_split_files(out, "train", train, features_binary, summaries),
        **_split_files(out, "test", test, features_binary, summaries),
        out / "manifest.json": LineStream(manifest_lines()),
    }
    commit_files(files)
    return out / "manifest.json"


# The counts a manifest records of each split, checked against its files.
_COUNT_KEYS = ("n_scenes", "n_gt", "n_proposals")

_KIND_NAMES = {list: "a list", dict: "a mapping", str: "a string", int: "an integer"}


def _field(doc, key: str, kind: type, where: str):
    """``doc[key]`` of a JSON mapping, which must be there with type ``kind``."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{where}: manifest needs {key!r} as {_KIND_NAMES[kind]}")
    return value


def _read_sidecar(path: Path) -> np.ndarray:
    """A feature sidecar: a .npy array of integers or floats, all finite."""
    try:
        with open(path, "rb") as fh:
            features = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as e:
        raise FormatError(f"{path}: not a .npy array: {e}") from None
    if features.dtype.kind not in "iuf" or not np.isfinite(features).all():
        raise FormatError(f"{path}: features must be finite integers or floats")
    return features


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
    dims = [spec.feature_dim for spec in specs]
    if len(set(dims)) != 1:
        raise FormatError(f"{manifest_path}: class specs disagree on feature_dim, got {dims}")
    feature_dim = _field(manifest, "feature_dim", int, str(manifest_path))
    if feature_dim != dims[0]:
        raise FormatError(
            f"{manifest_path}: feature_dim {feature_dim} disagrees with the class specs' {dims[0]}"
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
        counts = {key: _field(entry, key, int, where) for key in _COUNT_KEYS}
        features = None
        if entry.get("features"):
            features = _read_sidecar(root / _field(entry, "features", str, where))
        data_path = root / data
        ds = parse_dataset(
            read_lines(data_path), specs, name, seed, path=str(data_path), features=features,
        )
        summary = _SplitSummary.of(ds)
        for key, want in counts.items():
            if getattr(summary, key) != want:
                raise FormatError(
                    f"{data_path}: counts disagree with the manifest: {key} is {want} "
                    f"in the manifest, {getattr(summary, key)} in the file"
                )
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
            if not np.isfinite(vals).all():
                raise FormatError(f"{path}:{i + 2 + j}: non-finite {tag!r} value")
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
    except (TypeError, ConfigError) as e:
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


class ByteStream:
    """A file's content given as chunks of bytes, written one at a time.
    ``len()`` is the number of bytes written so far: the size of the file
    once it is staged.  A stream is written once."""

    def __init__(self, chunks: Iterable[bytes]):
        self._chunks = chunks
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def write_to(self, fh) -> None:
        for chunk in self._chunks:
            self._size += fh.write(chunk)


class LineStream(ByteStream):
    """A file's content given as lines, each written with a newline after
    it, encoded as UTF-8 a chunk of ``_CHUNK_CHARS`` characters at a time."""

    def __init__(self, lines: Iterable[str]):
        super().__init__(_encoded_chunks(lines))


def _encoded_chunks(lines: Iterable[str]) -> Iterator[bytes]:
    chunk: list[str] = []
    n = 0
    for line in lines:
        chunk.append(line)
        n += len(line) + 1
        if n >= _CHUNK_CHARS:
            chunk.append("")  # the newline after the chunk's last line
            yield "\n".join(chunk).encode()
            chunk, n = [], 0
    if chunk:
        chunk.append("")
        yield "\n".join(chunk).encode()


def _stage(path: Path, data: bytes | ByteStream) -> str:
    """Write ``data`` to a new temp file beside ``path`` and return its
    name.  The file is created with mode 0o666 less the umask, as a plain
    open() would make it (mkstemp's 0o600 would survive the rename); on
    failure it is removed."""
    tmp = str(path.parent / f"{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if isinstance(data, ByteStream):
                data.write_to(fh)
            else:
                fh.write(data)
    except BaseException:
        _discard([tmp])
        raise
    return tmp


def atomic_write_bytes(path: str | Path, data: bytes | ByteStream) -> None:
    """Write to a temp file in the target directory, then rename over the
    destination; a failure never leaves a partial file at ``path``."""
    path = Path(path)
    tmp = _stage(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _discard([tmp])
        raise


def _missing_dirs(directory: Path) -> list[Path]:
    """``directory`` and its parents that do not exist, parents first."""
    missing = []
    while not directory.exists():
        missing.append(directory)
        directory = directory.parent
    return missing[::-1]


def commit_files(files: dict[Path, bytes | ByteStream]) -> None:
    """Stage every file, in order, then rename all: either the whole set
    lands or, on any failure while staging, nothing does (the directories
    made for the files are removed too).  A failed rename removes the temp
    files not yet renamed before it raises."""
    staged: list[tuple[str, Path]] = []
    made: list[Path] = []  # directories made here, parents first
    try:
        for path, data in files.items():
            made += _missing_dirs(path.parent)
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append((_stage(path, data), path))
    except BaseException:
        _discard(tmp for tmp, _ in staged)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    for i, (tmp, path) in enumerate(staged):
        try:
            os.replace(tmp, path)
        except BaseException:
            _discard(tmp for tmp, _ in staged[i:])
            raise
