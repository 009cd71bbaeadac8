"""Record files, dataset serialization, checkpoints, and reports.

All formats are line-delimited text, one record per line, with ``#``
comment headers.  Angles in the ground-truth and detection record files
are degrees printed at 12 significant digits (parsed back to radians);
dataset files keep azimuths in radians and every float at 17 significant
digits, which round-trips float64 exactly, so a parsed dataset is
bit-identical to the generated one.  Checkpoints store every parameter
as a C99 hex float (``float.hex()``), a lossless text encoding.

Writers build each line with one ``%`` template over Python floats
(``"%.17g" % x`` is the text of ``format(x, ".17g")``), a dataset's
proposals read from the table's columns by ``.tolist()``.  Readers read
a line with ``float`` and ``int`` and one finiteness check of the sum of
its floats (each float is looked at only when the sum is not finite, so
finite values whose sum overflows still read).  Ground-truth and dataset
gt lines share one read (a label, a class id, four box floats, then
floats), and each caller applies its class rule; detection lines have
their own.  The dataset reader reads every prop line (first token
``prop``) in a run, ``_RUN_ROWS`` lines at a time, through NumPy's C text
reader (``_read_run``), whose grammar is a subset of ``float`` and
``int``'s with the same values, and checks each run with array
operations.  A kind's column table holds ``(token position, check)``
pairs in reporting order; each check returns what it reads of its field
or raises the error, naming ``path:line`` and the bad field (or the
degenerate box).  A run the C reader refuses is read line by line, each
line by one walk of the prop table (``_read_columns``).  A gt or
detection line that its read refuses goes to ``_diagnose``, the same
walk, which only raises.  Class ids in record files must be at least 1.

Detections are read and written as a :class:`~viewbench.metrics.Detections`
table, each box row's text formatted once; the reader appends each line's
values to column lists.  A detection class id must also fit in 64 bits.

Every write goes through a temp file and a rename, so a failed run never
leaves a partially written artifact, and a multi-file set lands whole or
not at all (``commit_files``).

A benchmark's data files are the largest artifacts, and no whole-text
copy of one is held.  ``write_benchmark`` streams each data file into its
staged temp file, encoding its lines a chunk of ``_CHUNK_CHARS``
characters at a time (``format_dataset`` joins the same lines into one
string); ``write_detections`` streams a detection file the same way.
Nor are two splits held at once (``write_benchmark``).
``read_benchmark`` and ``read_lines`` read a file one physical
line at a time, in the encoding ``Path.read_text`` uses, and split each
with ``str.splitlines``, so the parsers see exactly the lines, and name
exactly the line numbers, of ``read_text().splitlines()``.  The parsers
take either that text or such an iterable of lines.  Bytes that the
encoding cannot decode are a FormatError naming the file and the line.
The dataset reader fills a proposal table made once from the manifest's
``n_proposals``; a pending run holds at most ``_RUN_ROWS`` lines and
their parsed rows.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import io
import itertools
import json
import math
import os
import secrets
import stat
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, FormatError, InvalidParameter
from .metrics import Box, Detection, Detections, EvalReport, GroundTruth, detection_table
from .net import LogEntry, ModelParams, NetConfig, layer_plan
from .synthetic import ClassSpec, Dataset, Proposals, Scene, roster_feature_dim

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
    """The check that a token is an integer that ``ok`` accepts, which
    returns it; ``problem(value)`` is the error for one it refuses."""
    def check(token: str, where: str) -> int:
        value = _parse_int(token, where)
        if not ok(value):
            raise FormatError(f"{where}: {problem(value)}")
        return value
    return check


_CLASS_ID = _int_check((1).__le__, "class id must be >= 1, got {}".format)
_INT64_MAX = 2**63 - 1
_SEEDS = range(2**64)
_NOISE_SEED = _int_check(_SEEDS.__contains__, "noise seed must be in [0, 2**64), got {}".format)
_DET_CLASS_ID = _int_check(lambda c: 1 <= c <= _INT64_MAX, lambda c: (
    f"class id must be >= 1, got {c}" if c < 1 else f"class id must be <= {_INT64_MAX}, got {c}"
))

# A column table holds a line kind's (token position, check) pairs, in the
# order in which their errors are reported.
_GT_COLUMNS = ((slice(2, 6), _checked_box), (6, _parse_float), (1, _CLASS_ID))
_DET_COLUMNS = (
    (slice(2, 6), _checked_box), (6, _parse_float), (7, _parse_float), (1, _DET_CLASS_ID)
)


def _read_columns(tok: list[str], what: str, counts: tuple, columns: tuple, where: str) -> list:
    """What each ``(position, check)`` in ``columns`` reads of ``tok[position]``,
    in order.  The first error is raised: a field count not in ``counts``
    (``what`` words the message), or else that of the first check that fails."""
    if len(tok) not in counts:
        raise FormatError(f"{where}: {what} {' or '.join(map(str, counts))} fields, got {len(tok)}")
    return [check(tok[position], where) for position, check in columns]


def _diagnose(tok: list[str], what: str, counts: tuple, columns: tuple, where: str) -> NoReturn:
    """Raise the error of a line that its read refused (``_read_columns``)."""
    _read_columns(tok, what, counts, columns, where)
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


def _detection_lines(dets: Detections | Iterable[Detection]) -> Iterator[str]:
    dets = detection_table(dets)
    yield DET_HEADER
    box_text = [_DET_BOX % tuple(b) for b in dets.boxes.tolist()]
    for line in zip(
        dets.image_ids, dets.class_ids.tolist(), map(box_text.__getitem__, dets.box_rows.tolist()),
        dets.scores.tolist(), np.degrees(dets.azimuths).tolist(),
    ):
        yield _DET_REST % line


def format_detections(dets: Detections | Iterable[Detection]) -> str:
    """Detection lines, the text of each box row formatted once."""
    return "\n".join(_detection_lines(dets)) + "\n"


def write_detections(path: str | Path, dets: Detections | Iterable[Detection]) -> None:
    """Write the text of ``format_detections(dets)`` to ``path``, streamed
    (see :class:`LineStream`)."""
    atomic_write_bytes(path, LineStream(_detection_lines(dets)))


def parse_detections(text: str | Iterable[str], path: str = "<string>") -> Detections:
    """The detection records of a file as a table.  A line whose four box
    tokens equal those of the line before it (the classes of one proposal,
    as ``format_detections`` writes them) shares that line's box row."""
    image_ids, class_ids, box_rows, scores, degs, boxes = [], [], [], [], [], []
    image_id = box_tok = None  # the image id and box tokens of the line before
    row = -1  # the box row of the line before
    for lineno, tok in _data_lines(text):
        try:
            _, class_id, x_min, y_min, x_max, y_max, score, deg = tok
            class_id, score, deg = int(class_id), float(score), float(deg)
            ok = 1 <= class_id <= _INT64_MAX and (
                math.isfinite(score + deg) or math.isfinite(score) and math.isfinite(deg)
            )
            if ok and tok[2:6] != box_tok:  # a new box: read and check it
                box = float(x_min), float(y_min), float(x_max), float(y_max)
                ok = _finite(box) and box[0] < box[2] and box[1] < box[3]
                boxes.extend(box)
                box_tok = tok[2:6]
                row += 1
        except ValueError:
            ok = False
        if not ok:
            _diagnose(tok, "expected", (8,), _DET_COLUMNS, f"{path}:{lineno}")
        if tok[0] != image_id:
            image_id = tok[0]
        image_ids.append(image_id)
        class_ids.append(class_id)
        scores.append(score)
        degs.append(deg)
        box_rows.append(row)
    return Detections(
        image_ids, np.array(class_ids, dtype=np.int64), np.array(boxes, dtype=float).reshape(-1, 4),
        np.array(box_rows, dtype=np.intp), np.array(scores, dtype=float),
        np.radians(np.array(degs, dtype=float)),
    )


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
    t = ds.proposals
    template = _inline_prop_line(t.features.shape[1]) if inline_features else _DATA_PROP_LINE
    counts = np.bincount(t.scene, minlength=len(ds.scenes)).tolist()
    for scene, n, end in zip(ds.scenes, counts, itertools.accumulate(counts)):
        yield f"scene {scene.image_id} {len(scene.gts)} {n}"
        for g in scene.gts:
            b = g.box
            yield _DATA_GT_LINE % (g.class_id, b.x_min, b.y_min, b.x_max, b.y_max, g.azimuth)
        rows = slice(end - n, end)
        features = t.features[rows].tolist() if inline_features else itertools.repeat(())
        for m, ov, seed, box, feature in zip(
            t.matched_gt[rows].tolist(), t.iou[rows].tolist(), t.noise_seed[rows].tolist(),
            t.boxes[rows].tolist(), features,
        ):
            yield template % (m, ov, seed, *box, *feature)


def format_dataset(ds: Dataset, inline_features: bool = True) -> str:
    """Scene/gt/prop lines; azimuths in radians for an exact round trip.
    Without inline features the prop lines stop after the box and the
    feature matrix travels in a binary sidecar."""
    return "\n".join(_dataset_lines(ds, inline_features)) + "\n"


# Prop lines read by one call of NumPy's C text reader (``_read_run``):
# enough that the call's fixed cost (about 15 us) is small beside its
# rows, few enough that a run's lines and rows (about 1.3 KB a line at 32
# features) stay small beside the table.
_RUN_ROWS = 48


def _read_run(lines: list[str], dtype: np.dtype, n_gt: np.ndarray) -> np.ndarray | None:
    """The rows of prop lines, each with the fields of ``dtype``, read by
    one ``np.loadtxt`` call; None if it refuses a line or a row fails a
    check of the prop column table (``n_gt``: each row's scene's ground
    truths).  The C reader splits a line at the whitespace ``str.split``
    splits at, and its numbers are a subset of what ``int`` and ``float``
    read (it refuses ``1_0``, non-ASCII digits and ``-0`` as a uint64),
    with the same values; it refuses a line break inside a line, so its
    rows are the lines."""
    # a line of w fields has at least 2w - 1 characters: the C reader
    # makes no table for rows that cannot be there
    width = 4 + dtype["values"].shape[0]  # prop, matched, iou, seed, values
    if sum(map(len, lines)) < len(lines) * (2 * width - 1):
        return None
    try:
        rows = np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    matched, values = rows["matched"], rows["values"]
    ok = (
        (-1 <= matched) & (matched < n_gt) & np.isfinite(rows["iou"])
        & np.isfinite(values).all(axis=1)
        & (values[:, 0] < values[:, 2]) & (values[:, 1] < values[:, 3])
    )
    return rows if ok.all() else None


def parse_dataset(
    text: str | Iterable[str],
    class_specs: Sequence[ClassSpec],
    split: str,
    seed: int,
    path: str = "<string>",
    features: np.ndarray | None = None,
    n_proposals: int | None = None,
) -> Dataset:
    """Rebuild a Dataset from its text form, or from the lines of it
    (plus sidecar features if the file was written without inline features).

    Each scene line must open a scene id no line before it opened, each
    scene must hold as many gt and prop lines as its scene line
    declares, a gt's class id must be one of the class specs', a prop's
    ``matched_gt`` must be -1 or index one of the scene's gts and its
    noise seed be in [0, 2**64), and a sidecar must be (rows, feature_dim)
    with one row per prop line that reads it, no more.  The table is made
    for ``n_proposals`` rows (else the sidecar's), grown if short.

    Prop lines (those whose first token is ``prop``) after a scene line
    wait in a run of up to ``_RUN_ROWS``, across scenes, read by one
    ``_read_run``: with inline features, or from the sidecar if one is
    given.  A run it refuses is read line by line, each line by one walk of
    the prop column table (``_read_columns``), so the result and any error
    are those of the line-by-line read; a pending run is read before a
    later line's error is raised."""
    class_specs = tuple(class_specs)
    feature_dim = class_specs[0].feature_dim
    class_ids = {spec.class_id for spec in class_specs}
    scenes: list[Scene] = []
    declared: list[int] = []  # the n_gt of each scene by index, as its scene line declares
    scene_lines: dict[str, int] = {}  # scene id -> the line that opened it
    cur_id: str | None = None
    scene_where = ""
    n_gt = n_prop = 0
    gts: list[GroundTruth] = []
    n = first = 0  # the rows read into the table, and the prop lines before the current scene
    next_feature = 0
    run: list[str] = []  # the pending run's lines
    run_at: list[tuple[int, int]] = []  # and the line number and scene number of each

    def flush():
        if cur_id is None:
            return
        got = n + len(run) - first
        if len(gts) != n_gt or got != n_prop:
            raise FormatError(
                f"{scene_where}: scene {cur_id} declares {n_gt} gt and {n_prop} prop lines, "
                f"got {len(gts)} and {got}"
            )
        scenes.append(Scene(cur_id, tuple(gts)))

    # the rows a prop line without inline features may read from the
    # sidecar, and the error of such a line once there are none
    sidecar_rows, no_row = 0, "no inline features and no sidecar given"
    if features is not None and (features.ndim != 2 or features.shape[1] != feature_dim):
        no_row = (
            f"sidecar rows must have {feature_dim} values, the sidecar has shape {features.shape}"
        )
    elif features is not None:
        sidecar_rows, no_row = features.shape[0], "sidecar has too few feature rows"
    rows = sidecar_rows if n_proposals is None else n_proposals
    scene_of, matched, ious, seeds = (np.empty(rows, t) for t in (int, int, float, np.uint64))
    boxes, feats = np.empty((rows, 4)), np.empty((rows, feature_dim))
    columns = (scene_of, boxes, feats, matched, ious, seeds)

    def grow(size: int) -> None:
        if size > len(ious):
            for column in columns:
                column.resize((max(2 * n, size, 64),) + column.shape[1:], refcheck=False)

    def feature_values(tokens: list[str], where: str) -> list[float] | None:
        """The inline features, or None for the next sidecar row."""
        if not tokens and next_feature >= sidecar_rows:
            raise FormatError(f"{where}: {no_row}")
        return [_parse_float(t, where) for t in tokens] or None

    gt_columns = (
        (slice(2, 6), _checked_box),
        (1, _int_check(class_ids.__contains__, lambda c: (
            f"class id {c} has no class spec, the specs have ids {sorted(class_ids)}"
        ))),
        (6, _parse_float),
    )
    prop_fields = (8, 8 + feature_dim)

    def prop_columns(n_gt: int) -> tuple:
        return (
            (1, _int_check(lambda m: -1 <= m < n_gt, lambda m: (
                f"matched_gt {m} is neither -1 nor one of the scene's {n_gt} ground truths"
            ))),
            (2, _parse_float),
            (3, _NOISE_SEED),
            (slice(4, 8), _checked_box),
            (slice(8, None), feature_values),
        )

    run_dtype = np.dtype([
        ("prop", "S4"), ("matched", np.int64), ("iou", float), ("seed", np.uint64),
        ("values", float, (4 if features is not None else 4 + feature_dim,)),
    ])

    def read_pending() -> None:
        nonlocal n, next_feature
        if not run:
            return
        pending, at = run.copy(), np.array(run_at)
        run.clear()
        run_at.clear()
        k, scene = len(pending), at[:, 1]
        got = None
        if features is None or next_feature + k <= sidecar_rows:
            lo, hi = scene[0], scene[-1] + 1
            # clipped into int64, which changes no row's check but that of
            # matched_gt 2**63 - 1, which goes to the line-by-line read
            caps = np.array([min(max(g, -1), _INT64_MAX) for g in declared[lo:hi]])
            got = _read_run(pending, run_dtype, caps[scene - lo])
        if got is None:
            for line, (lineno, s) in zip(pending, at.tolist()):
                m, ov, noise_seed, box, feature = _read_columns(
                    line.split(), "prop line needs", prop_fields, prop_columns(declared[s]),
                    f"{path}:{lineno}",
                )
                grow(n + 1)
                scene_of[n], matched[n], ious[n], seeds[n] = s, m, ov, noise_seed
                boxes[n] = box.x_min, box.y_min, box.x_max, box.y_max
                feats[n] = features[next_feature] if feature is None else feature
                next_feature += feature is None
                n += 1
            return
        grow(n + k)
        end, values = n + k, got["values"]
        scene_of[n:end], matched[n:end], ious[n:end], seeds[n:end] = (
            scene, got["matched"], got["iou"], got["seed"]
        )
        boxes[n:end] = values[:, :4]
        if features is None:
            feats[n:end] = values[:, 4:]
        else:
            feats[n:end] = features[next_feature:next_feature + k]
            next_feature += k
        n = end

    lines = text.splitlines() if isinstance(text, str) else text
    last = 0  # the number of the last line that is not blank or a comment
    try:
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("prop "):  # the common prop line needs no split
                kind = "prop"
            else:
                tok = line.split()
                if not tok or tok[0][0] == "#":
                    continue
                kind = tok[0]
            last = lineno
            if cur_id is None and kind in ("gt", "prop"):
                raise FormatError(f"{path}:{lineno}: {kind} line before any scene line")
            if kind == "prop":
                run.append(line)
                run_at.append((lineno, len(scenes)))
                if len(run) == _RUN_ROWS:
                    read_pending()
            elif kind == "gt":
                gt = _read_box_line(tok, 7)
                if gt is None or gt[0] not in class_ids:
                    _diagnose(tok, "gt line needs", (7,), gt_columns, f"{path}:{lineno}")
                class_id, box, (az,) = gt
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
                declared.append(n_gt)
                gts, first = [], n + len(run)
            else:
                raise FormatError(f"{path}:{lineno}: unknown line type {kind!r}")
        read_pending()
        flush()
    except FormatError:
        read_pending()  # the error of a pending line comes from an earlier line
        raise
    if features is not None and features.shape[:1] != (next_feature,):
        raise FormatError(
            f"{path}:{last}: the prop lines read {next_feature} sidecar rows, "
            f"the sidecar has shape {features.shape}"
        )
    table = Proposals(*(column[:n] for column in columns))
    return Dataset(tuple(scenes), table, class_specs, feature_dim, split, seed)


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


def read_manifest(manifest_path: str | Path) -> tuple[dict, list[ClassSpec]]:
    """A benchmark manifest and its class roster, read without its splits'
    files: valid class specs numbered 1..n that share the manifest's
    ``feature_dim``.  Anything else is a FormatError naming the file."""
    try:
        manifest = json.loads(read_text(manifest_path))
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: deep nesting
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
    try:
        dim = roster_feature_dim(specs)
    except InvalidParameter as e:
        raise FormatError(f"{manifest_path}: {e}") from None
    feature_dim = _field(manifest, "feature_dim", int, str(manifest_path))
    if feature_dim != dim:
        raise FormatError(
            f"{manifest_path}: feature_dim {feature_dim} disagrees with the class specs' {dim}"
        )
    return manifest, specs


def read_benchmark(
    manifest_path: str | Path, split: str | None = None
) -> tuple[Dataset | None, Dataset | None, dict]:
    """Both splits of a benchmark and its manifest (``read_manifest``).
    With ``split`` ('train' or 'test') only that split is parsed and
    checked against the manifest's counts; the other comes back as None.
    A manifest that lacks a key this needs is a FormatError."""
    if split not in (None, "train", "test"):
        raise InvalidParameter(f"split must be 'train' or 'test', got {split!r}")
    manifest_path = Path(manifest_path)
    manifest, specs = read_manifest(manifest_path)
    dim = manifest["feature_dim"]
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
        for key, value in (("seed", seed), *counts.items()):
            if value < 0:
                raise FormatError(f"{where}: manifest needs {key!r} >= 0, got {value}")
        features = None
        if entry.get("features"):
            features = _read_sidecar(root / _field(entry, "features", str, where))
        data_path = root / data
        # no more rows than a sidecar of the right width holds, or than fit
        # the file: a prop line takes 18 bytes, and 2 more per inline feature
        if features is not None and features.shape[1:] == (dim,):
            rows = len(features)
        else:
            rows = data_path.stat().st_size // (18 + 2 * dim)
        ds = parse_dataset(
            read_lines(data_path), specs, name, seed, path=str(data_path), features=features,
            n_proposals=min(counts["n_proposals"], rows),
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
    """Read a checkpoint by its header's net.  After the magic and header
    lines, the net's ``layer_plan`` gives, layer by layer, the layer line
    the file must hold next, token for token as ``format_checkpoint``
    writes it (blank lines may come before it), and the value counts of
    the ``w``, ``b``, ``vw`` and ``vb`` lines that follow it, whose finite
    hex floats are the layer's slots of the parameter and momentum
    vectors.  Any other line, or one missing, is a FormatError naming
    ``path:line``, or ``path`` alone where the file ends before a layer;
    after the last layer only blank lines may follow."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}:1: missing checkpoint magic line")
    try:
        header = json.loads(lines[1])
    except (IndexError, json.JSONDecodeError, RecursionError):  # RecursionError: deep nesting
        raise FormatError(f"{path}:2: bad checkpoint header") from None
    net = _header_net(header, path)
    plan = layer_plan(net)
    rows: dict[str, list[np.ndarray]] = {"w": [], "b": [], "vw": [], "vb": []}
    at = 2  # the index of the next line to read
    for k, (name, fan_in, fan_out) in enumerate(plan):
        while at < len(lines) and not lines[at].strip():
            at += 1
        if at == len(lines):
            raise FormatError(f"{path}: the header's net has {len(plan)} layers, the file {k}")
        if lines[at].split() != ["layer", name, str(fan_in), str(fan_out)]:
            raise FormatError(
                f"{path}:{at + 1}: {lines[at].strip()} does not match the header's net, "
                f"which has layer {name} {fan_in} {fan_out} here"
            )
        for tag, want in (("w", fan_in * fan_out), ("b", fan_out), ("vw", fan_in * fan_out),
                          ("vb", fan_out)):
            at += 1
            row, where = lines[at].split() if at < len(lines) else [], f"{path}:{at + 1}"
            if not row or row[0] != tag:
                raise FormatError(f"{where}: expected {tag!r} line")
            if len(row) - 1 != want:
                raise FormatError(f"{where}: expected {want} values, got {len(row) - 1}")
            try:
                values = [float.fromhex(t) for t in row[1:]]
            except ValueError:
                raise FormatError(f"{where}: bad hex float") from None
            if not _finite(values):
                raise FormatError(f"{where}: non-finite {tag!r} value")
            rows[tag].append(np.array(values))
        at += 1
    tail = [i for i in range(at, len(lines)) if lines[i].strip()]
    if tail:
        more = sum(lines[i].split()[0] == "layer" for i in tail)
        raise FormatError(f"{path}:{tail[0] + 1}: the header's net has {len(plan)} layers, " + (
            f"the file {len(plan) + more}" if more else f"then the file has {lines[tail[0]]!r}"))
    params = ModelParams(
        plan, np.concatenate(rows["w"] + rows["b"]), np.concatenate(rows["vw"] + rows["vb"])
    )
    return Checkpoint(params, net, header)


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


def _temp_name(path: Path) -> str:
    return str(path.parent / f"{path.name}.{secrets.token_hex(4)}.tmp")


def _stage(path: Path, data: bytes | ByteStream) -> str:
    """Write ``data`` to a new temp file beside ``path`` and return its
    name.  The file is created with mode 0o666 less the umask, as a plain
    open() would make it (mkstemp's 0o600 would survive the rename); on
    failure it is removed.  If the temp file cannot be made, the error,
    of the same type, names ``path`` rather than the random temp name."""
    tmp = _temp_name(path)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise type(e)(e.errno, e.strerror, str(path)) from None
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


def _backup(path: Path) -> str | None:
    """Hard-link ``path`` to a new temp name beside it and return that
    name; None if ``path`` is absent or a directory (a rename onto a
    directory fails, so there is nothing to put back)."""
    try:
        if stat.S_ISDIR(os.lstat(path).st_mode):
            return None
    except FileNotFoundError:
        return None
    backup = _temp_name(path)
    os.link(path, backup, follow_symlinks=False)
    return backup


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
    lands or, on any failure, the targets are left as they were.  Each
    existing target is hard-linked to a backup before the renames; a
    failure puts the backups back over the files already replaced, removes
    the ones that were new and the directories made for them, removes
    every temp file and re-raises."""
    staged: list[tuple[str, Path]] = []
    backups: list[str | None] = []
    made: list[Path] = []  # directories made here, parents first
    renamed = 0
    try:
        for path, data in files.items():
            made += _missing_dirs(path.parent)
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append((_stage(path, data), path))
        for _, path in staged:
            backups.append(_backup(path))
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for (_, path), backup in zip(staged[:renamed], backups):
            with contextlib.suppress(OSError):
                if backup is None:
                    os.unlink(path)
                else:
                    os.replace(backup, path)
        _discard(tmp for tmp, _ in staged[renamed:])
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    finally:
        _discard(b for b in backups if b is not None)
