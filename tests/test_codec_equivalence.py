"""The line-at-a-time record and dataset codecs against their per-field form.

The writers build each line from one ``%`` template, and the readers read
each line once and send a refused line to a diagnosis that only raises.
The per-field writers and readers they replaced are kept here as the
oracle: on every input the writers must give the same bytes, the readers
the same objects (floats compared as ``float.hex``), and a malformed line
the same exception type and message.  The intended differences, class ids
below 1 in record files and dataset gt class ids without a class spec, are
checked in test_records.  The oracle wraps a degenerate box's error as the
readers do, in a FormatError that names ``path:line`` (the per-field
readers raised the box's own error, which named neither).
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from viewbench.angles import TWO_PI, canonicalize
from viewbench.errors import FormatError, InvalidParameter
from viewbench.metrics import Box, Detection, Detections, GroundTruth
from viewbench.net import LogEntry
from viewbench.records import (
    DET_HEADER,
    GT_HEADER,
    LOG_HEADER,
    format_dataset,
    format_detections,
    format_ground_truths,
    format_train_log,
    parse_dataset,
    parse_detections,
    parse_ground_truths,
)
from viewbench.synthetic import ClassSpec, Dataset, Proposal, Scene, generate

# ---------------------------------------------------------------- the oracle


def _f(x):
    return format(float(x), ".17g")


def _deg(rad):
    return format(math.degrees(rad), ".12g")


def _parse_float(token, where):
    try:
        v = float(token)
    except ValueError:
        raise FormatError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(v):
        raise FormatError(f"{where}: non-finite value {token!r}")
    return v


def _parse_int(token, where):
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{where}: not an integer: {token!r}") from None


def _box(tokens, where):
    coords = [_parse_float(t, where) for t in tokens]
    try:
        return Box(*coords)
    except InvalidParameter as e:
        raise FormatError(f"{where}: {e}") from None


def _data_lines(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def oracle_format_ground_truths(gts):
    lines = [GT_HEADER]
    for g in gts:
        lines.append(
            f"{g.image_id} {g.class_id} {_f(g.box.x_min)} {_f(g.box.y_min)} "
            f"{_f(g.box.x_max)} {_f(g.box.y_max)} {_deg(g.azimuth)}"
        )
    return "\n".join(lines) + "\n"


def oracle_parse_ground_truths(text, path="<string>"):
    out = []
    for lineno, tok in _data_lines(text):
        where = f"{path}:{lineno}"
        if len(tok) != 7:
            raise FormatError(f"{where}: expected 7 fields, got {len(tok)}")
        box = _box(tok[2:6], where)
        az = canonicalize(math.radians(_parse_float(tok[6], where)))
        out.append(GroundTruth(tok[0], _parse_int(tok[1], where), box, az))
    return out


def oracle_format_detections(dets):
    lines = [DET_HEADER]
    for d in dets:
        lines.append(
            f"{d.image_id} {d.class_id} {_f(d.box.x_min)} {_f(d.box.y_min)} "
            f"{_f(d.box.x_max)} {_f(d.box.y_max)} {_f(d.score)} {_deg(d.azimuth)}"
        )
    return "\n".join(lines) + "\n"


def oracle_parse_detections(text, path="<string>"):
    out = []
    for lineno, tok in _data_lines(text):
        where = f"{path}:{lineno}"
        if len(tok) != 8:
            raise FormatError(f"{where}: expected 8 fields, got {len(tok)}")
        box = _box(tok[2:6], where)
        score = _parse_float(tok[6], where)
        az = canonicalize(math.radians(_parse_float(tok[7], where)))
        out.append(Detection(tok[0], _parse_int(tok[1], where), box, score, az))
    return out


def oracle_format_dataset(ds, inline_features=True):
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


def oracle_parse_dataset(text, class_specs, split, seed, path="<string>", features=None):
    class_specs = tuple(class_specs)
    feature_dim = class_specs[0].feature_dim
    scenes = []
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
            box = _box(tok[2:6], where)
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
            box = _box(tok[4:8], where)
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


def oracle_format_train_log(entries):
    lines = [LOG_HEADER]
    for e in entries:
        lines.append(f"{e.iteration} {_f(e.lr)} {_f(e.loss)} {_f(e.loss_per_sample)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- comparison


def _hex(x):
    assert type(x) is float, type(x)
    return x.hex()


def _box_key(b):
    return tuple(_hex(v) for v in (b.x_min, b.y_min, b.x_max, b.y_max))


# a row of a detection table, with the fields of a Detection
DetectionRow = namedtuple("DetectionRow", "image_id class_id box score azimuth")


def detection_rows(table):
    """The rows of a detection table, as read from its columns (no check,
    no canonicalization); the rows of one box row share one Box."""
    boxes = [Box(*b) for b in table.boxes.tolist()]
    return [DetectionRow(*row) for row in zip(
        table.image_ids, table.class_ids.tolist(), map(boxes.__getitem__, table.box_rows.tolist()),
        table.scores.tolist(), table.azimuths.tolist(),
    )]


def _record_key(r):
    key = (r.image_id, type(r.class_id), r.class_id, _box_key(r.box), _hex(r.azimuth))
    if isinstance(r, (Detection, DetectionRow)):
        key += (_hex(r.score),)
    return key


def _dataset_key(ds):
    scenes = []
    for s in ds.scenes:
        props = [
            (_box_key(p.box), p.feature.dtype.str, p.feature.shape,
             [v.hex() for v in p.feature.tolist()], p.matched_gt, _hex(p.iou), p.noise_seed)
            for p in s.proposals
        ]
        scenes.append((s.image_id, [_record_key(g) for g in s.gts], props))
    return scenes, ds.class_specs, ds.feature_dim, ds.split, ds.seed


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - the exception is the result compared
        return "raised", (type(e), str(e))


def _same_outcome(new, old, key, *args, **kwargs):
    got, want = _outcome(new, *args, **kwargs), _outcome(old, *args, **kwargs)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert key(got[1]) == key(want[1])
    else:
        assert got[1] == want[1]
    return got


def _records_key(records):
    if isinstance(records, Detections):
        records = detection_rows(records)
    return [_record_key(r) for r in records]


# ---------------------------------------------------------------- values

SUBNORMAL = 2.2250738585072014e-308 / 3
JUST_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)
# hand-picked floats: signed zeros, the smallest subnormal, a subnormal,
# the largest magnitudes, values that need all 17 digits
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, 1e308, -1e308, 1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, 2 / 3, 123456789.12345679, 1e-7, 9.999999999999999e22,
    JUST_BELOW_TWO_PI, math.pi,
]
ANGLES = [0.0, -0.0, 5e-324, SUBNORMAL, 1e-300, 0.1 + 0.2, math.pi, JUST_BELOW_TWO_PI,
          math.nextafter(math.pi, 0.0), 1 / 3, 6.283185307179585, 4.71238898038469]


def _boxes():
    """A box for every pair lo < hi of the special values."""
    vals = sorted(set(SPECIAL))
    return [Box(lo, -hi, hi, -lo) for i, lo in enumerate(vals) for hi in vals[i + 1:]]


def _records():
    boxes = _boxes()
    gts = [
        GroundTruth(f"img{i % 7}", 1 + i % 4, box, ANGLES[i % len(ANGLES)])
        for i, box in enumerate(boxes)
    ]
    dets = [
        Detection(f"img{i % 5}", 1 + i % 3, box, SPECIAL[i % len(SPECIAL)],
                  ANGLES[(i * 5) % len(ANGLES)])
        for i, box in enumerate(boxes)
    ]
    return gts, dets


def _special_dataset(feature_dim=5):
    boxes = _boxes()
    specs = (ClassSpec(class_id=1, seed=0, feature_dim=feature_dim),
             ClassSpec(class_id=2, seed=0, feature_dim=feature_dim))
    scenes = []
    rng = np.random.default_rng(3)
    for i in range(0, len(boxes) - 3, 4):
        gts = (GroundTruth(f"s{i}", 1, boxes[i], ANGLES[i % len(ANGLES)]),
               GroundTruth(f"s{i}", 2, boxes[i + 1], ANGLES[(i + 3) % len(ANGLES)]))
        feats = [
            np.array([SPECIAL[(i + k + j) % len(SPECIAL)] for j in range(feature_dim)])
            for k in range(3)
        ]
        feats[2] = rng.standard_normal(feature_dim)
        props = (
            Proposal(boxes[i + 2], feats[0], 0, SPECIAL[i % len(SPECIAL)], 2**63 - 1 - i),
            Proposal(boxes[i + 3], feats[1], 1, 0.5, i),
            Proposal(boxes[i], feats[2], -1, -0.0, 0),
        )
        scenes.append(Scene(f"s{i}", gts, props))
    scenes.append(Scene("empty", (), ()))
    return Dataset(tuple(scenes), specs, feature_dim, "test", 4)


def _generated(binary):
    specs = (ClassSpec(class_id=1, seed=0, feature_dim=6),
             ClassSpec(class_id=2, seed=0, feature_dim=6, symmetry_order=2))
    ds = generate(11, 25, specs)
    text = format_dataset(ds, inline_features=not binary)
    return ds, specs, text, (ds.features() if binary else None)


# ---------------------------------------------------------------- writers


class TestWriters:
    def test_records(self):
        gts, dets = _records()
        assert len(gts) > 100
        assert format_ground_truths(gts) == oracle_format_ground_truths(gts)
        assert format_detections(dets) == oracle_format_detections(dets)

    def test_negative_zero_azimuth_keeps_its_sign(self):
        g = GroundTruth("a", 1, Box(0.0, 0.0, 1.0, 1.0), -0.0)
        assert format_ground_truths([g]).split()[-1] == "-0"
        assert format_ground_truths([g]) == oracle_format_ground_truths([g])

    @pytest.mark.parametrize("inline", [True, False])
    def test_special_dataset(self, inline):
        ds = _special_dataset()
        assert format_dataset(ds, inline) == oracle_format_dataset(ds, inline)

    @pytest.mark.parametrize("inline", [True, False])
    def test_generated_dataset(self, inline):
        ds, _, _, _ = _generated(not inline)
        assert format_dataset(ds, inline) == oracle_format_dataset(ds, inline)
        gts = ds.ground_truths()
        assert format_ground_truths(gts) == oracle_format_ground_truths(gts)

    def test_feature_lengths_and_dtypes(self):
        """Features of another length or dtype print as the oracle prints them."""
        ds = _special_dataset()
        scene = ds.scenes[0]
        odd = (
            Proposal(scene.proposals[0].box, np.array([]), 0, 0.5, 1),
            Proposal(scene.proposals[0].box, np.array([0.1, -0.0], dtype=np.float32), 0, 0.5, 1),
            Proposal(scene.proposals[0].box, np.arange(9.0) / 7, -1, 0.25, 2),
        )
        ds = Dataset((Scene("odd", scene.gts, odd),), ds.class_specs, 5, "train", 0)
        assert format_dataset(ds) == oracle_format_dataset(ds)

    def test_train_log(self):
        entries = [LogEntry(i, SPECIAL[i], SPECIAL[-1 - i], SPECIAL[(3 * i) % len(SPECIAL)])
                   for i in range(len(SPECIAL))]
        assert format_train_log(entries) == oracle_format_train_log(entries)


# ---------------------------------------------------------------- readers


class TestReaders:
    def test_records(self):
        gts, dets = _records()
        for parse, oracle, text in (
            (parse_ground_truths, oracle_parse_ground_truths, format_ground_truths(gts)),
            (parse_detections, oracle_parse_detections, format_detections(dets)),
        ):
            got = _same_outcome(parse, oracle, _records_key, text, path="r.txt")
            assert got[0] == "ok" and len(got[1]) == len(gts)

    @pytest.mark.parametrize("deg", [
        "-30", "-0", "-0.0", "-359.999999999999", "-720.5", "-1e-320", "359.99999999999994",
        "360", "720", "1e300", "-1e300", "+45", "4_5.5", "1E2", "0.000000000001",
    ])
    def test_hand_written_degrees(self, deg):
        gt = f"img0 1 0.1 0.2 0.3 0.4 {deg}\n"
        det = f"img0 2 0.1 0.2 0.3 0.4 0.75 {deg}\n"
        _same_outcome(parse_ground_truths, oracle_parse_ground_truths, _records_key, gt)
        _same_outcome(parse_detections, oracle_parse_detections, _records_key, det)

    def test_sum_overflow_is_read_checked(self):
        """Finite values whose sum overflows are checked one by one and parse."""
        text = "img0 1 1e308 1e308 1.5e308 1.7e308 10\n"
        got = _same_outcome(parse_ground_truths, oracle_parse_ground_truths, _records_key, text)
        assert got[0] == "ok"
        text = "img0 1 0 0 1 1 1.7e308 1.7e308\n"
        got = _same_outcome(parse_detections, oracle_parse_detections, _records_key, text)
        assert got[0] == "ok"
        ds, specs = _dataset_text()
        for i, line in (
            (2, "gt 1 1e308 1e308 1.5e308 1.7e308 1.0"),
            (3, "prop 0 1.7e308 7 0.12 0.2 0.5 0.62 1.7e308 -1.25 1e308"),
        ):
            lines = format_dataset(ds).splitlines()
            lines[i] = line
            got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key,
                                "\n".join(lines) + "\n", specs, "train", 0, path="d.txt")
            assert got[0] == "ok"

    def test_layout_variants(self):
        """Comments, blank lines, indentation and tabs read the same."""
        text = (
            "# header\n\n   \n  img0 1 0.1 0.2 0.3 0.4 10\n\timg1\t2 0.1 0.2 0.3 0.4 -10 \r\n"
            "  # indented comment\nimg2 3 0 0 1 1 0\x0c\n"
        )
        _same_outcome(parse_ground_truths, oracle_parse_ground_truths, _records_key, text)

    @pytest.mark.parametrize("binary", [False, True])
    def test_generated_dataset(self, binary):
        ds, specs, text, features = _generated(binary)
        got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key,
                            text, specs, "train", 11, path="d.txt", features=features)
        assert got[0] == "ok" and _dataset_key(got[1]) == _dataset_key(ds)

    @pytest.mark.parametrize("inline", [True, False])
    def test_special_dataset(self, inline):
        ds = _special_dataset()
        features = None if inline else ds.features()
        got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key,
                            format_dataset(ds, inline), ds.class_specs, "test", 4,
                            features=features)
        assert got[0] == "ok" and _dataset_key(got[1]) == _dataset_key(ds)


# ---------------------------------------------------------------- malformed lines

GOOD_GT = ["img0", "1", "0.1", "0.2", "0.3", "0.4", "10"]
GOOD_DET = ["img0", "1", "0.1", "0.2", "0.3", "0.4", "0.9", "10"]


def _malformed(good, int_cols, box_at):
    """(name, tokens) of each kind of malformed line, built from a good one
    whose integer fields sit at ``int_cols`` and whose box starts at ``box_at``."""
    out = []
    float_cols = [i for i in range(1, len(good)) if i not in int_cols]
    for i in float_cols:
        for bad in ("x", "1.2.3", "inf", "-inf", "nan", "NaN", "1e400"):
            out.append((f"col{i}-{bad}", good[:i] + [bad] + good[i + 1:]))
    for i in int_cols:
        for bad in ("1.5", "x", "1e3", "--1"):
            out.append((f"int{i}-{bad}", good[:i] + [bad] + good[i + 1:]))
    out.append(("short", good[:-1]))
    out.append(("long", good + ["0.5"]))
    out.append(("two-fields", good[:2]))
    for i in int_cols:
        for j in float_cols:
            tok = list(good)
            tok[i], tok[j] = "q", "nan"
            out.append((f"int{i}-and-float{j}", tok))
    # a degenerate box, alone and with a bad field after it
    tok = list(good)
    tok[box_at + 2:box_at + 4] = tok[box_at:box_at + 2]
    out.append(("degenerate-box", tok))
    out.append(("degenerate-box-and-bad-last", tok[:-1] + ["x"]))
    return out


RECORD_CASES = (
    [("gt", name, tok) for name, tok in _malformed(GOOD_GT, [1], 2)]
    + [("det", name, tok) for name, tok in _malformed(GOOD_DET, [1], 2)]
    # the box tokens of the good line before it (a shared Box), and both a
    # bad score and a bad azimuth: the score is reported first
    + [("det", "shared-box-bad-score-and-azimuth", GOOD_DET[:6] + ["x", "nan"])]
)


@pytest.mark.parametrize("kind, name, tok", RECORD_CASES,
                         ids=[f"{k}-{n}" for k, n, _ in RECORD_CASES])
def test_malformed_record_line(kind, name, tok):
    parse, oracle, good = {
        "gt": (parse_ground_truths, oracle_parse_ground_truths, GOOD_GT),
        "det": (parse_detections, oracle_parse_detections, GOOD_DET),
    }[kind]
    text = " ".join(good) + "\n" + " ".join(tok) + "\n"
    got = _same_outcome(parse, oracle, _records_key, text, path="bad.txt")
    assert got[0] == "raised"


def _dataset_text(feature_dim=3):
    specs = (ClassSpec(class_id=1, seed=0, feature_dim=feature_dim),)
    ds = Dataset(
        (Scene("s0",
               (GroundTruth("s0", 1, Box(0.1, 0.2, 0.5, 0.6), 1.0),),
               (Proposal(Box(0.12, 0.2, 0.5, 0.62), np.array([0.5, -1.25, 3.0]), 0, 0.8, 7),
                Proposal(Box(0.6, 0.6, 0.9, 0.9), np.array([0.25, 0.0, -2.0]), -1, 0.0, 8))),
         ),
        specs, feature_dim, "train", 0,
    )
    return ds, specs


GOOD_DATA_GT = ["gt", "1", "0.1", "0.2", "0.5", "0.6", "1.0"]
GOOD_PROP = ["prop", "0", "0.8", "7", "0.12", "0.2", "0.5", "0.62", "0.5", "-1.25", "3.0"]
DATASET_CASES = (
    [("gt", name, tok) for name, tok in _malformed(GOOD_DATA_GT, [1], 2)]
    + [("prop", name, tok) for name, tok in _malformed(GOOD_PROP, [1, 3], 4)]
    + [("prop", "matched-past", ["prop", "1", *GOOD_PROP[2:]]),
       ("prop", "matched-below", ["prop", "-2", *GOOD_PROP[2:]]),
       ("prop", "no-features", GOOD_PROP[:8]),
       ("prop", "one-feature-short", GOOD_PROP[:-1])]
)


@pytest.mark.parametrize("kind, name, tok", DATASET_CASES,
                         ids=[f"{k}-{n}" for k, n, _ in DATASET_CASES])
def test_malformed_dataset_line(kind, name, tok):
    ds, specs = _dataset_text()
    lines = format_dataset(ds).splitlines()
    lines[2 if kind == "gt" else 3] = " ".join(tok)
    text = "\n".join(lines) + "\n"
    got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key,
                        text, specs, "train", 0, path="d.txt")
    assert got[0] == "raised"


@pytest.mark.parametrize("case", [
    "no-sidecar", "sidecar-width", "sidecar-1d", "sidecar-short", "sidecar-long",
    "lines-before-scene", "mixed-inline-and-sidecar", "sidecar-empty",
])
def test_dataset_structure(case):
    ds, specs = _dataset_text()
    inline = case in ("lines-before-scene", "mixed-inline-and-sidecar")
    lines = format_dataset(ds, inline_features=inline).splitlines()
    features = ds.features()
    if case == "no-sidecar":
        features = None
    elif case == "sidecar-width":
        features = features[:, :2]
    elif case == "sidecar-1d":
        features = features.ravel()
    elif case == "sidecar-short":
        features = features[:1]
    elif case == "sidecar-long":
        features = np.concatenate([features, features])
    elif case == "sidecar-empty":
        features = features[:0]
    elif case == "lines-before-scene":
        features = None
        lines = [lines[0], lines[2], lines[3], *lines[1:]]
    else:
        lines[3] = " ".join(lines[3].split()[:8])
        features = features[1:]
    got = _same_outcome(parse_dataset, oracle_parse_dataset, _dataset_key,
                        "\n".join(lines) + "\n", specs, "train", 0, path="d.txt",
                        features=features)
    assert got[0] == ("ok" if case == "mixed-inline-and-sidecar" else "raised")
