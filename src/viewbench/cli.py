"""Command-line surface: generate, train, predict, eval, gradcheck, codec.

Commands read one YAML run config (unknown keys and values not of their
default's type are rejected, and the effective config is echoed into
every artifact for provenance), write through atomic renames, and exit 0
on success, 2 on input or config errors, 3 on numerical failures
(training divergence, gradient check over tolerance).  Equal inputs and
seeds give byte-identical outputs.  On glibc, a command run through
``entry`` hands the heap memory it freed back to the OS as it returns.

A config section takes its defaults from the parameters that have one in
what it configures: ``net`` from NetConfig, ``train`` from TrainConfig,
``loss`` from LossSpec, ``dataset`` from ``synthetic.default_benchmark``
and ``synthetic.generate``.  The config adds only its own keys (see
``_DEFAULTS``).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import yaml

from .angles import canonicalize, decode, encode
from .errors import ConfigError, DivergenceError, FormatError, ViewbenchError
from .experiments import compose_detections, pose_angles
from .gradcheck import loss_gradient_suite, net_gradient_suite
from .losses import LossSpec
from .metrics import AP_RULES, evaluate
from .net import NetConfig, TrainConfig, predict as net_predict, train
from .records import (
    atomic_write_text,
    format_eval_report,
    format_train_log,
    load_checkpoint,
    parse_detections,
    parse_ground_truths,
    read_benchmark,
    read_lines,
    read_manifest,
    read_text,
    save_checkpoint,
    write_benchmark,
    write_detections,
)
from .synthetic import (
    ClassSpec,
    benchmark_splits,
    check_class_ids,
    default_benchmark,
    default_class_specs,
    generate,
)

# glibc's malloc_trim, which hands free heap pages back to the OS (see entry).
_MALLOC_TRIM = None if sys.platform == "win32" else getattr(ctypes.CDLL(None), "malloc_trim", None)

# A class entry's keys, each with a value of the type its field takes.
_CLASS_KEYS = {f.name: {"int": 0, "float": 0.0}[f.type] for f in dataclasses.fields(ClassSpec)}


def _defaults(*targets, skip: tuple[str, ...] = ()) -> dict:
    """The parameters of the ``targets`` a section configures that have a
    default, each with its default; a ``tuple[T, ...]`` default becomes a
    list of any length."""
    return {
        p.name: list(p.default) if p.annotation.endswith(", ...]") else p.default
        for target in targets
        for p in inspect.signature(target).parameters.values()
        if p.default is not p.empty and p.name not in skip
    }


# The keyword arguments of a split's scenes, which the dataset section sets.
_SCENE_ARGS = _defaults(generate, skip=("split",))

# Every config key with its default; user configs are checked against
# this nesting too, so a key is known exactly when it has a default, and
# a value must have the type of its default (a tuple is a list of that
# length, a float any finite number).  A section takes its defaults from
# what it configures, and adds its own keys here.
_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "data": None,
    "dataset": {
        **_defaults(default_benchmark, skip=("seed",)),
        **_SCENE_ARGS,
        "features_binary": False,
        "classes": None,
    },
    "net": {**_defaults(NetConfig), "trunk_widths": [64], "head": "cls", "seed": None},
    "train": {**_defaults(TrainConfig), "seed": None, "checkpoint_every": 0},
    "loss": {**_defaults(LossSpec), "kind": "classification"},
    "predict": {"score_floor": 0.0, "split": "test"},
    "eval": {"bins": [4, 8, 16, 24], "iou": 0.5, "rule": "allpoints"},
}


# Keys whose default is None, with a value of the type a set value takes.
_UNSET_TYPES = {
    "out_dir": "",
    "data": "",
    "dataset.classes": [],
    "net.seed": 0,
    "train.seed": 0,
    "loss.sigma": 0.0,
}


def _conforms(value, example) -> bool:
    """Whether a config value has the type of the example value."""
    if isinstance(example, bool):
        return isinstance(value, bool)
    if isinstance(example, (list, tuple)):
        if not isinstance(value, list):
            return False
        if isinstance(example, tuple) and len(value) != len(example):
            return False
        return not example or all(_conforms(v, example[0]) for v in value)
    if isinstance(example, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return isinstance(value, int) if isinstance(example, int) else math.isfinite(value)
    return isinstance(value, str)


def _describe(example) -> str:
    if isinstance(example, bool):
        return "true or false"
    if isinstance(example, int):
        return "an integer"
    if isinstance(example, float):
        return "a finite number"
    if isinstance(example, str):
        return "a string"
    if not example:
        return "a list"
    items = {int: "integers", float: "finite numbers"}[type(example[0])]
    if isinstance(example, tuple):
        return f"a list of {len(example)} {items}"
    return f"a list of {items}"


def _check_value(key: str, value, example) -> None:
    if not _conforms(value, example):
        raise ConfigError(f"config key {key} must be {_describe(example)}, got {value!r}")


def _check_keys(doc: dict, known: dict, prefix: str = "") -> None:
    for key, value in doc.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        sub = known[key]
        if isinstance(sub, dict):
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key} must be a mapping")
            _check_keys(value, sub, prefix + key + ".")
        elif sub is not None:
            _check_value(prefix + key, value, sub)
        elif value is not None:
            _check_value(prefix + key, value, _UNSET_TYPES[prefix + key])


def _merge(defaults: dict, user: dict) -> dict:
    return {
        key: _merge(base, user.get(key) or {}) if isinstance(base, dict) else user.get(key, base)
        for key, base in defaults.items()
    }


def load_run_config(path: str | None, seed_override: int | None = None) -> dict:
    """Effective run config: YAML document over defaults, unknown keys
    rejected.  ``--seed`` overrides the top-level seed, which in turn
    fills any net/train seeds left null.  Seeds, ``train.checkpoint_every``
    and the loss knobs are checked against their bounds here, so every
    command refuses them before it reads any data.  An error in the
    file's config starts with the file's path."""
    if path is None:
        return _effective_config({}, seed_override)
    try:
        user = yaml.safe_load(read_text(path))
    except (yaml.YAMLError, RecursionError) as e:  # RecursionError: deep nesting
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    except FormatError as e:  # names the file and the line
        raise ConfigError(str(e)) from None
    try:
        return _effective_config(user, seed_override)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _effective_config(user, seed_override: int | None) -> dict:
    """The config of a YAML document (None for an empty one) over the
    defaults; see ``load_run_config``."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError("config must be a mapping at the top level")
    _check_keys(user, _DEFAULTS)
    classes = (user.get("dataset") or {}).get("classes") or []
    for entry in classes:
        if not isinstance(entry, dict):
            raise ConfigError("dataset.classes entries must be mappings")
        unknown = set(entry) - set(_CLASS_KEYS)
        if unknown:
            raise ConfigError(f"unknown class spec key: {sorted(unknown)[0]}")
        for key, value in entry.items():
            _check_value(f"dataset.classes.{key}", value, _CLASS_KEYS[key])
    ids = [entry.get("class_id") for entry in classes]
    if None in ids:
        raise ConfigError("every dataset.classes entry needs a class_id")
    check_class_ids(ids, "dataset.classes", ConfigError)
    cfg = _merge(_DEFAULTS, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    for section in ("net", "train"):
        if cfg[section]["seed"] is None:
            cfg[section]["seed"] = cfg["seed"]
    for key, value in (("seed", cfg["seed"]), ("net.seed", cfg["net"]["seed"]),
                       ("train.seed", cfg["train"]["seed"]),
                       ("train.checkpoint_every", cfg["train"]["checkpoint_every"]),
                       ("loss.lam", cfg["loss"]["lam"])):
        if value < 0:
            raise ConfigError(f"config key {key} must be >= 0, got {value}")
    for key, value in (("loss.delta", cfg["loss"]["delta"]), ("loss.sigma", cfg["loss"]["sigma"])):
        if value is not None and value <= 0:  # a null sigma picks the geometric loss's default
            raise ConfigError(f"config key {key} must be > 0, got {value}")
    split = cfg["predict"]["split"]
    if split not in ("train", "test"):
        raise ConfigError(f"predict.split must be 'train' or 'test', got {split!r}")
    return cfg


def _class_specs(cfg: dict) -> tuple[ClassSpec, ...]:
    ds = cfg["dataset"]
    if ds["classes"] is None:
        return default_class_specs(cfg["seed"], ds["feature_dim"], ds["noise_sigma"])
    shared = dict(seed=cfg["seed"], feature_dim=ds["feature_dim"], noise_sigma=ds["noise_sigma"])
    return tuple(ClassSpec(**{**shared, **entry}) for entry in ds["classes"])


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out_dir")
    if not out:
        raise ConfigError("no output location: pass --out or set out_dir in the config")
    return Path(out)


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args, cfg)
    ds = cfg["dataset"]
    splits = benchmark_splits(
        cfg["seed"], ds["n_train_scenes"], ds["n_test_scenes"], _class_specs(cfg),
        **{key: tuple(ds[key]) if isinstance(default, tuple) else ds[key]
           for key, default in _SCENE_ARGS.items()},
    )
    # each split is made while write_benchmark stages it, so one is in memory at a time
    manifest = write_benchmark(
        out,
        *splits,
        config_echo=cfg,
        features_binary=ds["features_binary"],
    )
    splits = json.loads(read_text(manifest))["splits"]
    for name in ("train", "test"):
        e = splits[name]
        print(
            f"{name}: {e['n_scenes']} scenes, {e['n_gt']} ground truths, "
            f"{e['n_proposals']} proposals"
        )
    print(f"manifest: {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args, cfg)
    if not cfg["data"]:
        raise ConfigError("config needs 'data': path to a benchmark manifest")
    # the net is checked against the manifest's roster before the split is read
    _, specs = read_manifest(Path(cfg["data"]))
    try:
        net_cfg = NetConfig(input_dim=specs[0].feature_dim, n_classes=len(specs), **cfg["net"])
    except ConfigError as e:
        raise ConfigError(f"config section net: {e}") from None
    train_ds, _, _ = read_benchmark(Path(cfg["data"]), split="train")
    tdict = dict(cfg["train"])
    every = tdict.pop("checkpoint_every")
    tcfg = TrainConfig(**tdict)
    loss = LossSpec(**cfg["loss"])
    extra = {"config": cfg, "loss": dataclasses.asdict(loss), "train": dataclasses.asdict(tcfg)}
    out.mkdir(parents=True, exist_ok=True)

    def checkpoint_cb(t, params, value):
        if every and (t + 1) % every == 0 and (t + 1) < tcfg.total_iters:
            save_checkpoint(
                out / f"checkpoint_{t + 1:06d}.txt", params, net_cfg, t + 1, extra
            )

    result = train(train_ds, net_cfg, tcfg, loss, callback=checkpoint_cb if every else None)
    save_checkpoint(out / "checkpoint.txt", result.params, net_cfg, tcfg.total_iters, extra)
    atomic_write_text(out / "train_log.txt", format_train_log(result.log))
    last = result.log[-1]
    print(
        f"trained {cfg['net']['head']} head for {tcfg.total_iters} iterations; "
        f"final probe loss/sample {last.loss_per_sample:.6g}"
    )
    print(f"checkpoint: {out / 'checkpoint.txt'}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    ckpt = load_checkpoint(args.checkpoint)
    split = cfg["predict"]["split"]
    train_ds, test_ds, _ = read_benchmark(Path(args.data), split=split)
    ds = train_ds if split == "train" else test_ds
    if ckpt.net.input_dim != ds.feature_dim:
        raise ConfigError(
            f"checkpoint expects {ckpt.net.input_dim}-dim features, "
            f"dataset has {ds.feature_dim}"
        )
    if ckpt.net.n_classes != ds.n_classes:
        raise ConfigError(
            f"checkpoint covers {ckpt.net.n_classes} classes, dataset has {ds.n_classes}"
        )
    scores, angles = pose_angles(net_predict(ckpt.params, ckpt.net, ds.features()))
    floor = cfg["predict"]["score_floor"]
    dets = compose_detections(ds, scores, angles, floor=floor)
    write_detections(args.out, dets)
    print(f"{len(dets)} detections ({ckpt.net.head} head, floor {floor}) -> {args.out}")
    return 0


def _print_report(report, bins) -> None:
    header = f"{'class':>8} {'n_gt':>6} {'AP':>8}" + "".join(f"{'AVP' + str(k):>8}" for k in bins)
    print(header)
    for c, m in sorted(report.per_class.items()):
        if m.n_gt == 0:
            row = f"{c:>8} {m.n_gt:>6} {'-':>8}" + "".join(f"{'-':>8}" for _ in bins)
        else:
            row = f"{c:>8} {m.n_gt:>6} {m.ap:>8.4f}" + "".join(
                f"{m.avp[k]:>8.4f}" for k in bins
            )
        print(row)
    print(
        f"{'mean':>8} {'':>6} {report.mean_ap:>8.4f}"
        + "".join(f"{report.mean_avp[k]:>8.4f}" for k in bins)
    )


def _seed(text: str) -> int:
    """--seed value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {seed}")
    return seed


def _bin_counts(text: str) -> tuple[int, ...]:
    """--bins value: comma-separated AVP bin counts, each at least 2."""
    try:
        bins = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if any(b < 2 for b in bins):
        raise argparse.ArgumentTypeError(f"bin counts must be >= 2, got {text!r}")
    return bins


def cmd_eval(args) -> int:
    bins = args.bins
    gts = parse_ground_truths(read_lines(args.gt), path=args.gt)
    dets = parse_detections(read_lines(args.det), path=args.det)
    report = evaluate(gts, dets, bins=bins, iou_threshold=args.iou, rule=args.ap_rule)
    _print_report(report, bins)
    if args.out:
        echo = {
            "gt": str(args.gt),
            "det": str(args.det),
            "bins": list(bins),
            "iou": args.iou,
            "rule": args.ap_rule,
        }
        atomic_write_text(args.out, format_eval_report(report, echo))
        print(f"report: {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = loss_gradient_suite(args.seed, corrupt=args.corrupt)
    results += net_gradient_suite(args.seed, corrupt=args.corrupt)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<55} slots={r.n_slots:<5} max_rel_err={r.max_rel_err:.3e} "
              f"tol={r.tolerance:.0e} {status}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 3 if failed else 0


def cmd_codec(args) -> int:
    dim = {"2d": 2, "3d": 3}[args.kind]
    theta = canonicalize(math.radians(args.angle_deg))
    emb = encode(theta, dim)
    round_trip = math.degrees(decode(emb))
    print(f"encode({args.angle_deg:g} deg, {args.kind}) = ["
          + ", ".join(format(v, ".12g") for v in emb) + "]")
    print(f"decode round trip = {round_trip:.12g} deg")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewbench",
        description="Synthetic detection+viewpoint benchmark: data generation, "
        "training, prediction, evaluation, and gradient verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run config")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")

    p = sub.add_parser("generate", help="generate a seeded benchmark dataset")
    common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a network on a generated dataset")
    common(p)
    p.add_argument("--out", help="output directory for checkpoint and log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write detections for a dataset split")
    p.add_argument("checkpoint", help="checkpoint file")
    p.add_argument("data", help="benchmark manifest")
    common(p)
    p.add_argument("--out", required=True, help="output detection file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("gt", help="ground-truth record file")
    p.add_argument("det", help="detection record file")
    scoring = _defaults(evaluate)
    p.add_argument("--bins", type=_bin_counts, default=scoring["bins"],
                   help="comma-separated AVP bin counts")
    p.add_argument("--iou", type=float, default=scoring["iou_threshold"], help="IoU match threshold")
    p.add_argument("--ap-rule", choices=AP_RULES, default=scoring["rule"])
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="test hook: corrupt one slot so the suite must fail")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("codec", help="print an angle embedding and its round trip")
    p.add_argument("angle_deg", type=float)
    p.add_argument("kind", choices=("2d", "3d"))
    p.set_defaults(func=cmd_codec)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as e:
        where = f" at iteration {e.iteration}" if e.iteration is not None else ""
        print(f"error: training diverged{where}: {e}", file=sys.stderr)
        return 3
    except (ViewbenchError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        # glibc holds back part of the heap a command freed, an amount that
        # follows the address-space layout, and a later command run through
        # entry in the same process would peak on top of it.
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(ctypes.c_size_t(0))


if __name__ == "__main__":
    sys.exit(entry())
