"""Peak memory of the record I/O and of prediction, traced by tracemalloc.

A data file is streamed to disk and read back line by line, and the work
after ``net.predict``'s forward pass runs in row blocks, so the peak of each
step is set by what it keeps, not by a whole-text or whole-batch copy.  The
bounds below were set from measurements (CPython 3.11, NumPy 2.4): for a
3.2 MB data file the streamed writer peaked at 0.29 of the file's size above
its start and the line reader at 0.007 above the dataset it returned (0.35
and 0.017 with the proposal table); the whole-text writer and reader they
replaced peaked at 3.1 and 2.1.  The reader writes each prop line into
the split's proposal table, allocated once from the manifest's count: the
split it returned kept 12.5 KB (0.8 %) above its columns' ``nbytes`` and
its ground-truth records (the manifest, class specs and table objects),
1.56 MB in all, where the one record and one feature array per proposal
that the table replaced kept 2.96 MB.  A joint_cls prediction over six blocks peaked at 0.46 of one block's
(rows, classes, bins) array below its forward arrays plus its (rows,
classes) outputs: its block work, which takes no softmax over the bins,
stays under the forward pass's peak.  With a per-class softmax kept as
an output it peaked at 0.4 blocks above, and the whole-batch computation
at 8 blocks above.  A batch of one block, as in the experiments, must
peak no higher than the whole-batch computation did, but for its (rows,
classes) outputs: each softmax writes into its output.
Given as callables, the splits of a benchmark are made and staged one at a
time: while the test split is made, the train split's Dataset is gone, and
writing two splits of 400 scenes peaked 0.02 of one split's traced size
below writing one beside an empty test split; both splits held at once
would add a whole split.
The finite-difference check of the widest loss of the gradient suite (8
rows of 5 x 360 joint classification logits) stacks its perturbed rows in
blocks of ``gradcheck.BLOCK_DOUBLES`` (2^17) doubles; it peaked at 4.8 such
blocks, against 21.8 with all 256 checked slots in one block.
"""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from test_streaming_equivalence import oracle_predict

from viewbench import gradcheck, net
from viewbench.losses import JointClsOutputs, joint_classification_loss
from viewbench.records import read_benchmark, write_benchmark
from viewbench.synthetic import default_class_specs, generate


@pytest.fixture(scope="module")
def split():
    """A train split whose data file is about 3 MB."""
    return generate(1, 400, default_class_specs(feature_dim=32), split="train")


def _traced(fn):
    """``fn()``'s result, its traced peak above the start, and the traced
    memory still allocated above the start when it returned."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start, current - start


def test_write_benchmark_streams(split, tmp_path):
    empty = generate(2, 0, split.class_specs, split="test")
    _, peak, _ = _traced(lambda: write_benchmark(tmp_path, split, empty))
    size = (tmp_path / "train_data.txt").stat().st_size
    assert size > 3_000_000
    assert peak < 0.5 * size, (peak, size)


def test_one_split_in_memory_at_a_time(tmp_path):
    specs = default_class_specs(feature_dim=8)
    made = []

    def make(seed, split):
        def split_maker():
            assert all(ref() is None for ref in made), "an earlier split is still alive"
            ds = generate(seed, 6, specs, split=split)
            made.append(weakref.ref(ds))
            return ds
        return split_maker

    write_benchmark(tmp_path, make(1, "train"), make(2, "test"))
    assert len(made) == 2


def test_two_splits_peak_as_one(split, tmp_path):
    specs, n = split.class_specs, len(split.scenes)
    _, size, _ = _traced(lambda: generate(1, n, specs, split="train"))
    _, one, _ = _traced(lambda: write_benchmark(
        tmp_path / "one", lambda: generate(1, n, specs, split="train"),
        lambda: generate(2, 0, specs, split="test"),
    ))
    _, two, _ = _traced(lambda: write_benchmark(
        tmp_path / "two", lambda: generate(1, n, specs, split="train"),
        lambda: generate(3, n, specs, split="test"),
    ))
    assert two < one + 0.25 * size, (two, one, size)


def test_read_benchmark_reads_by_line(split, tmp_path):
    empty = generate(2, 0, split.class_specs, split="test")
    manifest = write_benchmark(tmp_path, split, empty)
    size = (tmp_path / "train_data.txt").stat().st_size
    (ds, _, _), peak, kept = _traced(lambda: read_benchmark(manifest, split="train"))
    assert ds.n_samples == split.n_samples
    assert peak - kept < 0.05 * size, (peak - kept, size)


def _deep_size(root) -> int:
    """Bytes of ``root`` and of every object it reaches, classes aside."""
    seen, todo, size = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return size


def test_read_split_keeps_its_table_and_ground_truths(split, tmp_path):
    empty = generate(2, 0, split.class_specs, split="test")
    manifest = write_benchmark(tmp_path, split, empty)
    (ds, _, _), _, kept = _traced(lambda: read_benchmark(manifest, split="train"))
    t = ds.proposals
    columns = sum(c.nbytes for c in (t.scene, t.boxes, t.features, t.matched_gt, t.iou,
                                     t.noise_seed))
    assert columns == ds.n_samples * (8 * 4 + 8 * 32 + 8 * 4)
    records = _deep_size(ds.scenes)  # scenes, ground truths, boxes, their values
    assert kept - columns - records < 0.02 * kept, (kept, columns, records)


def test_features_are_the_table(split, tmp_path):
    empty = generate(2, 0, split.class_specs, split="test")
    ds, _, _ = read_benchmark(write_benchmark(tmp_path, split, empty), split="train")
    feats = ds.features()
    assert np.shares_memory(feats, ds.proposals.features) and not feats.flags.writeable
    assert feats.shape == (split.n_samples, 32) and feats.flags.c_contiguous


def test_predict_post_processes_in_blocks():
    cfg = net.NetConfig(input_dim=32, trunk_widths=(64,), head="joint_cls", n_classes=4)
    params = net.init_params(cfg)
    b = 6 * net.PREDICT_BLOCK + 5
    x = np.random.default_rng(0).standard_normal((b, 32))
    pred, peak, _ = _traced(lambda: net.predict(params, cfg, x))
    slots = cfg.n_classes * cfg.n_bins
    forward_arrays = b * (64 + slots + 1) * 8  # the hidden layer and the head
    outputs = pred.scores.nbytes + pred.azimuths.nbytes
    assert peak < forward_arrays + outputs, (peak, forward_arrays, outputs)


@pytest.mark.parametrize("head", ["cls", "joint_cls"])
def test_one_block_predict_peak(head):
    cfg = net.NetConfig(input_dim=32, trunk_widths=(64,), head=head, n_classes=4)
    params = net.init_params(cfg)
    x = np.random.default_rng(0).standard_normal((1013, 32))
    _, whole, _ = _traced(lambda: oracle_predict(params, cfg, x))
    pred, peak, _ = _traced(lambda: net.predict(params, cfg, x))
    assert peak <= whole + 2 * pred.azimuths.nbytes, (peak, whole)


def test_gradient_check_stacks_rows_in_blocks():
    rng = np.random.default_rng(0)
    b, n_classes, n_bins = 8, 5, 360
    outputs = JointClsOutputs(
        rng.normal(0.0, 2.0, (b, n_classes, n_bins)), rng.normal(0.0, 2.0, b)
    )
    targets = gradcheck._random_targets(rng, b, n_classes, with_background=True)
    res, peak, _ = _traced(
        lambda: gradcheck.check_loss(joint_classification_loss, outputs, targets)
    )
    assert res.passed and res.n_slots > 200
    block = 8 * 2**17  # bytes of one block of 2^17 doubles
    assert peak < 6 * block, (peak, block)
