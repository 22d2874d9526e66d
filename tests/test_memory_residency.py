"""Freed step memory stays in the process's heap: after the first call,
train() and evaluate_split() rebuild their same-shaped buffers without the
kernel faulting pages in again (tensor.keep_heap_resident).

The fault counts are taken in a fresh interpreter, because glibc's dynamic
mmap threshold moves with everything this pytest process allocated before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gasaunet import tensor as T

SRC = Path(__file__).resolve().parents[1] / "src"

# Medians this child reads on 2 cores: with the heap kept 0 minor faults per
# warm 32^3 step and 0-50 per case (8 tiles x 8 mirrors); with glibc's
# defaults 2,300-5,500 per step and ~4,700 per case. Each bound is far from both.
# A warm batch-2 16^3 call reuses the worker process; a worker forked per
# call cost the parent ~3,800 copy-on-write faults per call, ~950 per step
# of a 4-step call.
MAX_FAULTS_PER_STEP = 100
MAX_FAULTS_PER_CASE = 200

CHILD = textwrap.dedent(
    """
    import resource, statistics, tempfile
    from pathlib import Path
    from gasaunet import backbone, cli, inference, phantom, tensor, training

    at_import = tensor._heap_kept

    def faults_of(call):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    with tempfile.TemporaryDirectory() as d:
        phantom.make_dataset(phantom.PhantomSpec(size=(32, 32, 32), seed=5), 2, Path(d), n_test=1)
        manifest, root = phantom.load_manifest(Path(d))

        # mirror TTA first: training would move glibc's dynamic threshold up
        data = training.preprocess_manifest(manifest, root, (16, 16, 16))
        model = backbone.build_model(backbone.make_backbone_config(1, data.num_classes, (16, 16, 16)), tensor.Rng(0))
        swc = inference.SlidingWindowConfig(patch_size=(16, 16, 16), overlap=0.0, tta_mirror=True)
        case = lambda: inference.evaluate_split(model.predict_logits, data, swc, 1.0)
        per_case = statistics.median([faults_of(case) for _ in range(3)][1:])

        # batch 2: where the worker process runs, warm calls reuse it
        cfg = training.TrainConfig(epochs=20, iters_per_epoch=4, batch=2, patch_size=(16, 16, 16), seed=0)
        run = {"ckpt": None, "epoch": 0}

        def call():
            run["epoch"] += 1
            run["ckpt"], _ = training.train(model, data, cfg, resume=run["ckpt"], stop_epoch=run["epoch"])

        per_batch2_step = statistics.median([faults_of(call) for _ in range(4)][2:]) / cfg.iters_per_epoch

        data = training.preprocess_manifest(manifest, root, (32, 32, 32))
        model = backbone.build_model(backbone.make_backbone_config(1, data.num_classes, (32, 32, 32)), tensor.Rng(0))
        cfg = training.TrainConfig(epochs=10, iters_per_epoch=1, batch=1, patch_size=(32, 32, 32), seed=0)
        run = {"ckpt": None, "epoch": 0}

        def step():
            run["epoch"] += 1
            run["ckpt"], _ = training.train(model, data, cfg, resume=run["ckpt"], stop_epoch=run["epoch"])

        # the heap grows to its peak over the first steps
        per_step = statistics.median([faults_of(step) for _ in range(6)][3:])
    print(at_import, tensor._heap_kept, per_step, per_case, per_batch2_step)
    """
)


@pytest.mark.skipif(T._find_mallopt() is None, reason="the C library has no mallopt")
def test_warm_steps_and_cases_fault_no_pages_in():
    child = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)}
    )
    assert child.returncode == 0, child.stderr
    at_import, kept, per_step, per_case, per_batch2_step = child.stdout.split()
    assert (at_import, kept) == ("None", "True")
    assert float(per_step) < MAX_FAULTS_PER_STEP
    assert float(per_case) < MAX_FAULTS_PER_CASE
    assert float(per_batch2_step) < MAX_FAULTS_PER_STEP


def test_without_mallopt_the_helper_is_a_silent_no_op(monkeypatch, capfd):
    monkeypatch.setattr(T, "_find_mallopt", lambda: None)
    monkeypatch.setattr(T, "_heap_kept", None)
    assert T.keep_heap_resident() is False
    assert T.keep_heap_resident() is False
    assert capfd.readouterr() == ("", "")


def test_the_helper_sets_the_allocator_once(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(T, "_find_mallopt", lambda: mallopt)
    monkeypatch.setattr(T, "_heap_kept", None)
    assert T.keep_heap_resident() is True
    assert T.keep_heap_resident() is True
    assert calls == [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 1 << 30)]
