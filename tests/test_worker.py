"""The worker process that outlives calls (gasaunet.worker): when train()
and mirror TTA reuse it and when they fork a fresh one, that its results are
bitwise the one-process results, that a model changed outside it is never
served stale, and that it fails loudly and leaves no process behind."""

import functools
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from gasaunet import inference, training, worker
from gasaunet.errors import WorkerError
from gasaunet.inference import SlidingWindowConfig
from gasaunet.tensor import Rng

from test_training import assert_reaped, assert_same_run, forked_pids, in_worker, split_cfg, tiny_data, tiny_model

two_processes = pytest.mark.skipif(not worker.usable(), reason="this process cannot run a worker")

SWC = SlidingWindowConfig(patch_size=(8, 8, 8), tta_mirror=True)
SRC = Path(__file__).resolve().parents[1] / "src"


def volume(seed=3, size=10):
    return Rng(seed).normal_array(size ** 3).reshape(1, size, size, size)


def serial_tta(fn, vol):
    return inference._tta_mirror(fn, vol, SWC, False)


def worker_pid():
    return worker._current.pid if worker._current is not None else None


def running(pid: int) -> bool:
    """Whether process `pid` exists and is neither a zombie nor dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@two_processes
def test_tta_in_two_processes_is_bitwise_one_process():
    model, vol = tiny_model(), volume()
    want = serial_tta(model.predict_logits, vol)
    got = inference.tta_mirror_predict(model.predict_logits, vol, SWC)
    assert worker_pid() is not None
    assert got.tobytes() == want.tobytes()


@two_processes
def test_evaluate_split_scores_are_bitwise_one_process(monkeypatch):
    data, model = tiny_data(n_test=2), tiny_model()
    two = inference.evaluate_split(model.predict_logits, data, SWC, 1.0)
    monkeypatch.setattr(worker, "usable", lambda: False)
    one = inference.evaluate_split(model.predict_logits, data, SWC, 1.0)
    assert two["cases"] == one["cases"] and two["summary"] == one["summary"]


@two_processes
def test_train_and_evaluate_split_reuse_one_worker():
    data, model, cfg = tiny_data(), tiny_model(), split_cfg()
    ckpt, _ = training.train(model, data, cfg, stop_epoch=1)
    pid = worker_pid()
    inference.evaluate_split(model.predict_logits, data, SWC, 1.0)
    training.train(model, data, cfg, resume=ckpt)
    inference.evaluate_split([model.predict_logits, model.predict_logits], data, SWC, 1.0)
    assert pid is not None and worker_pid() == pid


@two_processes
def test_a_resumed_run_in_one_worker_is_bitwise_an_unbroken_one():
    data, cfg = tiny_data(), split_cfg(epochs=3)
    want = training.train(tiny_model(), data, cfg)
    model = tiny_model()
    ckpt, log = training.train(model, data, cfg, stop_epoch=1)
    pid = worker_pid()
    ckpt, rest = training.train(model, data, cfg, resume=ckpt)
    assert worker_pid() == pid
    assert_same_run((ckpt, log + rest), want)


@two_processes
@pytest.mark.parametrize("change", ["model", "data", "callable", "larger batch", "smaller batch", "tta then train"])
def test_a_call_naming_another_object_forks_a_fresh_worker(change):
    data, model, cfg = tiny_data(), tiny_model(), split_cfg()
    if change == "tta then train":   # a worker forked for TTA shares no step buffers
        inference.tta_mirror_predict(model.predict_logits, volume(), SWC)
        pid = worker_pid()
        training.train(model, data, cfg)
        trained = worker_pid()
        inference.evaluate_split(model.predict_logits, data, SWC, 1.0)
        assert worker_pid() == trained
    elif change == "callable":
        stub = lambda x: x[:1].repeat(2, axis=0)  # noqa: E731
        inference.tta_mirror_predict(stub, volume(), SWC)
        pid = worker_pid()
        inference.tta_mirror_predict(stub, volume(), SWC)
        assert worker_pid() == pid
        inference.tta_mirror_predict(lambda x: x[:1].repeat(2, axis=0), volume(), SWC)
    else:
        if change == "smaller batch":   # batch 4 gives the worker 2 samples per step, batch 2 one
            cfg = split_cfg(batch=4)
        training.train(model, data, cfg)
        pid = worker_pid()
        if change == "model":
            training.train(tiny_model(), data, cfg)
        elif change == "data":
            training.train(model, tiny_data(), cfg)
        else:
            training.train(model, data, split_cfg(batch=6 - cfg.batch))
    assert worker_pid() not in (None, pid)


@two_processes
def test_a_batch_of_three_after_two_reuses_the_worker_bitwise():
    """Batches 2 and 3 both give the worker one sample per step."""
    data, cfg = tiny_data(), split_cfg(batch=3)
    want = training._train(tiny_model(), data, cfg, None, None, None, False)
    model = tiny_model()
    training.train(model, data, split_cfg(batch=2))
    pid = worker_pid()
    for (_, p), (_, start) in zip(model.named_params(), tiny_model().named_params()):
        p.data[...] = start.data
    assert_same_run(training.train(model, data, cfg), want)
    assert pid is not None and worker_pid() == pid


@two_processes
def test_a_smaller_batch_after_a_larger_one_is_bitwise_one_process():
    """The batch-2 call reuses the worker that the batch-3 call forked: both
    give it one sample, one row, per step."""
    data, cfg = tiny_data(), split_cfg(batch=2)
    want = training._train(tiny_model(), data, cfg, None, None, None, False)
    model = tiny_model()
    training.train(model, data, split_cfg(batch=3))
    for (_, p), (_, start) in zip(model.named_params(), tiny_model().named_params()):
        p.data[...] = start.data
    assert_same_run(training.train(model, data, cfg), want)


@two_processes
def test_an_ensemble_registers_every_member_at_once():
    data, a, b = tiny_data(), tiny_model(1), tiny_model(2)
    pids = set()
    for _ in range(2):
        inference.evaluate_split([a.predict_logits, b.predict_logits], data, SWC, 1.0)
        pids.add(worker_pid())
    assert len(pids) == 1


@two_processes
def test_a_callable_is_refreshed_after_an_optimizer_step_the_worker_did_not_take():
    """A forked copy of a closure holds the model as it was at the fork; a
    one-process (batch 1) step moves the parent's model only."""
    data, model, vol = tiny_data(), tiny_model(), volume()
    fn = lambda x: model.predict_logits(x)  # noqa: E731
    inference.tta_mirror_predict(fn, vol, SWC)
    pid = worker_pid()
    training.train(model, data, training.TrainConfig(epochs=2, iters_per_epoch=2, batch=1, patch_size=(8, 8, 8)))
    assert worker_pid() == pid   # a batch-1 call does not use the worker
    got = inference.tta_mirror_predict(fn, vol, SWC)
    assert worker_pid() == pid
    assert got.tobytes() == serial_tta(fn, vol).tobytes()


_global_model = None


def _predict_with_global_model(x):
    return _global_model.predict_logits(x)


@two_processes
@pytest.mark.parametrize("change", ["optimizer step", "parameter copy"])
@pytest.mark.parametrize("reach", ["closure cell", "module global", "bound method"])
def test_every_model_the_worker_holds_is_refreshed_on_every_call(monkeypatch, reach, change):
    """A model changed in place between two calls, outside train() and
    outside the worker, is served with its new parameters by the same
    worker."""
    model, vol = tiny_model(), volume()
    monkeypatch.setitem(globals(), "_global_model", model)
    fn = {
        "closure cell": lambda x: model.predict_logits(x),
        "module global": _predict_with_global_model,
        "bound method": model.predict_logits,
    }[reach]
    before = inference.tta_mirror_predict(fn, vol, SWC)
    pid = worker_pid()
    named = list(model.named_params())
    if change == "optimizer step":
        for _, p in named:
            p.grad = np.full_like(p.data, 0.5)
        training.sgd_nesterov_step(named, {name: np.zeros_like(p.data) for name, p in named}, 0.1, 0.9)
    else:
        for (_, p), (_, other) in zip(named, tiny_model(2).named_params()):
            p.data[...] = other.data
    got = inference.tta_mirror_predict(fn, vol, SWC)
    assert worker_pid() == pid
    assert got.tobytes() != before.tobytes()
    assert got.tobytes() == serial_tta(fn, vol).tobytes()


def _predict(model, x):
    return model.predict_logits(x)


class _Predictor:
    def __init__(self, model):
        self.model = model

    def predict(self, x):
        return self.model.predict_logits(x)

    __call__ = predict


@two_processes
@pytest.mark.parametrize("reach", ["functools.partial", "callable object"])
def test_a_model_reached_through_another_object_is_current_after_an_in_place_step(reach):
    """The worker holds no such model, but it reads its parameters from
    the mapping the model shares with the parent."""
    model, vol = tiny_model(), volume()
    fn = functools.partial(_predict, model) if reach == "functools.partial" else _Predictor(model)
    before = inference.tta_mirror_predict(fn, vol, SWC)
    pid = worker_pid()
    named = list(model.named_params())
    for _, p in named:
        p.grad = np.full_like(p.data, 0.5)
    training.sgd_nesterov_step(named, {name: np.zeros_like(p.data) for name, p in named}, 0.1, 0.9)
    got = inference.tta_mirror_predict(fn, vol, SWC)
    assert worker_pid() == pid
    assert got.tobytes() != before.tobytes()
    assert got.tobytes() == serial_tta(fn, vol).tobytes()


@two_processes
def test_a_bound_method_counts_as_its_instance():
    """Each attribute access makes a new method object; its instance stays."""
    model, vol = tiny_model(), volume()
    predictor = _Predictor(model)
    want = serial_tta(predictor.predict, vol)
    pids = set()
    for _ in range(3):
        assert inference.tta_mirror_predict(predictor.predict, vol, SWC).tobytes() == want.tobytes()
        pids.add(worker_pid())
    assert len(pids) == 1 and None not in pids


def _ids(pair, *objects):
    """A job: the ids of the objects it is given, in the worker."""
    return [id(o) for o in objects]


@two_processes
def test_registered_objects_cross_by_reference_and_the_rest_by_value():
    model, data, vol = tiny_model(), tiny_data(), volume()
    closure = lambda x: model.predict_logits(x)  # noqa: E731
    with worker.section([model, data, closure]) as pair:
        pair.submit(_ids, model, data, closure, vol)
        got = pair.result()
    assert got[:3] == [id(model), id(data), id(closure)]
    assert got[3] != id(vol)   # the worker's copy of the parent's vol is alive, so an unpickled one has another id


def _unwrapped(method):
    """A decorator without functools.wraps: the method's __name__ is "wrapper"."""
    def wrapper(self, x):
        return method(self, x)
    return wrapper


class _Unnamed:
    """Bound methods whose __name__ is not the attribute they are found under."""
    def __init__(self, model):
        self.model = model

    by_lambda = lambda self, x: self.model.predict_logits(x)  # noqa: E731

    @_unwrapped
    def by_wrapper(self, x):
        return self.model.predict_logits(x)

    def __mangled(self, x):
        return self.model.predict_logits(x)

    def mangled(self):
        return self.__mangled


@two_processes
@pytest.mark.parametrize("how", ["lambda class attribute", "decorator without wraps", "name-mangled"])
def test_a_bound_method_not_found_under_its_name_crosses_as_itself(how):
    """getattr(instance, __name__) would not find it, so it is registered as itself."""
    unnamed, vol = _Unnamed(tiny_model()), volume()
    fn = {"lambda class attribute": unnamed.by_lambda, "decorator without wraps": unnamed.by_wrapper,
          "name-mangled": unnamed.mangled()}[how]
    assert inference.tta_mirror_predict(fn, vol, SWC).tobytes() == serial_tta(fn, vol).tobytes()
    assert worker_pid() is not None


@two_processes
def test_a_callable_that_now_reaches_another_model_forks_a_fresh_worker():
    model, vol = tiny_model(1), volume()

    def fn(x):
        return model.predict_logits(x)

    inference.tta_mirror_predict(fn, vol, SWC)
    pid = worker_pid()
    model = tiny_model(2)
    got = inference.tta_mirror_predict(fn, vol, SWC)
    assert worker_pid() not in (None, pid)
    assert got.tobytes() == serial_tta(fn, vol).tobytes()


@two_processes
def test_a_model_trained_outside_the_worker_is_not_served_stale():
    data, model, vol = tiny_data(), tiny_model(), volume()
    before = inference.tta_mirror_predict(model.predict_logits, vol, SWC)
    pid = worker_pid()
    training.train(model, data, training.TrainConfig(epochs=2, iters_per_epoch=2, batch=1, patch_size=(8, 8, 8)))
    after = inference.tta_mirror_predict(model.predict_logits, vol, SWC)
    assert worker_pid() == pid
    assert after.tobytes() != before.tobytes()
    assert after.tobytes() == serial_tta(model.predict_logits, vol).tobytes()


def test_without_a_second_cpu_nothing_is_forked(monkeypatch):
    data, vol = tiny_data(), volume()
    want_tta = serial_tta(tiny_model().predict_logits, vol)
    want_run = training._train(tiny_model(), data, split_cfg(), None, None, None, False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert inference.tta_mirror_predict(tiny_model().predict_logits, vol, SWC).tobytes() == want_tta.tobytes()
    assert_same_run(training.train(tiny_model(), data, split_cfg()), want_run)
    assert worker._current is None


def test_a_batch_of_one_creates_no_worker(monkeypatch):
    monkeypatch.setattr(worker, "Worker", None)   # any attempt to make one raises
    training.train(tiny_model(), tiny_data(), split_cfg(batch=1))
    assert worker._current is None


@two_processes
def test_an_exception_in_a_worker_pass_names_the_pass(monkeypatch):
    def fn(x):
        if in_worker():
            raise ValueError("bad tile")
        return np.stack([x[0], -x[0]])

    pids = forked_pids(monkeypatch)
    with pytest.raises(WorkerError, match=r"^mirror pass 4 raised in the worker: ValueError: bad tile"):
        inference.tta_mirror_predict(fn, volume(), SWC)
    assert worker._current is None
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


@two_processes
@pytest.mark.parametrize("job", ["mirror passes", "training steps"])
def test_a_long_worker_failure_arrives_whole(monkeypatch, job):
    """A reply longer than the pipe holds, read while the parent spins."""
    text, real = "x" * 200_000, training.sample_loss

    def failing(*args):
        if in_worker():
            raise ValueError(text)
        return real(*args) if job == "training steps" else np.stack([args[0][0], -args[0][0]])

    pids = forked_pids(monkeypatch)
    with pytest.raises(WorkerError) as raised:
        if job == "mirror passes":
            inference.tta_mirror_predict(failing, volume(), SWC)
        else:
            monkeypatch.setattr(training, "sample_loss", failing)
            training.train(tiny_model(), tiny_data(), split_cfg())
    doing = "mirror pass 4" if job == "mirror passes" else "sample 1 of epoch 0, iteration 0"
    assert str(raised.value) == f"{doing} raised in the worker: ValueError: {text}"
    if hasattr(raised.value, "add_note"):
        (note,) = raised.value.__notes__
        assert note.startswith("Traceback") and note.endswith(f"ValueError: {text}\n")
    assert worker._current is None
    assert_reaped(pids)


@two_processes
@pytest.mark.parametrize("job", ["mirror passes", "training steps"])
def test_a_worker_killed_mid_job_raises_naming_the_pass_or_step(monkeypatch, job):
    real = training.sample_loss
    calls = [0]

    def dying(*args):
        if in_worker():
            calls[0] += 1
            if calls[0] == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args) if job == "training steps" else np.stack([args[0][0], -args[0][0]])

    if job == "mirror passes":
        with pytest.raises(WorkerError, match=r"died \(wait status 9\) during mirror pass 4$"):
            inference.tta_mirror_predict(dying, volume(), SWC)
    else:
        monkeypatch.setattr(training, "sample_loss", dying)
        with pytest.raises(WorkerError, match=r"died \(wait status 9\) during sample 1 of epoch 0, iteration 2$"):
            training.train(tiny_model(), tiny_data(), split_cfg())
    assert worker._current is None


@two_processes
def test_close_leaves_no_child():
    training.train(tiny_model(), tiny_data(), split_cfg())
    pid = worker_pid()
    assert running(pid)
    worker.close()
    assert worker._current is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CHILD = textwrap.dedent(
    """
    import sys, time
    import numpy as np
    from gasaunet import inference, worker
    vol = np.random.default_rng(0).normal(size=(1, 10, 10, 10))
    swc = inference.SlidingWindowConfig(patch_size=(8, 8, 8), tta_mirror=True)
    inference.tta_mirror_predict(lambda x: np.stack([x[0], -x[0]]), vol, swc)
    print(worker._current.pid, flush=True)
    if sys.argv[1] == "wait":
        time.sleep(60)
    """
)


@two_processes
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_a_parent_that_exits_or_is_killed_leaves_no_worker_running(end):
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, "wait" if end == "kill" else "exit"],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        pid = int(child.stdout.readline())
        if end == "kill":
            child.kill()
        child.wait(timeout=30)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    deadline = time.monotonic() + 10
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(pid)
