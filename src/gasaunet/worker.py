"""One worker process that shares the work of training steps and mirror TTA.

The worker is forked on the first call that can use it and outlives that
call. It takes two kinds of job, each a module-level function that it runs
on its copies of the objects the job names:
- samples [ceil(B/2), B) of a train() call's steps (training._worker_steps),
  exchanging gradients with the parent through the shared mapping;
- mirror passes 4-7 of one volume (inference._far_passes), whose sum it
  sends back.

Reuse. The fork registers the objects of its call: the GasaUNet and
PreparedData of a train() call, the model callables of a TTA call (a bound
predict_logits counts as its GasaUNet, any other object as itself, by `is`).
The worker holds the GasaUNets they reach: each one named, the `__self__` of
a bound method, and those among a Python function's closure cells and the
globals it names. A later call reuses the worker if every object it names is
registered and reaches the same models, and a train() call if its batch is
the one the mapping was sized for; any other call forks a fresh worker. The
registry keeps all of them alive, so no id is reused.

The one rule: on every job, every GasaUNet that the worker holds gets the
parent's current parameters (and a train() job's model its momentum),
copied through the mapping. Nothing else of a forked copy is refreshed: a
model reached only through another object (a callable object's attribute, a
closure inside a closure, a functools.partial) and the data of a train()
call must not change in place between calls; pass a new object, or call
`close()`.

Between jobs the worker blocks on a pipe, using no CPU; it exits on EOF,
which it reads when the parent dies, and it ignores SIGINT. `close()` reaps
it; an atexit hook calls it. Any exception inside a two-process section
kills and reaps the worker, and a worker that raises or dies raises
WorkerError in the parent, naming the step or mirror pass it was on.
BLAS runs one thread in the worker for its whole life and in the parent
inside a `section` only.

The worker is forked rather than spawned: it needs copies of the
registered objects, and a callable such as a closure cannot be pickled. The
parent forks it inside a section, where its OpenBLAS runs one thread.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import inspect
import mmap
import os
import pickle
import platform
import signal
import traceback

import numpy as np

from . import tensor as T
from .backbone import GasaUNet
from .errors import WorkerError

# int64 slots at the start of the shared mapping: the last training step
# each process posted (the worker's is -1 once it failed), and the lengths
# of the worker's error message and of its note of what it is doing
_PARENT_STEP, _WORKER_STEP, _ERROR_BYTES, _NOTE_BYTES = range(4)
_SLOTS = 4
_ERROR_ROOM = 1 << 16
_NOTE_ROOM = 256
_SPINS_PER_CHECK = 1 << 14

_current: Worker | None = None


@functools.lru_cache(maxsize=None)
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that NumPy loaded, or
    None where no such pair is found."""
    found = T.openblas_functions(*(
        (f"{stem}_get_num_threads{suffix}", f"{stem}_set_num_threads{suffix}")
        for stem, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))
    ))
    if found is None:
        return None
    get, put = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def usable() -> bool:
    """Whether this process can run a worker: 2 or more usable CPUs,
    os.fork, the OpenBLAS thread-count getter and setter, and an x86-64
    CPU. The processes publish training buffers before their flags, and
    Python has no memory fence, so this relies on x86-64 making stores
    visible in program order."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        hasattr(os, "fork")
        and platform.machine().lower() in ("x86_64", "amd64")
        and affinity is not None
        and len(affinity(0)) >= 2
        and openblas_threads() is not None
    )


def views(flat: np.ndarray, named: list) -> list[np.ndarray]:
    """One view of `flat` per (name, parameter), shaped like it, in order."""
    out, at = [], 0
    for _, p in named:
        out.append(flat[at : at + p.size].reshape(p.shape))
        at += p.size
    return out


def _stands_for(obj):
    """The GasaUNet of a bound predict_logits, else the object itself."""
    owner = getattr(obj, "__self__", None)
    if isinstance(owner, GasaUNet) and getattr(obj, "__func__", None) is GasaUNet.predict_logits:
        return owner
    return obj


def _held(obj) -> tuple:
    """The GasaUNets a registered object reaches (see the module docstring)."""
    if inspect.isfunction(obj):
        found = inspect.getclosurevars(obj)
        reached = [*found.nonlocals.values(), *found.globals.values()]
    else:
        reached = [obj.__self__ if inspect.ismethod(obj) else obj]
    return tuple(m for m in reached if isinstance(m, GasaUNet))


class Worker:
    """The forked worker and the anonymous mapping it shares with the parent.

    The mapping holds the int64 slots; a parameter region per held GasaUNet;
    for a train() call (batch > 0), the model's momentum region and two sets
    of step buffers (for odd and for even steps), each one gradient row and
    one loss per sample of the batch; then room for the worker's error
    message and its note.
    """

    def __init__(self, objects: list, batch: int):
        self.objects = {id(o): o for o in objects}
        self.held = {id(o): _held(o) for o in objects}
        self.batch = batch
        models = list({id(m): m for held in self.held.values() for m in held}.values())
        named = [pair for m in models for pair in m.named_params()]   # of every held model
        size = sum(p.size for _, p in named)
        own = list(models[0].named_params()) if batch else []   # of the model a train() call steps
        n = sum(p.size for _, p in own)
        floats = size + n + 2 * batch * (n + 1)
        self._map = mmap.mmap(-1, 8 * (_SLOTS + floats) + _ERROR_ROOM + _NOTE_ROOM)
        self.flags = np.frombuffer(self._map, np.int64, _SLOTS)
        flat = np.frombuffer(self._map, np.float64, floats, 8 * _SLOTS)
        self.params = list(zip((p for _, p in named), views(flat[:size], named)))   # (parameter, its region)
        self.moms = list(zip((name for name, _ in own), views(flat[size : size + n], own)))
        sets = flat[size + n :].reshape(2, batch * (n + 1))
        self.rows = [[views(row, own) for row in rows.reshape(batch, n)] for rows in sets[:, : batch * n]]
        self.losses = sets[:, batch * n :]
        text = 8 * (_SLOTS + floats)
        self.error = np.frombuffer(self._map, np.uint8, _ERROR_ROOM, text)
        self.note_room = np.frombuffer(self._map, np.uint8, _NOTE_ROOM, text + _ERROR_ROOM)
        self.me = 0   # this process's step flag: 0 in the parent, 1 in the worker
        self.parent = os.getpid()
        self.pid: int | None = None
        self._fork()

    # -- both processes ---------------------------------------------------------

    def post(self, step: int) -> None:
        self.flags[self.me] = step

    def wait(self, step: int) -> None:
        """Spin until the other process has posted `step`, checking now and
        then that it is still there (blocking waits stalled the step). Its
        flag may be one step further on."""
        flags, other, spins = self.flags, 1 - self.me, 0
        while flags[other] < step:
            spins += 1
            if spins % _SPINS_PER_CHECK == 0 or flags[other] < 0:
                self._check_other()

    def _check_other(self) -> None:
        """In the parent, raise if the worker failed or died; in the
        worker, leave if the parent is gone."""
        if self.me:
            if os.getppid() != self.parent:
                os._exit(1)
            return
        if self.flags[_WORKER_STEP] < 0:
            self._raise_error()
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self.pid = None
            self._died(status)

    # -- the parent -------------------------------------------------------------

    def serves(self, objects: list, batch: int) -> bool:
        """Whether a call naming `objects` (already mapped by _stands_for)
        with this batch (0 for TTA) may use this worker; see the module
        docstring. Reaps a worker that has exited."""
        known = all(self.objects.get(id(o)) is o and _held(o) == self.held[id(o)] for o in objects)
        if not known or (batch and batch != self.batch):
            return False
        if os.waitpid(self.pid, os.WNOHANG)[0]:
            self.pid = None
            return False
        return True

    @staticmethod
    def key(obj) -> int:
        """The key under which the worker finds `obj` in `objects`."""
        return id(_stands_for(obj))

    def submit(self, fn, *args, momentum: dict[str, np.ndarray] | None = None) -> None:
        """Start fn(worker, *args) in the worker; `result` returns what it
        returns. fn must be a module-level function (it is pickled by
        name); objects go as keys. Copies the parameters of every held
        model, and `momentum` if given (that of a train() job's model), into
        the mapping, for the worker to load before it runs fn."""
        for p, v in self.params:
            v[...] = p.data
        if momentum is not None:
            for name, v in self.moms:
                v[...] = momentum[name]
        self.flags[_PARENT_STEP] = self.flags[_WORKER_STEP] = 0
        self.flags[_NOTE_BYTES] = 0
        try:
            pickle.dump((fn, args), self._jobs, pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except OSError:
            self._wait_for_exit()

    def result(self):
        """Block until the worker's job returns, and return its value."""
        try:
            return pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):   # the pipe closed before or during the reply
            self._wait_for_exit()

    def _wait_for_exit(self):
        """Reap a worker that closed its pipe, and raise its error."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if self.flags[_WORKER_STEP] < 0:
            self._raise_error()
        self._died(status)

    def _raise_error(self):
        text = bytes(self.error[: self.flags[_ERROR_BYTES]]).decode(errors="replace")
        message, _, trace = text.partition("\n")
        err = WorkerError(message)
        if hasattr(err, "add_note"):
            err.add_note(trace)
        raise err

    def _died(self, status: int):
        doing = bytes(self.note_room[: self.flags[_NOTE_BYTES]]).decode(errors="replace")
        raise WorkerError(f"the worker died (wait status {status}) during {doing}")

    def stop(self) -> None:
        """Kill and reap the worker."""
        with contextlib.suppress(BrokenPipeError):   # job bytes left unsent to a worker that is gone
            self._jobs.close()
        self._replies.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def _fork(self) -> None:
        jobs_r, jobs_w = os.pipe()
        replies_r, replies_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(jobs_w)
            os.close(replies_r)
            self._serve(os.fdopen(jobs_r, "rb"), os.fdopen(replies_w, "wb"))
        os.close(jobs_r)
        os.close(replies_w)
        self.pid = pid
        self._jobs = os.fdopen(jobs_w, "wb")
        self._replies = os.fdopen(replies_r, "rb")

    # -- the worker -------------------------------------------------------------

    def note(self, doing: str) -> None:
        """In the worker, record what it is doing, for the parent's
        WorkerError if it dies and for its own if it raises; a no-op in the
        parent."""
        if self.me:
            data = doing.encode()[:_NOTE_ROOM]
            self.note_room[: len(data)] = np.frombuffer(data, np.uint8)
            self.flags[_NOTE_BYTES] = len(data)

    def model_fn(self, key: int):
        """The model callable a TTA job names."""
        obj = self.objects[key]
        return obj.predict_logits if isinstance(obj, GasaUNet) else obj

    def _serve(self, jobs, replies) -> None:
        """The worker's life: run jobs until the parent closes the pipe or
        dies, then leave with os._exit. A job that raises writes its error
        to the mapping, marks the worker failed, and ends the process."""
        code, self.me = 1, 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent's KeyboardInterrupt reaps this process
            openblas_threads()[1](1)
            while True:
                try:
                    fn, args = pickle.load(jobs)
                except EOFError:
                    code = 0
                    break
                for p, v in self.params:
                    p.data[...] = v
                pickle.dump(fn(self, *args), replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
        except BaseException as exc:
            doing = bytes(self.note_room[: self.flags[_NOTE_BYTES]]).decode(errors="replace")
            text = f"{doing} raised in the worker: {type(exc).__name__}: {exc}\n"
            data = (text + traceback.format_exc()).encode()[:_ERROR_ROOM]
            self.error[: len(data)] = np.frombuffer(data, np.uint8)
            self.flags[_ERROR_BYTES] = len(data)
            self.flags[_WORKER_STEP] = -1
        finally:
            os._exit(code)


@contextlib.contextmanager
def section(objects: list, batch: int = 0):
    """A two-process section: yields the worker, registered for `objects`
    (forked now unless the current one serves them; `batch` > 0 for
    train()), with this process's OpenBLAS at one thread, restored on exit.
    An exception inside kills and reaps the worker. Callers check `usable()`
    first."""
    get, put = openblas_threads()
    threads = get()
    put(1)
    try:
        yield _acquire(objects, batch)
    except BaseException:
        close()
        raise
    finally:
        put(threads)


def _acquire(objects: list, batch: int) -> Worker:
    global _current
    keys = list({id(k): k for k in map(_stands_for, objects)}.values())
    if _current is not None and not _current.serves(keys, batch):
        close()
    if _current is None:
        _current = Worker(keys, batch)
    return _current


def close() -> None:
    """Kill and reap the worker, if there is one. The next call that can use
    a worker forks a fresh one."""
    global _current
    current, _current = _current, None
    if current is not None:
        current.stop()


atexit.register(close)
