"""One worker process that shares the work of training steps and mirror TTA.

The worker is forked on the first call that can use it and outlives that
call. Its jobs are module-level functions that it runs on its copies of the
objects the job names: samples [ceil(B/2), B) of a train() call's steps
(training._worker_steps), whose gradients and losses it writes into
`Worker.shared`, and mirror passes 4-7 of one volume
(inference._far_passes), whose sum it sends back. The mapping the two
share holds the step flags, the float64s a call asks for (`shared`) and a
note of what the worker is doing; the rest goes through pipes.

Parameters are not sent: every GasaUNet keeps them in a mapping that a
forked process shares (tensor.share_memory), so the worker reads the
parent's current ones however a callable reaches the model. Only the parent
writes them: in train() the worker computes step k after the parent has
posted step k-1, and the parent steps after the worker has posted k.

Reuse. The fork registers the objects of its call: the GasaUNet and
PreparedData of a train() call, the model callables of a TTA call (a bound
predict_logits counts as its GasaUNet, any other object as itself, by `is`).
The worker holds the GasaUNets they reach: each one named, the `__self__` of
a bound method, and those among a Python function's closure cells and the
globals it names. A later call reuses the worker if every object it names is
registered and reaches the same models, and a train() call if the worker
has as many shared float64s as it asks for; any other call (a closure cell
or global rebound to another model, say) forks a fresh worker. The
registry keeps all of them alive, so no id is reused.

The one rule: parameters are written in place, never rebound, and nothing
else of a registered object changes between calls (the data of a train()
call, an attribute of a callable object); pass a new object, or call
`close()`.

Between jobs the worker blocks on a pipe; it exits on EOF (the parent
died) and ignores SIGINT. `close()`, also run at exit, reaps it, and so
does any exception inside a two-process section. A job that raises replies
with a WorkerError naming the sample or mirror pass, traceback as a note,
which the parent raises; a worker that dies raises WorkerError naming its
note. BLAS runs one thread in the worker, and in the parent inside a
`section`. The worker is forked, not spawned: a closure cannot be pickled.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import gc
import inspect
import mmap
import os
import pickle
import platform
import select
import signal
import traceback

import numpy as np

from . import tensor as T
from .backbone import GasaUNet
from .errors import WorkerError

# int64 slots at the start of the shared mapping, and their count: the last training
# step each process posted, and the length of the worker's note of what it is doing
_PARENT_STEP, _WORKER_STEP, _NOTE_BYTES, _SLOTS = range(4)
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
    CPU. The processes write rows and parameters before their flags, and
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
    """The forked worker and the anonymous mapping it shares with the parent:
    the int64 slots, `floats` float64s for the caller (`shared`), the note."""

    def __init__(self, objects: list, floats: int):
        self.objects = {id(o): o for o in objects}
        self.held = {id(o): _held(o) for o in objects}
        self._map = mmap.mmap(-1, 8 * (_SLOTS + floats) + _NOTE_ROOM)
        self.flags = np.frombuffer(self._map, np.int64, _SLOTS)
        self.shared = np.frombuffer(self._map, np.float64, floats, 8 * _SLOTS)
        self.note_room = np.frombuffer(self._map, np.uint8, _NOTE_ROOM, 8 * (_SLOTS + floats))
        self.me = 0   # this process's step flag: 0 in the parent, 1 in the worker
        self.parent = os.getpid()
        self.pid: int | None = None
        self._fork()

    # -- both processes ---------------------------------------------------------

    def post(self, step: int) -> None:
        self.flags[self.me] = step

    def wait(self, step: int) -> None:
        """Spin until the other process has posted `step`, checking now and
        then that it has not failed or gone (blocking waits stalled the
        step)."""
        flags, other, spins = self.flags, 1 - self.me, 0
        while flags[other] < step:
            spins += 1
            if spins % _SPINS_PER_CHECK == 0:
                self._check_other(step)

    def _check_other(self, step: int) -> None:
        """In the parent, raise if the worker replied (its job raised) or
        closed its pipe (it died) before posting `step`; in the worker,
        leave if the parent is gone."""
        if self.me:
            if os.getppid() != self.parent:
                os._exit(1)
            return
        replied = select.select([self._replies], [], [], 0)[0]
        if replied and self.flags[_WORKER_STEP] < step:   # read after: a step posted before the reply counts
            self.result()

    # -- the parent -------------------------------------------------------------

    def serves(self, objects: list, floats: int) -> bool:
        """Whether a call naming `objects` (mapped by _stands_for) and asking for
        `floats` shared float64s (0: none) may use this worker; reaps one that exited."""
        known = all(self.objects.get(id(o)) is o and _held(o) == self.held[id(o)] for o in objects)
        if not known or (floats and floats != self.shared.size):
            return False
        if os.waitpid(self.pid, os.WNOHANG)[0]:
            self.pid = None
            return False
        return True

    @staticmethod
    def key(obj) -> int:
        """The key under which the worker finds `obj` in `objects`."""
        return id(_stands_for(obj))

    def submit(self, fn, *args) -> None:
        """Start fn(worker, *args) in the worker; `result` returns what it
        returns. fn must be a module-level function (it is pickled by
        name); objects go as keys."""
        self.flags[:] = 0
        try:
            pickle.dump((fn, args), self._jobs, pickle.HIGHEST_PROTOCOL)
            self._jobs.flush()
        except OSError:   # the worker is gone
            self._died()

    def result(self):
        """Block until the worker's job replies, and return its value; raise
        the WorkerError of a job that raised."""
        try:
            reply = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):   # the pipe closed before or during the reply
            self._died()
        if isinstance(reply, WorkerError):
            raise reply
        return reply

    def _died(self):
        """Reap the worker, which closed its pipes, and raise."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
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
        gc.unfreeze()

    def _fork(self) -> None:
        jobs_r, jobs_w = os.pipe()
        replies_r, replies_w = os.pipe()
        gc.collect()   # then no garbage is frozen: a full collection in either process would copy
        gc.freeze()    # every page of the objects it shares with the other
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
        """Record what the worker is doing, for its WorkerError or the parent's."""
        data = doing.encode()[:_NOTE_ROOM]
        self.note_room[: len(data)] = np.frombuffer(data, np.uint8)
        self.flags[_NOTE_BYTES] = len(data)

    def model_fn(self, key: int):
        """The model callable a TTA job names."""
        obj = self.objects[key]
        return obj.predict_logits if isinstance(obj, GasaUNet) else obj

    def _serve(self, jobs, replies) -> None:
        """The worker's life: run jobs until the parent closes the pipe or
        dies, then leave with os._exit. A job that raises replies with its
        WorkerError, whole, and ends the process."""
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
                try:
                    reply = fn(self, *args)
                except BaseException as exc:
                    doing = bytes(self.note_room[: self.flags[_NOTE_BYTES]]).decode(errors="replace")
                    reply = WorkerError(f"{doing} raised in the worker: {type(exc).__name__}: {exc}")
                    if hasattr(reply, "add_note"):
                        reply.add_note(traceback.format_exc())
                pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
                if isinstance(reply, WorkerError):
                    break
        finally:
            os._exit(code)


@contextlib.contextmanager
def section(objects: list, floats: int = 0):
    """A two-process section: yields the worker, registered for `objects`
    and sharing `floats` float64s with this process if `floats` > 0
    (forked now unless the current one serves them), with this process's
    OpenBLAS at one thread, restored on exit. An exception inside kills and
    reaps the worker. Callers check `usable()` first."""
    get, put = openblas_threads()
    threads = get()
    put(1)
    try:
        yield _acquire(objects, floats)
    except BaseException:
        close()
        raise
    finally:
        put(threads)


def _acquire(objects: list, floats: int) -> Worker:
    global _current
    keys = list({id(k): k for k in map(_stands_for, objects)}.values())
    if _current is not None and not _current.serves(keys, floats):
        close()
    if _current is None:
        _current = Worker(keys, floats)
    return _current


def close() -> None:
    """Kill and reap the worker, if there is one. The next call that can use
    a worker forks a fresh one."""
    global _current
    current, _current = _current, None
    if current is not None:
        current.stop()


atexit.register(close)
