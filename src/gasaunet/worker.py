"""One worker process that shares the work of training steps and mirror TTA.

The worker is forked on the first call that can use it and outlives that
call. Its jobs are module-level functions that it runs on the objects a
job is given: samples [ceil(B/2), B) of a train() call's steps
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
PreparedData of a train() call, the model callables of a TTA call; a bound
method counts as its instance if getattr(instance, its name) gives it back,
any other object as itself, by `is`. They cross to the worker by reference,
as its forked copies; the rest of a job crosses by value. A later call
reuses the worker if every object it names is registered and a Python
function among them reaches the same GasaUNets through its closure cells and
the globals it names, and a train() call if the worker has as many shared
float64s as it asks for; any other call forks a fresh worker. The registry
keeps all of them alive, so no id is reused.

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


def _held(obj) -> tuple:
    """The GasaUNets among a registered Python function's closure cells and the globals it names."""
    if not inspect.isfunction(obj):
        return ()
    found = inspect.getclosurevars(obj)
    return tuple(m for m in (*found.nonlocals.values(), *found.globals.values()) if isinstance(m, GasaUNet))


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
        """Whether a call naming `objects` (mapped as in _acquire) and asking for
        `floats` shared float64s (0: none) may use this worker; reaps one that exited."""
        known = all(id(o) in self.objects and _held(o) == self.held[id(o)] for o in objects)
        if not known or (floats and floats != self.shared.size):
            return False
        if os.waitpid(self.pid, os.WNOHANG)[0]:
            self.pid = None
            return False
        return True

    def submit(self, fn, *args) -> None:
        """Start fn(worker, *args) in the worker; `result` returns what it
        returns. fn must be a module-level function (it is pickled by
        name). A registered object in args arrives as the worker's copy of
        it, a bound method of one as the copy's; the rest is pickled."""
        self.flags[:] = 0
        job = pickle.Pickler(self._jobs, pickle.HIGHEST_PROTOCOL)
        job.persistent_id = lambda obj: id(obj) if id(obj) in self.objects else None
        try:
            job.dump((fn, args))
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

    def _serve(self, jobs, replies) -> None:
        """The worker's life: run jobs until the parent closes the pipe or
        dies, then leave with os._exit. A job that raises replies with its
        WorkerError, whole, and ends the process."""
        code, self.me = 1, 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent's KeyboardInterrupt reaps this process
            openblas_threads()[1](1)
            while jobs.peek(1):   # b"" once the parent has closed the pipe or died
                job = pickle.Unpickler(jobs)
                job.persistent_load = self.objects.__getitem__
                fn, args = job.load()
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
            else:
                code = 0
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
    # a bound method counts as its instance if getattr(instance, its name) gives it back: that is how it pickles
    objects = [o.__self__ if inspect.ismethod(o) and o == getattr(o.__self__, o.__name__, None) else o for o in objects]
    if _current is not None and not _current.serves(objects, floats):
        close()
    if _current is None:
        _current = Worker(objects, floats)
    return _current


def close() -> None:
    """Kill and reap the worker, if there is one. The next call that can use
    a worker forks a fresh one."""
    global _current
    current, _current = _current, None
    if current is not None:
        current.stop()


atexit.register(close)
