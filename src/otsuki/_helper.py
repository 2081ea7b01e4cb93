"""The helper process: work of a family done on another CPU.

``pipeline.compute_index`` and ``pipeline.verify_family`` hand two kinds
of work of each family to one helper process per process, while they
do the rest themselves: the boundary solutions of modes 1 and 2
(``edwards._integrate_beside``), sent right after the family is solved,
unless only the direct route runs, and the mesh-2n half of the count-only
reductions of the family's stacks (``spectral._count_beside``), sent
right after its trajectory is sampled.  The helper is forked at the first
family and reused by every later one.  A request is a function, the
argument tuples of its calls and their token pipes; the helper writes,
call by call, the pickled result or the exception the call raised
(``_serve``), and the family's ``Handle`` reads each by the key it was
sent under.  The readers,
``edwards.boundary_form`` and ``spectral._counted``, still do first what
they did in process, so every refusal and error surfaces where and as
it did in process.

A count may be done by either process, whichever comes to it first: each
such call has a token, one byte in a pipe of its own (``_take_token``).
The helper takes it before it starts the call; the family takes it when
it needs the result before the helper has started, and then counts in
process, and the helper skips the call.  So the family never waits for a
count that the helper has not begun, which it would while the helper
integrates, and no count is made twice.

A family that leaves results unread, but the skipped calls it made
itself, kills the helper, and the next family forks a fresh one.  The helper runs the package code as it stood
at its fork, exits with its parent (at the end of its request pipe), and
is killed and reaped at interpreter exit; it leaves only through
``os._exit``.  The parent does the work in process where ``os.fork`` or
``os.pidfd_open`` (the handle the helper is killed by) is missing, the
process may run on one CPU only, another thread runs when the helper is
to be forked (fork is unsafe then; a thread that Python does not run is
seen after the fork, and the helper killed), a family of another thread
holds the helper, a request cannot be pickled, or the helper ended
without a result.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import threading
import warnings
from typing import Optional

# the request pipe holds a trajectory's samples, three arrays of at most
# 4097 nodes, so a family sends them without waiting for the helper
_REQUEST_PIPE_BYTES = 1 << 20
# the calls of a family that either process may make, each through a
# token pipe of its own: the family's three stacks
_TOKENS = 3


def _may_fork() -> bool:
    """Whether the helper may be forked: ``os.fork`` exists, and
    ``os.pidfd_open`` to hold it by (Linux), the process may run on more
    than one CPU, and no other Python thread runs, since a process forked
    from a threaded one may deadlock.  Threads that Python does not run
    are counted after the fork (``_threads``)."""
    if not (hasattr(os, "fork") and hasattr(os, "pidfd_open")) \
            or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


def _threads() -> int:
    """The threads of this process as the system counts them, where
    ``/proc/self/stat`` tells (Linux); 1 where it does not.  Python 3.12+
    reads the same count when it warns of a fork beside threads."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[17])
    except (OSError, ValueError, IndexError):
        return 1


def _only_descriptors(*keep: int) -> list:
    """In the helper, right after the fork: close every descriptor but
    ``keep``, each moved above 2 where it is not, with 0-2 on /dev/null,
    so that the helper holds no file, pipe or socket of its parent open.
    Returns the descriptors kept, as numbered now."""
    kept = []
    for fd in keep:
        while fd <= 2:      # the copy left below 3 is replaced next
            fd = os.dup(fd)
        kept.append(fd)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    bounds = [2, *sorted(kept), os.sysconf("SC_OPEN_MAX")]
    for lo, hi in zip(bounds, bounds[1:]):
        os.closerange(lo + 1, hi)
    return kept


def _take_token(fd: int) -> bool:
    """Take the token of a call from its pipe's non-blocking read end:
    True in the one process that gets the byte, False where the other
    has taken it."""
    try:
        return os.read(fd, 1) != b""
    except BlockingIOError:
        return False


def _answers(work, calls: list, tokens: list):
    """For each argument tuple of ``calls``, in turn, ``work(*args)`` or the
    exception it raised; None, without the call, where the call's token
    pipe (``tokens``, None for a call that has none) holds no token, since
    the parent has taken it to make the call itself."""
    for args, token in zip(calls, tokens):
        if token is not None and not _take_token(token):
            yield None
            continue
        try:
            result = work(*args)
        except Exception as exc:
            result = exc
        yield result


def _serve(requests: int, results: int, *tokens: int) -> None:
    """The helper's whole run.  It gives up every descriptor but its pipe
    ends and the read ends of its token pipes (``_only_descriptors``).
    Then, for each request it unpickles from ``requests``, a function, a
    list of argument tuples and the token pipe of each call (an index
    into ``tokens``, or None), it writes to ``results`` each call's pickled
    result, exception or None (``_answers``), each as soon as it has it.
    At the end of ``requests``, which comes when its parent has closed it
    or ended, it leaves through ``os._exit``: it never returns into the
    parent's stack, so no atexit handler, buffered output or test teardown
    runs twice."""
    try:
        requests, results, *tokens = _only_descriptors(requests, results,
                                                       *tokens)
        with os.fdopen(requests, "rb") as inbox, \
                os.fdopen(results, "wb") as outbox:
            while True:
                try:
                    work, calls, slots = pickle.load(inbox)
                except EOFError:
                    break
                for result in _answers(work, calls, [
                        None if slot is None else tokens[slot]
                        for slot in slots]):
                    outbox.write(pickle.dumps(result))
                    outbox.flush()
    finally:
        os._exit(0)


class _Helper:
    """A helper process: its pid, the pidfd ``handle`` it is killed
    through (None where none could be opened: it has ended, or been
    killed by its pid), this process's ends of its request and result
    pipes, and both ends, (read, write), of each of its token pipes.  A
    plain class: a dataclass would add 0.4 ms to the import."""

    def __init__(self, pid: int, handle: Optional[int], requests: int,
                 results: int, tokens: list):
        self.pid, self.handle = pid, handle
        self.requests, self.results, self.tokens = requests, results, tokens

    def send(self, data: bytes) -> None:
        """Write a pickled request to it."""
        data = memoryview(data)
        while data:
            data = data[os.write(self.requests, data):]

    def end(self) -> None:
        """Kill it through its handle and reap it.  Its handle outlives its
        pid: where SIGCHLD is ignored the system reaps the helper as it
        ends, and its pid is free again."""
        for fd in (self.requests, self.results, *sum(self.tokens, ())):
            os.close(fd)
        if self.handle is not None:
            import signal   # here, not at ``import otsuki``: 1 ms there
            with contextlib.suppress(ProcessLookupError):
                signal.pidfd_send_signal(self.handle, signal.SIGKILL)
            os.close(self.handle)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


_HELPER: Optional[_Helper] = None   # this process's helper, once forked
_CLAIM = threading.Lock()           # held by the family that uses it


def _fork_helper() -> Optional[_Helper]:
    """A new helper, where ``_may_fork`` allows and a process is to be
    had.  One forked beside a thread that Python does not run
    (``_threads``, or a warning from the fork, which Python 3.12+ gives
    then) may deadlock, and is ended at once, as is one whose handle
    cannot be opened.  Its request pipe is enlarged where the system
    allows, so that a family's requests do not wait for it, and the read
    ends of its token pipes, which both processes read, do not block."""
    if not _may_fork():
        return None
    fds = []
    try:
        for _ in range(2 + _TOKENS):
            fds += os.pipe()
        import fcntl    # here, not at ``import otsuki``
        with contextlib.suppress(OSError, AttributeError):
            fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, _REQUEST_PIPE_BYTES)
        for fd in fds[4::2]:
            os.set_blocking(fd, False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pid = os.fork()
    except OSError:     # no descriptor or process to be had: work here
        for fd in fds:
            os.close(fd)
        return None
    (inbox, requests, results, outbox), tokens = fds[:4], fds[4:]
    if pid == 0:
        _serve(inbox, outbox, *tokens[::2])
    os.close(inbox)
    os.close(outbox)
    handle = None
    try:
        handle = os.pidfd_open(pid)
    except ProcessLookupError:      # it has ended, and been reaped
        pass
    except OSError:     # none to be had (Linux before 5.3): end the
        import signal   # helper while its pid is surely its own
        os.kill(pid, signal.SIGKILL)
    helper = _Helper(pid, handle, requests, results,
                     list(zip(tokens[::2], tokens[1::2])))
    if handle is None or caught or _threads() > 1:
        helper.end()
        return None
    return helper


def _helper() -> Optional[_Helper]:
    """This process's helper, forked now if it has none; the caller holds
    the claim."""
    global _HELPER
    if _HELPER is None:
        _HELPER = _fork_helper()
    return _HELPER


def _end_helper() -> None:
    """Kill and reap this process's helper, if it has one; the next family
    forks a fresh one."""
    global _HELPER
    helper, _HELPER = _HELPER, None
    if helper is not None:
        helper.end()


def _close_helper() -> None:
    """``_end_helper``, unless a family uses the helper: at interpreter
    exit, and where a test must have the next family fork the code of
    its time."""
    if _CLAIM.acquire(blocking=False):
        try:
            _end_helper()
        finally:
            _CLAIM.release()


def _let_go() -> None:
    """In a process forked from this one: close the descriptors of the
    parent's helper, which it never uses or signals, and make a claim of
    its own, free even if a family of another thread held the parent's."""
    global _HELPER, _CLAIM
    helper, _HELPER, _CLAIM = _HELPER, None, threading.Lock()
    if helper is not None:
        for fd in (helper.requests, helper.results, helper.handle,
                   *sum(helper.tokens, ())):
            os.close(fd)


atexit.register(_close_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_let_go)


class Handle:
    """A family's handle on the process's helper.

    The first family forks the helper, where ``_may_fork`` allows; every
    later family of the process sends it its work and reads its results.
    So the helper runs the package code, patches and wrappers included,
    as they stood at its fork.  A family claims the helper for its
    lifetime with a lock that it does not wait for: a family of another
    thread that finds it claimed works in process, as every family does
    where no helper may be had.  An idle helper serves a family beside
    other threads, as no fork happens then.

    ``close``, which its caller holds in a ``finally``, frees the helper for
    the next family.  A family that leaves results unread (it raised, or its
    route was refused before it read on) kills it first, since it may work
    still, so that no family reads another's results; the next family forks
    a fresh one.  Where every unread result is that of a call the family
    made itself, which the helper skips, the family reads them instead,
    and the helper serves on.  The helper exits at the end of its
    request pipe, so with its parent, and it is killed and reaped at
    interpreter exit.  A process forked later neither uses nor signals its
    parent's helper (``_let_go``).
    """

    def __init__(self):
        self._keys: dict = {}       # the key of each call sent -> its index
        self._results: list = []    # the results read, in the order sent
        self._tokens: dict = {}     # the index of a call -> its token pipe
        self._taken: set = set()    # the calls whose tokens this process took
        self._helper = self._pipe = None
        if not _CLAIM.acquire(blocking=False):
            return      # a family of another thread uses it
        try:
            self._helper = _helper()
            if self._helper is not None:
                self._pipe = os.fdopen(self._helper.results, "rb",
                                       closefd=False)
        finally:
            if self._helper is None:
                _CLAIM.release()

    def send(self, work, calls: dict, either: bool = False) -> None:
        """Have the helper run ``work(*args)`` for each (key, args) of
        ``calls``, in turn; ``take(key, ...)`` reads the result.  With
        ``either``, each call that a token pipe of the helper is left for
        gets a token, so that either process may make it.  Nothing is sent
        where no helper serves the family, or the request cannot be
        pickled (a function that is no module attribute, such as a test's
        patch), and the readers work in process."""
        if self._helper is None:
            return
        tokened = range(len(self._tokens),
                        len(self._helper.tokens) if either else 0)[:len(calls)]
        slots = [*tokened, *[None] * (len(calls) - len(tokened))]
        try:
            data = pickle.dumps((work, list(calls.values()), slots))
        except (pickle.PicklingError, AttributeError, TypeError):
            return
        try:
            for slot in tokened:
                os.write(self._helper.tokens[slot][1], b"t")
            self._helper.send(data)
        except OSError:     # it has ended: work here
            self._release(end=True)
            return
        for key, slot in zip(calls, slots):
            if slot is not None:
                self._tokens[len(self._keys)] = self._helper.tokens[slot][0]
            self._keys[key] = len(self._keys)

    def take(self, key, compute):
        """The helper's result for ``key``, raised if it is an exception;
        ``compute()`` where no call was sent under ``key``, or the helper
        ended without its result.  Results sent before it are read, and
        kept, on the way.  A call with a token that the helper has not
        taken yet is made here, by ``compute()``, and the helper skips it."""
        index = self._keys.get(key, len(self._keys))
        if (index in self._tokens and index >= len(self._results)
                and self._pipe is not None
                and _take_token(self._tokens[index])):
            self._taken.add(index)
            return compute()
        while self._pipe is not None and len(self._results) <= index < len(
                self._keys):
            try:
                self._results.append(pickle.load(self._pipe))
            except Exception:       # the helper ended without a result
                self._release(end=True)
        if index >= len(self._results):
            return compute()
        result = self._results[index]
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        """Free the helper for the next family, and first kill and reap it
        if it has results unread, unless each is that of a call made here,
        whose None is read instead; later reads work here."""
        if self._helper is None:
            return
        unread = range(len(self._results), len(self._keys))
        end = not self._taken.issuperset(unread)
        try:
            for _ in () if end else unread:
                self._results.append(pickle.load(self._pipe))
        except Exception:       # the helper ended
            end = True
        self._release(end)

    def _release(self, end: bool) -> None:
        self._pipe.close()
        try:
            if end:
                _end_helper()
        finally:
            self._helper = self._pipe = None
            _CLAIM.release()
