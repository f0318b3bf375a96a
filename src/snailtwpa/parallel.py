"""Independent work, cut into parts that run at once on every usable CPU.

The one runner is :func:`map_parts`, and it is the one place where work is
cut.  It cuts a caller's items (the point indices of a synthetic squeezing
sweep, the repetitions of a quadrature CSV being written, the character
positions of one being read, the members of a transient batch in group
order) once, into at most P contiguous parts of near equal size, where P is
the number of CPUs this process may run on (``os.sched_getaffinity``), and
returns ``fn(part)`` for each part, in order.  It runs the first part in
this process; a child made by ``os.fork`` runs each other part at the same
time, sends back only what its part returned, pickled over a pipe, and
leaves by ``os._exit``.  A part whose output is large need not return it:
the quadrature-CSV writer's parts write theirs to part files, in a
temporary directory that the caller makes and removes, and return only
their names.  A fork that fails raises SnailTwpaError naming its
errno, after the children already made are stopped.  A caller's ``fn`` does
the same arithmetic for an item whatever part holds it, so the results do
not depend on P.  The work stays in this process when P is 1, when there is
one item, when the platform has no ``fork`` or ``sched_getaffinity``, or
when another thread is alive (the child would inherit any lock that thread
holds, held for ever).  A child that raises sends the exception back, to be
raised here; a child that ends without a reply raises SnailTwpaError naming
its exit status.  Nothing is loaded before forking: a caller that wants a
module in every child (the transient solver's LAPACK) loads it first.
"""

from __future__ import annotations

import errno
import os
import pickle
import signal
import threading

from .errors import SnailTwpaError


def map_parts(fn, items) -> list:
    """``[fn(part) for part in parts]``, where ``parts`` is ``items`` (a list
    or range) cut into at most P contiguous parts, which run at once (see
    the module docstring).  An exception, here or in a child, is raised,
    and so is SnailTwpaError for a child that ends without a reply."""
    parts = _cut(items, _usable_cpus())
    children = []  # (pid, read end of its pipe), until reaped
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _reply(fn, part, write_end)
            except OSError as err:  # no child was made (no process ids or memory left)
                pipe.close()
                name = errno.errorcode.get(err.errno, err.errno)
                raise SnailTwpaError(f"cannot fork a worker process ({name}): {err.strerror}") from err
            finally:
                os.close(write_end)
            children.append((pid, pipe))
        outcomes = [fn(parts[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise SnailTwpaError(f"worker process {pid} {how} without sending its result")
            done, outcome = pickle.loads(reply)
            if not done:
                raise outcome
            outcomes.append(outcome)
        return outcomes
    finally:
        for pid, pipe in children:  # left only when this process raised: stop them
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _usable_cpus() -> int:
    """How many parts items may be cut into: the usable CPUs, or 1 where a
    child cannot or should not be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1  # no fork or CPU affinity on this platform (Windows, macOS)
    if threading.active_count() > 1:
        return 1  # a child would inherit any lock another thread holds, held for ever
    return len(os.sched_getaffinity(0))


def _cut(items, n_parts: int) -> list:
    """``items`` (a list or range) in at most ``n_parts`` contiguous parts,
    in order, whose sizes differ by at most one; no part is empty unless
    ``items`` is, which gives one empty part."""
    k = max(1, min(n_parts, len(items)))
    cuts = [-(-j * len(items) // k) for j in range(k + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _reply(fn, part, write_end) -> None:
    """In a forked child: run one part, write (done, outcome or exception)
    to the parent and leave, never returning into the caller's code."""
    status = 1
    try:
        try:
            reply = (True, fn(part))
        except BaseException as err:  # handed to the parent, which raises it
            reply = (False, err)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
