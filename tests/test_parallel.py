"""The fork helper on its own: how items are cut into parts, that the parts'
results come back in order from forked children, how a child's failure
reaches the parent, and when nothing is forked."""

import errno
import json
import os
import threading

import pytest

from snailtwpa import parallel
from snailtwpa.cli import main
from snailtwpa.errors import SnailTwpaError


@pytest.mark.parametrize("n_parts", range(1, 6))
def test_cut_gives_contiguous_parts_of_near_equal_size(n_parts):
    for n in range(13):
        parts = parallel._cut(list(range(n)), n_parts)
        assert [item for part in parts for item in part] == list(range(n)), (n, parts)
        assert len(parts) == max(1, min(n_parts, n)), (n, parts)
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1, (n, parts)
        assert min(sizes) > 0 or n == 0, (n, parts)
        assert [list(part) for part in parallel._cut(range(n), n_parts)] == parts


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 2, 3, 5])
def test_map_parts_equals_a_loop(forks, monkeypatch, cpus, n_items):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    items = list(range(n_items))
    out = parallel.map_parts(lambda part: (part, os.getpid()), items)
    assert [part for part, _ in out] == parallel._cut(items, cpus)  # fn of each part, in order
    assert len(forks) == len(out) - 1
    assert len({pid for _, pid in out}) == len(out)  # one process per part


def test_exception_in_a_child_is_raised_in_the_parent(forks):
    def fn(part):
        if part == [1]:  # the second part, which a child runs
            raise LookupError(os.getpid())
        return part

    with pytest.raises(LookupError) as raised:
        parallel.map_parts(fn, [0, 1])
    assert raised.value.args[0] != os.getpid()
    assert len(forks) == 1


def test_child_that_exits_without_a_reply_names_its_status(forks):
    def fn(part):
        if part == [1]:  # the second part, which a child runs
            os._exit(3)
        return part

    with pytest.raises(SnailTwpaError, match="exited with status 3"):
        parallel.map_parts(fn, [0, 1])
    assert len(forks) == 1


def test_no_fork_while_another_thread_runs(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        out = parallel.map_parts(lambda part: (part, os.getpid()), [0, 1, 2])
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert out == [([0, 1, 2], os.getpid())]
    assert not forks


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_fork_without_fork_or_affinity(forks, monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    assert parallel._usable_cpus() == 1
    out = parallel.map_parts(lambda part: (part, os.getpid()), [0, 1, 2])
    assert out == [([0, 1, 2], os.getpid())]
    assert not forks


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")), reason="needs fork and /proc/self/fd")
def test_failed_fork_is_a_runtime_error(monkeypatch, tmp_path, capsys):
    # on 3 CPUs the second of two forks fails: the first child is stopped,
    # no pipe is left open, and the CLI reports a runtime error
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fork = os.fork
    made = []

    def failing_after_one():
        if made:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        made.append(fork())
        return made[-1]

    monkeypatch.setattr(os, "fork", failing_after_one)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(SnailTwpaError, match=r"cannot fork a worker process \(EAGAIN\)"):
        parallel.map_parts(lambda part: part, [0, 1, 2])
    assert len(os.listdir("/proc/self/fd")) == open_fds
    made.clear()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"r_values": [0.1, 0.2, 0.3], "n_rep": 1000}))
    assert main(["tms", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert "\nruntime error: cannot fork a worker process (EAGAIN): " in capsys.readouterr().err
