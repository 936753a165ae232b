"""`evaluate` reads its two CSVs at once (`flowcodec._cpus.both`): a forked
child pinned to one CPU reads the original while the process, pinned to
another, reads the reconstruction. Whichever path runs, the reports, the
error and the exit code are those of reading one file after the other, and
afterwards no child is left and the process's CPU affinity is as before.

Every wait is bounded: an alarm interrupts a pipe read or a wait for the
child that does not return, and the helper then kills the child.
"""

import os
import signal
import threading
import time

import pytest

from flowcodec import cli
from flowcodec.cli import main
from flowcodec.flow_data import FeatureSchema

TWO_CPUS = (
    hasattr(os, "fork")
    and hasattr(os, "sched_getaffinity")
    and len(os.sched_getaffinity(0)) >= 2
)
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="needs fork and two allowed CPUs")
WAIT_S = 60


@pytest.fixture
def bounded():
    """Raise TimeoutError in the test if it runs WAIT_S seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"evaluate did not finish in {WAIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WAIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process, which still fork."""
    calls = []
    real = os.fork

    def counted():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    d = tmp_path_factory.mktemp("flows")
    original, recon = d / "original.csv", d / "recon.csv"
    assert main(["synth", "--n-per-class", "30", "--seed", "1", "--output", str(original)]) == 0
    assert main(["synth", "--n-per-class", "30", "--seed", "2", "--output", str(recon)]) == 0
    return original, recon


def _with_bad_cell(src, dst, row):
    """A copy of ``src`` whose data row ``row`` holds an unparsable feature."""
    lines = src.read_bytes().splitlines(keepends=True)
    column = lines[0].rstrip().split(b",").index(FeatureSchema().compressible_columns[0].encode())
    cells = lines[row].split(b",")
    cells[column] = b"abc"
    lines[row] = b",".join(cells)
    dst.write_bytes(b"".join(lines))
    return dst


def _evaluate(original, recon, out, capsys):
    """Exit code, stderr and {file name: bytes} of one evaluate run."""
    code = main(["evaluate", "--original", str(original), "--reconstructed", str(recon),
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, err, files


def _serial(original, recon, out, capsys, monkeypatch):
    """The run with one allowed CPU, which reads one file after the other."""
    real = os.sched_getaffinity
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {min(real(pid))})
        return _evaluate(original, recon, out, capsys)


def _assert_clean(affinity):
    assert os.sched_getaffinity(0) == affinity
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_reports_match_on_two_cpus_and_on_one(tmp_path, capsys, monkeypatch, bounded, forks, flows):
    affinity = os.sched_getaffinity(0)
    two = _evaluate(*flows, tmp_path / "two", capsys)
    _assert_clean(affinity)
    assert len(forks) == 1
    one = _serial(*flows, tmp_path / "one", capsys, monkeypatch)
    assert len(forks) == 1  # one allowed CPU: no fork
    assert two[0] == 0 and len(two[2]) == 4
    assert two == one


@needs_two_cpus
@pytest.mark.parametrize("bad", ["both", "reconstructed"])
def test_the_error_is_the_one_serial_order_raises(tmp_path, capsys, monkeypatch, bounded, forks, flows, bad):
    original, recon = flows
    if bad == "both":
        original = _with_bad_cell(original, tmp_path / "bad_original.csv", 3)
    recon = _with_bad_cell(recon, tmp_path / "bad_recon.csv", 5)
    affinity = os.sched_getaffinity(0)
    got = _evaluate(original, recon, tmp_path / "two", capsys)
    _assert_clean(affinity)
    assert len(forks) == 1
    named, row = (original, 3) if bad == "both" else (recon, 5)
    assert got[0] == 2 and got[1].startswith(f"error: {named}: row {row}, column ") and got[1].count("\n") == 1
    assert got[2] == {}
    assert got == _serial(original, recon, tmp_path / "one", capsys, monkeypatch)


@needs_two_cpus
def test_a_child_that_dies_before_writing_gives_the_same_reports(tmp_path, capsys, monkeypatch, bounded, forks,
                                                               flows):
    parent, real = os.getpid(), cli.read_features

    def dies_in_the_child(path, schema):
        if os.getpid() != parent:
            os._exit(3)
        return real(path, schema)

    monkeypatch.setattr(cli, "read_features", dies_in_the_child)
    affinity = os.sched_getaffinity(0)
    got = _evaluate(*flows, tmp_path / "two", capsys)
    _assert_clean(affinity)
    assert len(forks) == 1
    assert got[0] == 0
    assert got == _serial(*flows, tmp_path / "one", capsys, monkeypatch)


@needs_two_cpus
def test_a_live_thread_forces_the_serial_path(tmp_path, capsys, monkeypatch, bounded, forks, flows):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(WAIT_S,))
    thread.start()
    try:
        got = _evaluate(*flows, tmp_path / "threaded", capsys)
    finally:
        release.set()
        thread.join(timeout=WAIT_S)
    assert not thread.is_alive()
    assert forks == []
    assert got[0] == 0
    assert got == _serial(*flows, tmp_path / "one", capsys, monkeypatch)


@needs_two_cpus
def test_an_interrupt_leaves_no_child_and_restores_the_affinity(tmp_path, monkeypatch, bounded, forks, flows):
    parent, original = os.getpid(), flows[0]

    def slow_child_interrupted_parent(path, schema):
        if os.getpid() != parent:
            time.sleep(WAIT_S)  # killed long before this ends
        elif path != str(original):
            raise KeyboardInterrupt
        return None

    monkeypatch.setattr(cli, "read_features", slow_child_interrupted_parent)
    affinity = os.sched_getaffinity(0)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["evaluate", "--original", str(original), "--reconstructed", str(flows[1]),
              "--output-dir", str(tmp_path / "eval")])
    assert time.perf_counter() - t0 < WAIT_S / 2
    _assert_clean(affinity)
    assert len(forks) == 1
    assert not (tmp_path / "eval").exists()
