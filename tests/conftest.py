import errno
import os

import numpy as np
import pytest

import photonflux.cli as cli
from photonflux import KGrid1D, SpectralAmplitude, photon_number


# a netlist with one element of every kind; it runs clean on its 64-bin grid (test_fuzz_seeds_run_clean)
ALL_KINDS_NETLIST = {
    "grid": {"N": 64, "dk": 1.0, "area": 1.0},
    "elements": [
        {"id": "bs", "kind": "beam_splitter", "params": {"t": [0.6, 0.0], "r": [0.0, 0.8]},
         "in": ["src", "vac"], "out": ["a", "b"]},
        {"id": "ifc", "kind": "interface", "params": {"n_in": 1.0, "n_out": 1.5}, "in": ["a"], "out": ["a1", "refl"]},
        {"id": "med", "kind": "medium_segment", "params": {"chi": [1.25, 0.01], "length": 2.0},
         "in": ["a1"], "out": ["a2"]},
        {"id": "m", "kind": "mirror", "params": {"r": -1.0}, "in": ["b"], "out": ["b1"]},
        {"id": "ps", "kind": "phase_shifter", "params": {"phi": 0.5}, "in": ["b1"], "out": ["b2"]},
    ],
    "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 30.0, "sigma": 2.0, "helicity": -1, "x0": 3.0}}],
    "detectors": ["a2", "refl", "b2"],
    "vacuum": ["vac"],
}


@pytest.fixture
def grid():
    return KGrid1D(n=1024, dk=1.0, area=1.0)


@pytest.fixture
def small_grid():
    return KGrid1D(n=256, dk=1.0, area=1.0)


def random_band_state(grid, rng, k0_frac=0.3, sigma_bins=20.0, helicity=+1):
    """Random complex spectrum under a Gaussian envelope, unit photon number.

    Band-limited and edge-clean by construction, so FFT synthesis is exact.
    """
    k = grid.k
    k0 = k0_frac * grid.k_max
    envelope = np.exp(-((k - k0) ** 2) / (4.0 * (sigma_bins * grid.dk) ** 2))
    noise = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    c = envelope * noise
    state = SpectralAmplitude(grid=grid, helicity=helicity, c=c)
    return SpectralAmplitude(
        grid=grid, helicity=helicity, c=c / np.sqrt(photon_number(state))
    )


@pytest.fixture
def band_state_factory():
    return random_band_state


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to this process while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def fail_fork(monkeypatch, call):
    """Make the ``call``-th ``os.fork`` from now on raise as a process limit does (EAGAIN); the others fork."""
    real_fork = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) == call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def fail_forked_csv_rows(monkeypatch):
    """Make every forked CSV row worker raise; this process still formats its own rows."""
    parent = os.getpid()
    real_format_block = cli._format_block

    def format_block(*args):
        if os.getpid() != parent:
            raise RuntimeError("row worker failure")
        real_format_block(*args)

    monkeypatch.setattr(cli, "_format_block", format_block)


def fill_disk_while_formatting(monkeypatch, columns=None):
    """Make this process's CSV formatting write part of a block, then fail as a full disk does.

    With ``columns``, only a table of that many columns fails, before its
    first block; forked row workers format as usual.
    """
    parent = os.getpid()
    real_format_block = cli._format_block

    def format_block(writes, distinct, tables, lo, hi):
        failing = [write for write, table in zip(writes, tables) if columns in (None, len(table))]
        if os.getpid() == parent and failing:
            failing[0](b"0.0,")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_format_block(writes, distinct, tables, lo, hi)

    monkeypatch.setattr(cli, "_format_block", format_block)


def spy_worker_writes(monkeypatch, log, error=None):
    """Append the size of each ``os.write`` a forked CSV row worker makes to the file ``log``.

    With ``error``, each of those writes then fails with that errno, as a
    full disk fails it.
    """
    parent = os.getpid()
    real_write = os.write

    def write(fd, data):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{len(data)}\n")
            if error is not None:
                raise OSError(error, os.strerror(error))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
