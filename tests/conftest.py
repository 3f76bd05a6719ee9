"""Shared helpers: small random matrices, naive loop-based metric oracles,
the acceptance-criteria summary printer, a fork counter that also fails a
test leaving a descriptor open, the largest beta F-beta accepts, and a check
that no test leaves a child process behind.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

from canopy.data import LabelMatrix, LabelVocabulary, ProbMatrix
from canopy.metrics import check_beta


def _beta_accepted(beta: float) -> bool:
    try:
        check_beta(beta)
    except ValueError:
        return False
    return True


def largest_beta() -> float:
    """The largest float ``check_beta`` accepts, found one ulp at a time from
    the root of float max / 2**53."""
    beta = math.sqrt(sys.float_info.max / 2.0**53)
    while _beta_accepted(math.nextafter(beta, math.inf)):
        beta = math.nextafter(beta, math.inf)
    while not _beta_accepted(beta):
        beta = math.nextafter(beta, 0.0)
    return beta


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, such as a worker
    that a multi-process fit did not wait for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid(-1, WNOHANG) gave pid {pid})")


def _open_fds() -> dict[str, str]:
    """Each open descriptor of this process and what it refers to. The one
    that lists the directory is closed by the time it is read, so it drops out."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:
            pass
    return fds


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes during the test. The test
    fails if it leaves a descriptor open, such as a worker's pipe; that check
    needs /proc and is skipped without it."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    before = _open_fds() if os.path.isdir("/proc/self/fd") else None
    yield pids
    if before is not None:
        leaked = {fd: to for fd, to in _open_fds().items() if before.get(fd) != to}
        if leaked:
            pytest.fail(f"the test left descriptors open: {leaked}")


def make_vocab(n: int, weather: int = 0) -> LabelVocabulary:
    return LabelVocabulary(names=tuple(f"label_{j}" for j in range(n)), weather_count=weather)


def random_label_matrix(rng, n_samples: int, n_labels: int, density: float = 0.5) -> LabelMatrix:
    values = (rng.random((n_samples, n_labels)) < density).astype(np.int8)
    return LabelMatrix(values=values, vocab=make_vocab(n_labels))


def random_prob_matrix(rng, n_samples: int, n_labels: int) -> ProbMatrix:
    return ProbMatrix(values=rng.random((n_samples, n_labels)), vocab=make_vocab(n_labels))


# ---------------------------------------------------------------------------
# Naive double-loop oracle for every averaging scheme. Pure Python loops on
# integer counts, kept deliberately independent of canopy.metrics.
# ---------------------------------------------------------------------------


def oracle_fbeta(p: float, r: float, beta: float) -> float:
    den = beta * beta * p + r
    if den == 0.0:
        return 0.0
    return (1.0 + beta * beta) * p * r / den


def oracle_cell_counts(pred, truth, axis: str):
    pred = np.asarray(pred).astype(int)
    truth = np.asarray(truth).astype(int)
    n, k = pred.shape
    outer = range(k) if axis == "class" else range(n)
    inner = range(n) if axis == "class" else range(k)
    counts = []
    for o in outer:
        tp = fp = fn = tn = 0
        for i in inner:
            p, t = (pred[i][o], truth[i][o]) if axis == "class" else (pred[o][i], truth[o][i])
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
            else:
                tn += 1
        counts.append((tp, fp, fn, tn))
    return counts


def oracle_averaged(pred, truth, scheme: str, beta: float, weights=None):
    """(precision, recall, fbeta) under one scheme, computed with loops."""
    if scheme in ("macro", "weighted", "micro"):
        counts = oracle_cell_counts(pred, truth, "class")
    else:
        counts = oracle_cell_counts(pred, truth, "sample")

    if scheme == "micro":
        tp = sum(c[0] for c in counts)
        fp = sum(c[1] for c in counts)
        fn = sum(c[2] for c in counts)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return p, r, oracle_fbeta(p, r, beta)

    ps, rs, fs = [], [], []
    for tp, fp, fn, _ in counts:
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(oracle_fbeta(p, r, beta))
    if scheme == "weighted":
        acc_p = acc_r = acc_f = 0.0
        for w, p, r, f in zip(weights, ps, rs, fs):
            acc_p += w * p
            acc_r += w * r
            acc_f += w * f
        return acc_p, acc_r, acc_f
    m = len(ps)
    return sum(ps) / m, sum(rs) / m, sum(fs) / m


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion after the run.
# ---------------------------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_c"):
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")
