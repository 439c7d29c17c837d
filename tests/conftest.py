"""Shared fixtures: benchmark specs, a cached Brownian ensemble factory and
a record of the worker processes forked."""

import os

import numpy as np
import pytest

import bslq
from bslq.grid import AffineProcess, MatrixPath, TimeGrid


@pytest.fixture(scope="session")
def brownian_cache():
    """Session-wide cache keyed by (seed, paths, steps); T = 1 throughout."""
    cache = {}

    def get(seed: int, paths: int, steps: int) -> bslq.BrownianEnsemble:
        key = (seed, paths, steps)
        if key not in cache:
            cache[key] = bslq.BrownianEnsemble.generate(seed, paths,
                                                        TimeGrid(1.0, steps))
        return cache[key]

    return get


def make_spec_2d(steps: int = 100) -> bslq.ProblemSpec:
    """Full-featured 2x2 problem: cross weights, indefinite R11, shift H,
    affine noise in every data slot.  Uniform convexity confirmed by the
    tree Hessian in the oracle tests."""
    grid = TimeGrid(1.0, steps)

    def mat(M):
        return MatrixPath.constant(np.array(M, dtype=float), grid)

    def aff(a, b):
        return AffineProcess.of_constants(np.array(a, dtype=float),
                                          np.array(b, dtype=float), grid)

    return bslq.ProblemSpec(
        n=2, m=2, grid=grid,
        A=mat([[0.0, 0.2], [-0.2, 0.1]]),
        B=mat([[1.0, 0.0], [0.2, 1.0]]),
        C=mat([[0.1, 0.3], [0.0, -0.1]]),
        f=aff([0.1, -0.2], [0.05, 0.0]),
        G=np.array([[0.2, 0.05], [0.05, 0.1]]),
        g=np.array([0.5, -0.3]),
        Q=mat([[0.3, 0.1], [0.1, 0.2]]),
        S1=mat([[0.1, 0.0], [0.05, -0.1]]),
        S2=mat([[0.1, 0.05], [0.0, 0.1]]),
        R11=mat([[0.3, 0.0], [0.0, -0.15]]),
        R12=mat([[0.1, 0.2], [0.0, 0.1]]),
        R21=mat([[0.1, 0.0], [0.2, 0.1]]),
        R22=mat([[1.0, 0.1], [0.1, 0.8]]),
        q=aff([0.05, 0.1], [0.0, 0.02]),
        rho1=aff([0.1, 0.0], [0.03, 0.0]),
        rho2=aff([-0.05, 0.1], [0.0, 0.04]),
        xi=aff([0.2, -0.1], [1.0, 0.5]),
    )


@pytest.fixture(scope="session")
def spec_2d():
    return make_spec_2d()


@pytest.fixture
def forks(monkeypatch):
    """Report four usable CPUs, so that up to four workers run, and list the
    pid of every child process forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def assert_no_child_left():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
