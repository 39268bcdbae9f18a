"""Shared fixtures; expensive meshes, operators, and suite reports are
computed once per session and cached."""

from __future__ import annotations

import gc
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from hodgelab import exterior, mesh, verify
from hodgelab.config import RunConfig, default_config
from hodgelab.mesh import SurfaceSpec


@lru_cache(maxsize=None)
def sphere(level: int, radius: float = 1.0):
    return mesh.build_icosphere(level, radius)


@lru_cache(maxsize=None)
def spheroid(level: int, a: float = 1.0, c: float = 2.0):
    return mesh.build_spheroid(level, a, c)


@lru_cache(maxsize=None)
def scalar_pair(level: int):
    return exterior.laplacian0(sphere(level))


@lru_cache(maxsize=None)
def oneform_pair(level: int):
    return exterior.laplacian1(sphere(level))


@pytest.fixture(scope="session")
def sphere_mesh():
    return sphere


@pytest.fixture(scope="session")
def spheroid_mesh():
    return spheroid


@pytest.fixture(scope="session")
def scalar_pair_factory():
    return scalar_pair


@pytest.fixture(scope="session")
def oneform_pair_factory():
    return oneform_pair


@lru_cache(maxsize=None)
def _default_report():
    return verify.run_suite(default_config())


@lru_cache(maxsize=None)
def _spheroid_report():
    cfg = RunConfig(surface=SurfaceSpec(kind="spheroid", level=5, a=1.0, c=2.0))
    return verify.run_suite(cfg)


@pytest.fixture(scope="session")
def default_report():
    return _default_report()


@pytest.fixture(scope="session")
def spheroid_report():
    return _spheroid_report()


def _traced_peak(fn):
    """(fn(), the traced peak in bytes above the memory traced when fn starts)."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = fn()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return value, peak


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
