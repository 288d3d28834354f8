"""Tests of the host-speed correction.

    python3 -m pytest -q perfbench/test_hostspeed.py
"""

from __future__ import annotations

import gc
import time

import hostspeed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_inside_a_region_are_taken_out_of_its_wall_time():
    sampler = hostspeed.Sampler()
    sampler.start()
    begin = time.perf_counter()
    _busy(0.3)
    end = time.perf_counter()
    wall, corrected = sampler.stop(begin, end)
    # about 15 samples of under a millisecond each ran inside the region
    assert 0 < wall < end - begin
    assert wall > 0.5 * (end - begin)
    assert corrected > 0


def test_correction_is_the_reference_speed_over_the_mean_sample(monkeypatch):
    samples = iter([0.002, 0.001])
    monkeypatch.setattr(hostspeed, "reference_sample", lambda: next(samples))
    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", 10.0)
    sampler = hostspeed.Sampler()
    sampler.start()
    wall, corrected = sampler.stop(1.0, 2.5)
    assert wall == 1.5
    assert corrected == 1.5 * hostspeed.REFERENCE_S / 0.0015


def test_reference_sample_restores_the_collector():
    assert gc.isenabled()
    hostspeed.reference_sample()
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.reference_sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
