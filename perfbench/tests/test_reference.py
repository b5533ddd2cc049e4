"""The machine-speed yardstick: pieces, slowness and reference seconds."""

import signal
import time

import pytest

import reference
from reference import Sampler, Timed, slowness


def test_reference_seconds_are_seconds_over_slowness():
    timed = Timed(result=None, start=10.0, end=13.2, seconds=3.0, slowness=1.5)
    assert timed.reference_s == pytest.approx(2.0)


def test_slowness_is_a_trimmed_mean_over_the_unit():
    unit = 0.001
    # The fastest and slowest tenth are left out, whatever they hold.
    times = [0.0] * 10 + [unit] * 40 + [2 * unit] * 40 + [1000 * unit] * 10
    assert slowness(times, unit) == pytest.approx(1.5)


def _spin(seconds=0.002):
    start = time.thread_time()
    while time.thread_time() - start < seconds:
        pass


def test_sampler_takes_pieces_during_a_region_and_subtracts_them(monkeypatch):
    # A piece that spins for its unit of CPU time: the slowness is about 1.
    monkeypatch.setitem(reference.PIECES, "spin", (_spin, 0.002))
    sampler = Sampler("spin")
    before = signal.getsignal(signal.SIGALRM)
    timed = sampler.timed(lambda: time.sleep(0.5))
    pieces = len(sampler.times)
    assert 0.5 / reference.PERIOD_S - 3 <= pieces <= 0.5 / reference.PERIOD_S + 1
    assert timed.end - timed.start - timed.seconds == pytest.approx(sum(sampler.times))
    assert len(sampler.cpu_times) == pieces
    assert timed.seconds == pytest.approx(0.5, rel=0.2)
    assert timed.slowness == pytest.approx(1.0, rel=0.5)
    # The timer and the handler are put back.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_a_region_shorter_than_a_period_gets_one_piece_after_it():
    sampler = Sampler("python")
    timed = sampler.timed(lambda: 7)
    assert timed.result == 7 and len(sampler.times) == 1
    assert timed.seconds == pytest.approx(timed.end - timed.start)


@pytest.mark.parametrize("kind", sorted(reference.PIECES))
def test_every_piece_is_deterministic(kind):
    piece, unit = reference.PIECES[kind]
    assert unit > 0
    assert piece() == piece()
