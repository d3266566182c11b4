from collections import deque
from fractions import Fraction
from math import lcm

import pytest

from neurec import RecurrenceSystem, ShapeMismatch


def rational_system(memory, taps, threshold, init, label=""):
    """The RecurrenceSystem of rational taps (j, weight) and threshold, ints
    or Fractions: each times the lcm of their denominators, which the system
    keeps as its denominator (and reduces, as every system is)."""
    theta, *weights = (Fraction(v) for v in (threshold, *(w for _, w in taps)))
    d = lcm(theta.denominator, *(w.denominator for w in weights))
    taps = tuple((j, int(w * d)) for (j, _), w in zip(taps, weights))
    return RecurrenceSystem(memory, taps, int(theta * d), init, label, d)


def dense_oracle_run(system, init, steps):
    """Reference trace via a full-length rational dot product every step.

    Kept intentionally slow and direct, independent of the package's
    stepping: it expands the taps into the dense weight list, touches every
    weight each step and compares against the threshold in Fraction
    arithmetic.  No scaling, no sparsity.
    """
    if len(init) != system.memory:
        raise ShapeMismatch(f"init length {len(init)} != system memory {system.memory}")
    trace = list(init)
    window = deque(init, maxlen=system.memory)
    weights = [0] * system.memory
    for j, w in system.taps:
        weights[j - 1] = Fraction(w, system.denominator)
    theta = Fraction(system.threshold, system.denominator)
    for _ in range(steps):
        s = Fraction(0)
        for a, bit in zip(weights, reversed(window)):
            if bit:
                s = s + a
        out = 1 if s >= theta else 0
        trace.append(out)
        window.append(out)
    return bytes(trace)


def pytest_addoption(parser):
    parser.addoption(
        "--long",
        action="store_true",
        default=False,
        help="run the long tier (m >= 16 dynamics)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--long"):
        return
    skip = pytest.mark.skip(reason="long tier; enable with --long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def capped_simulation(monkeypatch):
    """Fail the test at once, rather than hang, when cycles asks simulate
    for more than MEASURE_CUTOFF steps."""
    import neurec.cycles
    from neurec.verify import MEASURE_CUTOFF

    simulate = neurec.cycles.simulate

    def guarded(cs, init, steps):
        if steps > MEASURE_CUTOFF:
            pytest.fail(f"simulate asked for {steps:,} steps, past MEASURE_CUTOFF")
        return simulate(cs, init, steps)

    monkeypatch.setattr("neurec.cycles.simulate", guarded)


@pytest.fixture
def count_slides(monkeypatch):
    """count_slides(on_slides, on_advance=None) passes on_slides the slides
    of every chunk either stepping loop takes: each count sent to
    engine.spike_steps, by which every search and simulation steps, and each
    advance_word call cycles makes, by which a handoff lands.  on_advance,
    when given, takes advance_word's slides instead."""
    import neurec.engine

    advance, spikes = neurec.engine.advance_word, neurec.engine.spike_steps

    def install(on_slides, on_advance=None):
        def counted_advance(cs, word, steps):
            (on_advance or on_slides)(steps)
            return advance(cs, word, steps)

        def counted_spikes(cs, trace):
            loop = spikes(cs, trace)
            steps = yield next(loop)
            while True:
                on_slides(steps)
                steps = yield loop.send(steps)

        monkeypatch.setattr("neurec.cycles.advance_word", counted_advance)
        monkeypatch.setattr("neurec.engine.spike_steps", counted_spikes)

    return install


@pytest.fixture
def misplaced_handoff(monkeypatch):
    """z_handoff with its handoff time shifted by one: z(4)'s handoff
    certificate at m = 21 then does not close, and its proof falls back to
    a simulation."""
    import neurec.verify

    z_handoff = neurec.verify.z_handoff

    def shifted(params, d):
        handoff = z_handoff(params, d)
        return handoff._replace(at=handoff.at + 1)

    monkeypatch.setattr("neurec.verify.z_handoff", shifted)
