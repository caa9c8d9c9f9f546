"""Span self-time arithmetic and function wrapping."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("cell")          # t=0
    clock.now = 1.0
    tracer.enter("sim")           # t=1
    clock.now = 2.0
    tracer.enter("memory")        # t=2
    clock.now = 2.5
    tracer.exit()                 # memory: 0.5
    clock.now = 3.0
    tracer.enter("memory")        # t=3
    clock.now = 4.0
    tracer.exit()                 # memory: 1.0
    clock.now = 6.0
    tracer.exit()                 # sim: 5.0 inclusive, 3.5 self
    clock.now = 10.0
    tracer.exit()                 # cell: 10.0 inclusive, 5.0 self
    assert tracer.calls == {"cell": 1, "sim": 1, "memory": 2}
    assert tracer.inclusive_s == {"cell": 10.0, "sim": 5.0, "memory": 1.5}
    assert tracer.self_s == {"cell": 5.0, "sim": 3.5, "memory": 1.5}
    # Self times partition the root interval.
    assert sum(tracer.self_s.values()) == tracer.inclusive_s["cell"]


def test_reentry_does_not_double_count_inclusive():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("sim")           # t=0
    clock.now = 1.0
    tracer.enter("resources")     # t=1
    clock.now = 2.0
    tracer.enter("sim")           # t=2, re-entered
    clock.now = 4.0
    tracer.exit()                 # inner sim: 2.0
    clock.now = 5.0
    tracer.exit()                 # resources: 4.0 inclusive, 2.0 self
    clock.now = 7.0
    tracer.exit()                 # outer sim: 7.0 inclusive, 3.0 self
    assert tracer.inclusive_s["sim"] == 7.0
    assert tracer.self_s == {"sim": 5.0, "resources": 2.0}
    assert tracer.calls["sim"] == 2


def test_wrap_times_calls_and_unwrap_restores():
    class Layer:
        def work(self, x):
            return x * 2

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer")
    assert Layer().work(3) == 6 and Layer().work(1) == 2
    assert tracer.calls["layer"] == 2
    tracer.unwrap()
    assert Layer.__dict__["work"] is original


def test_exceptions_close_the_span():
    class Layer:
        def fail(self):
            raise KeyError("x")

    tracer = Tracer()
    tracer.wrap(Layer, "fail", "layer")
    with pytest.raises(KeyError):
        Layer().fail()
    assert tracer.calls["layer"] == 1
    assert not tracer._stack
    tracer.unwrap()


def test_generator_functions_are_refused():
    class Layer:
        def process(self):
            yield 1

    with pytest.raises(TypeError):
        Tracer().wrap(Layer, "process", "layer")


def test_dynamic_layer_names():
    class Layer:
        def run(self, until=None):
            return until

    tracer = Tracer()
    tracer.wrap(Layer, "run",
                lambda args, kwargs: "boot" if kwargs.get("until") else "sim")
    Layer().run(until=1)
    Layer().run()
    assert tracer.calls == {"boot": 1, "sim": 1}
    tracer.unwrap()
