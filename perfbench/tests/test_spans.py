"""Self-time accounting of the span recorder."""

from perfbench.spans import Span, Tracer, covered, descendants, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_children_are_subtracted_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("epoch"):
        clock.now = 1.0
        with tracer.span("forward"):
            clock.now = 2.0
            with tracer.span("kernel"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 10.0
    epoch, forward, kernel = tracer.self_times()
    assert [s.name for s in tracer.spans] == ["epoch", "forward", "kernel"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    assert epoch == 10.0 - 5.0  # forward covers [1, 6]
    assert forward == 5.0 - 3.0  # kernel covers [2, 5]
    assert kernel == 3.0


def test_back_to_back_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("round"):
        for name, length in (("a", 2.0), ("b", 3.0), ("a", 1.0)):
            with tracer.span(name):
                clock.now += length
        clock.now += 0.5
    own = tracer.self_times()
    assert own[0] == 0.5
    assert own[1:] == [2.0, 3.0, 1.0]
    assert descendants(tracer.spans, 0) == [1, 2, 3]


def test_overlapping_children_are_counted_as_their_union():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 1.0, 4.0, 0),
        Span("y", 3.0, 6.0, 0),
        Span("z", 6.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - (5.0 + 4.0)
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_descendants_stop_at_the_next_root():
    spans = [
        Span("epoch", 0, 4, -1),
        Span("a", 1, 2, 0),
        Span("b", 1.2, 1.5, 1),
        Span("epoch", 5, 9, -1),
        Span("a", 6, 7, 3),
    ]
    assert descendants(spans, 0) == [1, 2]
    assert descendants(spans, 3) == [4]
