"""Unit tests for Resource / Store / Container."""

import pytest

from repro.simnet import Container, Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(name, hold):
        req = res.request()
        yield req
        log.append((sim.now, name, "in"))
        yield sim.timeout(hold)
        res.release(req)
        log.append((sim.now, name, "out"))

    sim.process(worker("a", 5))
    sim.process(worker("b", 3))
    sim.run()
    assert log == [
        (0.0, "a", "in"),
        (5.0, "a", "out"),
        (5.0, "b", "in"),
        (8.0, "b", "out"),
    ]


def test_resource_capacity_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(name):
        req = res.request()
        yield req
        yield sim.timeout(10)
        res.release(req)
        done.append((sim.now, name))

    for n in ["a", "b", "c"]:
        sim.process(worker(n))
    sim.run()
    assert done == [(10.0, "a"), (10.0, "b"), (20.0, "c")]


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(name, start):
        yield sim.timeout(start)
        req = res.request()
        yield req
        order.append(name)
        yield sim.timeout(1)
        res.release(req)

    for i, n in enumerate(["a", "b", "c", "d"]):
        sim.process(worker(n, i * 0.1))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_resource_release_unheld_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_utilisation():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)
        yield sim.timeout(5)

    sim.process(worker())
    sim.run()
    assert res.utilisation() == pytest.approx(0.5)


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


# ---------------------------------------------------------------- Store
def test_store_fifo():
    sim = Simulator()
    st = Store(sim)
    got = []

    def producer():
        for i in range(3):
            assert st.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield st.get()
            got.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [v for _, v in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    st = Store(sim)
    got = []

    def consumer():
        item = yield st.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(7)
        assert st.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(7.0, "x")]


def test_store_try_put_respects_capacity():
    sim = Simulator()
    st = Store(sim, capacity=2)
    assert st.put(1)
    assert st.put(2)
    assert not st.put(3)  # full: refused, nothing stored
    assert list(st.items) == [1, 2]


# ---------------------------------------------------------------- Container
def test_container_try_get():
    sim = Simulator()
    c = Container(sim, capacity=10, init=10)
    assert c.try_get(4)
    assert c.try_get(6)
    assert not c.try_get(1)
    c.put(1)
    assert c.try_get(1)
    assert c.min_level == 0


def test_container_try_get_rejects_negative_amount():
    # a negative take would raise the level past capacity, as an
    # unchecked put would
    sim = Simulator()
    c = Container(sim, capacity=10, init=10)
    with pytest.raises(SimulationError):
        c.try_get(-5)
    assert c.level == 10


def test_container_overflow_raises():
    # over-returning credits is an accounting bug in the caller; it must
    # surface, not be silently clamped at capacity
    sim = Simulator()
    c = Container(sim, capacity=10, init=5)
    with pytest.raises(SimulationError):
        c.put(100)
    assert c.level == 5
    c.put(5)
    assert c.level == 10
