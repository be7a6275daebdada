"""Container credit accounting: returning more units than were taken is
a caller bug, and ``put`` raises instead of clamping the level.

The module keeps its name so that the test's id stays stable.
"""

import pytest

from repro.simnet import Container, SimulationError, Simulator


def test_container_over_return_raises():
    sim = Simulator()
    box = Container(sim, capacity=10, init=10)
    assert box.try_get(3) and box.level == 7
    box.put(3)
    with pytest.raises(SimulationError, match="over-returned"):
        box.put(1)
    # level untouched by the rejected put
    assert box.level == 10
