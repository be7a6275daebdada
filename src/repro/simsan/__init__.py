"""repro.simsan — runtime sanitizer for the simulation kernel.

The dynamic counterpart to :mod:`repro.simlint`: where simlint proves
properties of the *source* (no wall-clock, no unseeded RNG, coroutine
protocol), simsan checks properties of a *run* — schedule-order
hazards, leaked resource claims, and orphaned request spans.
Opt in per simulator::

    sim = Simulator(sanitize=True)
    ... drive the workload ...
    report = sim.sanitizer.check_quiesce() and sim.sanitizer.report()

or per testbed / scenario (``build_testbed(sanitize=True)``,
``run_scenario(..., sanitize=True)``), or from the CLI::

    python -m repro sanitize            # quick scenario matrix
    python -m repro demo --loss 1e-3    # every protocol point (+ faults)

When off the kernel pays nothing (see docs/simsan.md for the measured
overhead when on).
"""

from .findings import Finding, Report
from .runtime import Sanitizer

__all__ = ["Finding", "Report", "Sanitizer"]
