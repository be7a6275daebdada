"""Rule modules; importing this package registers every rule.

Rule id map (one module per bug family):

* ``wallclock``          — SIM101 wall-clock-call
* ``randomness``         — SIM102 unseeded-random
* ``ordering``           — SIM103 set-iteration-order, SIM104 id-keyed-collection
* ``coroutine``          — SIM201 yield-non-event, SIM203 abandoned-claim
* ``resource_hygiene``   — SIM301 leak-on-interrupt
* ``telemetry_hygiene``  — SIM401 uncached-metric-handle
* ``flow_rules``         — SIM501 unjoined-child-process,
  SIM502 set-order-emission, SIM503 span-close-on-all-paths
  (CFG-based; see :mod:`repro.simlint.flow`)
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    coroutine,
    flow_rules,
    ordering,
    randomness,
    resource_hygiene,
    telemetry_hygiene,
    wallclock,
)
