"""The reproduction of Section 4 of the paper, on the calibrated model.

``python -m repro.eval <section> [--quick]`` prints one section of the
reproduction document; ``python -m repro.eval all`` prints all of it,
which is EXPERIMENTS.md.

- :mod:`repro.eval.stack_analysis` -- Table 1: isolated latency of each
  protocol with and without IPSec.
- :mod:`repro.eval.atomic_burst` -- Figures 4-6: atomic broadcast burst
  latency and throughput under the three faultloads; Figure 7: relative
  cost of agreement.
- :mod:`repro.eval.claims` -- the Section 4.3 claims as predicates.
- :mod:`repro.eval.sections` -- the paper's sections of the document;
  :mod:`repro.eval.ablations` -- the ablations and extensions.
- :mod:`repro.eval.report` -- the markdown tables;
  :mod:`repro.eval.plotting` -- the ASCII charts.
- :mod:`repro.eval.paper_data` -- the numbers the paper reports, for
  side-by-side comparison.
- :mod:`repro.eval.cli` -- the ``python -m repro.eval`` (``ritas-bench``)
  entry point.
"""

from repro.eval.atomic_burst import BurstResult, run_burst, sweep_bursts
from repro.eval.claims import ClaimResult, check_all
from repro.eval.stack_analysis import (
    PROTOCOL_ORDER,
    latency_table,
    measure_protocol_latency,
)

__all__ = [
    "BurstResult",
    "ClaimResult",
    "PROTOCOL_ORDER",
    "check_all",
    "latency_table",
    "measure_protocol_latency",
    "run_burst",
    "sweep_bursts",
]
