"""Functional CGRA simulation.

Two cooperating pieces:

* :mod:`repro.simulator.reference` — a golden-model interpreter that executes
  a DFG iteration by iteration directly from its graph structure.
* :mod:`repro.simulator.machine` — a cycle-accurate executor that runs a
  *mapping* on the modelled CGRA (per-PE output registers and register files)
  and checks that every consumed operand is the value the golden model says it
  should be.

Together they provide end-to-end evidence that a mapping is not just legal on
paper but actually computes the loop: the test-suite simulates every mapping
produced by the SAT mapper and the baselines against the reference
interpreter.
"""

from repro.simulator.machine import (
    CGRASimulator,
    SimulationResult,
    replay_validated,
)
from repro.simulator.reference import ReferenceInterpreter, interpret_dfg

__all__ = [
    "ReferenceInterpreter",
    "interpret_dfg",
    "CGRASimulator",
    "SimulationResult",
    "replay_validated",
]
