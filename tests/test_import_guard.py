"""networkx stays off the mapping, farm and service paths.

``DFG.to_networkx`` is the package's only use of networkx and imports it
on call; everything a mapping run touches uses the pure-Python graph
helpers in :mod:`repro.dfg.analysis`.  A fresh interpreter imports the
entry-point modules, maps a kernel with SAT-MapIt and with RAMP, replays
both mappings, and must still not have networkx loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import sys

import repro.cli
import repro.core.mapper
import repro.experiments.runner
import repro.farm.scheduler
import repro.frontend
import repro.search.cache
import repro.service
import repro.simulator
from repro.baselines import RampMapper
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.simulator import replay_validated

for mapper in (SatMapItMapper(MapperConfig(timeout=60, random_seed=0)), RampMapper()):
    outcome = mapper.map(get_kernel("nw"), CGRA.square(3))
    assert outcome.success, type(mapper).__name__
    assert replay_validated(outcome.mapping, outcome.register_allocation)
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_mapping_paths_do_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
