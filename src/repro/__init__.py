"""HAAC: A Hardware-Software Co-Design to Accelerate Garbled Circuits.

Full Python reproduction of Mo, Gopinath & Reagen (ISCA 2023):

* :mod:`repro.gc` -- garbled-circuits substrate (AES, Half-Gates,
  FreeXOR, OT, two-party protocol), built from scratch;
* :mod:`repro.circuits` -- circuit IR, builder DSL, integer/float
  stdlib, Bristol format I/O;
* :mod:`repro.workloads` -- the eight VIP-Bench workloads;
* :mod:`repro.core` -- the paper's contribution: the HAAC ISA and the
  optimizing compiler (reorder, rename, ESW, stream generation);
* :mod:`repro.sim` -- cycle-level timing simulator and the functional
  HAAC machine that executes compiled streams with real cryptography;
* :mod:`repro.hwmodel` -- area / power / energy models (Table 4);
* :mod:`repro.baselines` -- EMP-on-CPU and plaintext cost models, prior
  accelerator data (Table 5);
* :mod:`repro.analysis` -- one driver per evaluation table and figure.

Quickstart::

    from repro.core import compile_circuit
    from repro.sim import HBM2, HaacConfig, simulate
    from repro.workloads import get_workload

    config = HaacConfig.paper_default(HBM2)
    circuit = get_workload("ReLU").build_scaled().circuit
    result = compile_circuit(
        circuit, config.window, config.n_ges,
        params=config.schedule_params(),
    )
    print(simulate(result.streams, config).summary())
"""

__version__ = "1.0.0"

from . import analysis, baselines, circuits, core, gc, hwmodel, sim, workloads

__all__ = [
    "analysis",
    "baselines",
    "circuits",
    "core",
    "gc",
    "hwmodel",
    "sim",
    "workloads",
    "__version__",
]
