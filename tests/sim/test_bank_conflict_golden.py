"""Golden bank-conflict replays: the SWW port-arbitration model, pinned.

Bank conflicts (``HaacConfig.model_bank_conflicts``) have one
implementation, the per-gate ``reference`` replay, so there is no
second engine to diff it against.  Every row below was recorded while
the flat-array loop still existed and agreed with the reference and
numpy engines: ``(compute_cycles, stall breakdown, issued per GE)`` for
the five stdlib families at every OptLevel on the equivalence suite's
4-GE / 1 KB-SWW design point.  Regenerate (after a deliberate timing
model change only) from the repository root with::

    PYTHONPATH=src python -m tests.sim.test_bank_conflict_golden
"""

from __future__ import annotations

import pytest

from repro.core.compiler import OptLevel
from repro.sim.timing import simulate
from tests.sim.test_engine_equivalence import STDLIB_FAMILIES, _compiled

ENGINES = ("numpy", "reference")


def _replay(family: str, opt: OptLevel, engine: str):
    result, config = _compiled(family, opt)
    conflict_config = config._replace(
        model_bank_conflicts=True, sim_engine=engine
    )
    sim = simulate(result.streams, conflict_config)
    return sim.compute_cycles, sim.stalls.as_dict(), dict(sim.issued_per_ge)


def _cases():
    for family in sorted(STDLIB_FAMILIES):
        for opt in OptLevel:
            yield family, opt


def _stalls(dependence, window_sync, bank_conflict, drain):
    return {
        "dependence": dependence,
        "window_sync": window_sync,
        "bank_conflict": bank_conflict,
        "drain": drain,
    }


GOLDEN_BANK_CONFLICTS = {
    "adder8/baseline":
        (170, _stalls(585, 0, 4, 2), {0: 8, 1: 12, 2: 10, 3: 8}),
    "adder8/ro_rn":
        (167, _stalls(577, 0, 1, 2), {0: 11, 1: 11, 2: 8, 3: 8}),
    "adder8/seg_rn":
        (170, _stalls(585, 0, 4, 2), {0: 11, 1: 11, 2: 8, 3: 8}),
    "adder8/ro_rn_esw":
        (167, _stalls(577, 0, 1, 2), {0: 11, 1: 11, 2: 8, 3: 8}),
    "adder8/seg_rn_esw":
        (170, _stalls(585, 0, 4, 2), {0: 11, 1: 11, 2: 8, 3: 8}),
    "fixed8/baseline":
        (9845, _stalls(36499, 2, 58, 2), {0: 808, 1: 761, 2: 598, 3: 602}),
    "fixed8/ro_rn":
        (1660, _stalls(3449, 107, 267, 2), {0: 797, 1: 687, 2: 711, 3: 574}),
    "fixed8/seg_rn":
        (9191, _stalls(33834, 9, 100, 2), {0: 711, 1: 748, 2: 687, 3: 623}),
    "fixed8/ro_rn_esw":
        (1660, _stalls(3449, 107, 267, 2), {0: 797, 1: 687, 2: 711, 3: 574}),
    "fixed8/seg_rn_esw":
        (9191, _stalls(33834, 9, 100, 2), {0: 711, 1: 748, 2: 687, 3: 623}),
    "float8/baseline":
        (2316, _stalls(8493, 71, 1, 19), {0: 157, 1: 159, 2: 148, 3: 151}),
    "float8/ro_rn":
        (986, _stalls(3168, 0, 78, 19), {0: 158, 1: 157, 2: 144, 3: 156}),
    "float8/seg_rn":
        (1765, _stalls(6317, 1, 12, 19), {0: 160, 1: 161, 2: 148, 3: 146}),
    "float8/ro_rn_esw":
        (986, _stalls(3168, 0, 78, 19), {0: 158, 1: 157, 2: 144, 3: 156}),
    "float8/seg_rn_esw":
        (1765, _stalls(6317, 1, 12, 19), {0: 160, 1: 161, 2: 148, 3: 146}),
    "integer8/baseline":
        (1122, _stalls(4005, 6, 3, 2), {0: 104, 1: 107, 2: 103, 3: 106}),
    "integer8/ro_rn":
        (355, _stalls(919, 1, 36, 2), {0: 97, 1: 117, 2: 117, 3: 89}),
    "integer8/seg_rn":
        (1031, _stalls(3576, 62, 12, 2), {0: 115, 1: 113, 2: 102, 3: 90}),
    "integer8/ro_rn_esw":
        (355, _stalls(919, 1, 36, 2), {0: 97, 1: 117, 2: 117, 3: 89}),
    "integer8/seg_rn_esw":
        (1031, _stalls(3576, 62, 12, 2), {0: 115, 1: 113, 2: 102, 3: 90}),
    "logic8/baseline":
        (369, _stalls(1305, 0, 4, 2), {0: 42, 1: 35, 2: 31, 3: 45}),
    "logic8/ro_rn":
        (150, _stalls(363, 2, 30, 2), {0: 39, 1: 40, 2: 34, 3: 40}),
    "logic8/seg_rn":
        (222, _stalls(706, 0, 15, 2), {0: 38, 1: 30, 2: 41, 3: 44}),
    "logic8/ro_rn_esw":
        (150, _stalls(363, 2, 30, 2), {0: 39, 1: 40, 2: 34, 3: 40}),
    "logic8/seg_rn_esw":
        (222, _stalls(706, 0, 15, 2), {0: 38, 1: 30, 2: 41, 3: 44}),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "family,opt", list(_cases()),
    ids=lambda v: v.value if isinstance(v, OptLevel) else str(v),
)
def test_bank_conflict_replay_matches_golden(family, opt, engine):
    """Both engine names route bank conflicts to the reference replay,
    which must reproduce the recorded table exactly."""
    expected = GOLDEN_BANK_CONFLICTS[f"{family}/{opt.value}"]
    assert _replay(family, opt, engine) == expected


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("GOLDEN_BANK_CONFLICTS = {")
    for family, opt in _cases():
        cycles, stalls, issued = _replay(family, opt, "reference")
        terms = ", ".join(str(value) for value in stalls.values())
        print(f'    "{family}/{opt.value}":')
        print(f"        ({cycles}, _stalls({terms}), {issued}),")
    print("}")
