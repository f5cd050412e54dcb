"""Golden compile fingerprints: the compiler's output, pinned bit for bit.

Every constant below was recorded on the commit *before* the column
refactor (PR 13's parent) and is unchanged by it: schedules, live bits,
OoR queues, machine words, circuit digests and one streamed-session
transcript.  The two Garbler-latency fingerprints were recorded when
the GE tie-break axis was retired, on the commit before, and equal
there.  Only the ``compile_key`` constants embed ``CACHE_SCHEMA``
and move when it is bumped.  Regenerate (after a deliberate compiler
change only) with::

    PYTHONPATH=src python tests/core/test_compile_golden.py
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import replace

import pytest

from repro.circuits.bristol import loads_bristol
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.progcache import circuit_digest, compile_key
from repro.gc.protocol import run_two_party
from repro.sim.config import HaacConfig, Role
from repro.workloads import PAPER_ORDER, get_workload
from tests.core.scalar_isa import machine_words
from tests.sim.test_engine_equivalence import STDLIB_FAMILIES

CONFIG = HaacConfig(n_ges=4, sww_bytes=64 * 16)
#: The Garbler's 21-stage AND pipeline, pinned on one family.
GARBLER_FAMILY = "integer8"
GARBLER_OPTS = [OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW]

BRISTOL_TEXT = """4 8
2 2 2
1 2

2 1 0 2 4 AND
2 1 1 3 5 XOR
1 1 4 6 INV
2 1 5 6 7 XOR
"""


def fingerprint(result) -> str:
    """SHA-256 over everything a compile decides, read through the
    public API only (so it reads the same on any representation)."""
    h = hashlib.sha256()

    def feed(label: str, values) -> None:
        h.update(label.encode("ascii"))
        h.update(array("q", [int(v) for v in values]).tobytes())

    streams = result.streams
    feed("ge_of", streams.ge_of)
    feed("issue_cycle", streams.issue_cycle)
    feed("makespan", [streams.makespan])
    feed("live", [instr.live for instr in result.program.instructions])
    for ge in streams.ges:
        feed("positions", ge.positions)
        feed("oor_addresses", ge.oor_addresses)
        feed("words", machine_words(ge, streams.window))
    return h.hexdigest()


def _cases():
    for family in STDLIB_FAMILIES:
        for opt in OptLevel:
            yield family, opt


def _fingerprint_name(family: str, opt: OptLevel) -> str:
    # "producer" names the greedy mapping's tie-break, the only one.
    return f"{family}/{opt.value}/producer"


def _compile(family: str, opt: OptLevel, role: Role = CONFIG.role):
    config = CONFIG.with_role(role)
    return compile_circuit(
        STDLIB_FAMILIES[family](), config.window, config.n_ges, opt,
        params=config.schedule_params(), cache=False,
    )


def _digest_circuits():
    return {
        "adder8": STDLIB_FAMILIES["adder8"](),
        "float8": STDLIB_FAMILIES["float8"](),
        "bristol4": loads_bristol(BRISTOL_TEXT, name="bristol4"),
    }


def _key(circuit) -> str:
    return compile_key(
        circuit, CONFIG.window.capacity, CONFIG.n_ges, OptLevel.RO_RN_ESW,
        CONFIG.schedule_params(),
    )


def _transcript() -> str:
    circuit = STDLIB_FAMILIES["integer8"]()
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    result = run_two_party(circuit, garbler, evaluator, seed=13, backend="auto")
    return result.transcript_digest


GOLDEN_FINGERPRINTS = {
    "adder8/baseline/producer":
        "3a8f864809cb1e765fa2f8de6c32e5cdfb8ed99f2ca213be366aa86f3fd5752c",
    "adder8/ro_rn/producer":
        "e4fd4a523600bbf6c876b4566f5c02abe0a9b4abbb93d62dddd836af0ab3e61e",
    "adder8/ro_rn_esw/producer":
        "4459f4438243b390bc25e3ad42127f07ebc5f41e3f1d5277faab904329069051",
    "adder8/seg_rn/producer":
        "338ca01b080984f5863f131835dc30f3b38ba853da1214e0b4dcc10761177b16",
    "adder8/seg_rn_esw/producer":
        "2f60ea937a0f3a5d9899b3fbddb0a8ba01e1c2ce288c9ffa9a1b5ee0e6c8ac58",
    "fixed8/baseline/producer":
        "d80c4e9e61b1736886fd0f8edbe4016f907e90745659bb2fc5de79d0b091b903",
    "fixed8/ro_rn/producer":
        "2c54d8705469c475bded4a627d31c676bbf856cee908df9b7ed7bdde83d0384e",
    "fixed8/ro_rn_esw/producer":
        "88f541a2e29a8100d234a564609139fcadee017f85ecdfabe84d362218373646",
    "fixed8/seg_rn/producer":
        "6398bdcb7ca93eb017d594f87650468d47cdadf304004e7f829c9d6aae6ad4cc",
    "fixed8/seg_rn_esw/producer":
        "343e44fe990e95a60eeb431d3a64801e169fab304fa89ce30c31a3406ffc9285",
    "float8/baseline/producer":
        "de30716665c8bc0df3a81035bfe46470e370f4f669de5d8dee8e1615946a3208",
    "float8/ro_rn/producer":
        "e6b552f5a50ed9669134d46e7d1b5812409d570e76ae05aa74d447948fb72781",
    "float8/ro_rn_esw/producer":
        "f46bdbb0fdc6402249b7b40606a444c058e8b2d2f2d9d6212758b3dae94d3a9a",
    "float8/seg_rn/producer":
        "aa39a6bbcc231c7147e2d60d198ee22d508cfdf4238fbf6fba1af671a73dbfae",
    "float8/seg_rn_esw/producer":
        "fceef9cd2d8273e6d1e30f8204a1029cfdcdbfb4805cb22c0abb12f8c141bcf7",
    "integer8/baseline/producer":
        "5e48c9ac66b981b1d63e224374a2a3fb1becee00146503a3b42c748a7632803b",
    "integer8/ro_rn/producer":
        "6639fbf7818bcfd2a4b314b07dad9106fb4ebb58f2f0c98b9af68cd9e921b1a1",
    "integer8/ro_rn_esw/producer":
        "8b33f148428b563e772b75d6414fe5d39186f4c4fdf4cd088e168f216465297c",
    "integer8/seg_rn/producer":
        "a9980fb12c3dc27fcd47ec4f4857c7944a5983d056f4ed1c7468940216ea0a25",
    "integer8/seg_rn_esw/producer":
        "76b64d1cb00023fc72df33394a61a4ac2beeb2763b51c052e29168dcd2af8f32",
    "logic8/baseline/producer":
        "67cfecb46f145cc402347e4a098ed1d9eb369cafa6277cd6751ab4a89d07c477",
    "logic8/ro_rn/producer":
        "de3e060a539e2326707ff4de4c779ce98961dcca622efe89bcac5a49511c0bda",
    "logic8/ro_rn_esw/producer":
        "70c9ad956787050ccb9b0d6abcadd3c9d2895e52d213996c4003afdcf875b053",
    "logic8/seg_rn/producer":
        "c10514f57666b96fdb5689f179c55b10c8aa1e7b0e1bb10e3014d846c7bc9b1b",
    "logic8/seg_rn_esw/producer":
        "b5dfeade3ca1bc6488f7e81af77ec4a85e6659d132245cc416aa903d265a2901",
}

GOLDEN_DIGESTS = {
    "adder8":
        "ce9de616117a705bb0da2336ac1961d51ee50a1615f33ea1a107a9ee5af05bfc",
    "bristol4":
        "5f9f36f1985915ba2a41fae4c922d8da2da2b553ebb820e290b9d6320a74ba5c",
    "float8":
        "b24c12187153e3e35955a343df7e58aa55c907aa119465b9f574965e683e860e",
}

#: ``compile_key`` embeds CACHE_SCHEMA: these are the v6 keys (earlier
#: schemas' keys are recorded in CHANGES.md).
GOLDEN_KEYS = {
    "adder8":
        "592b1f4777d8ce3878177a7673270ff9c5501a8ef71a65cc6579ad31b2940d3a",
    "bristol4":
        "3a99b8ce8eca6b33b353910b7646ad3ba374df8e2e736a2249156476bea78fa1",
    "float8":
        "ad5e3d200999ec0d46adcd4ceb5e18876f8f2a8ec05c916b6b08f5e9c517305b",
}

GOLDEN_GARBLER_FINGERPRINTS = {
    "ro_rn_esw":
        "3030a49c465b00caf3cecb8523700a1739493afa5a9d3f06c8f6c84aed09f55e",
    "seg_rn_esw":
        "0bbc12d2b85e0b54347acc54f9efaf89d5439993af830adf4433ba7cd91954b4",
}

GOLDEN_TRANSCRIPT = (
    "886543511105b508df182aa480efb5b09bb8d622f03e01a1224ceefda699a8fb"
)


@pytest.mark.parametrize(
    "family,opt", list(_cases()),
    ids=lambda v: v.value if isinstance(v, OptLevel) else str(v),
)
def test_compile_fingerprint(family, opt):
    expected = GOLDEN_FINGERPRINTS[_fingerprint_name(family, opt)]
    assert fingerprint(_compile(family, opt)) == expected


@pytest.mark.parametrize("opt", GARBLER_OPTS, ids=lambda opt: opt.value)
def test_garbler_compile_fingerprint(opt):
    expected = GOLDEN_GARBLER_FINGERPRINTS[opt.value]
    assert fingerprint(_compile(GARBLER_FAMILY, opt, Role.GARBLER)) == expected


def test_circuit_digests_and_compile_keys():
    circuits = _digest_circuits()
    assert {n: circuit_digest(c) for n, c in circuits.items()} == GOLDEN_DIGESTS
    assert {n: _key(c) for n, c in circuits.items()} == GOLDEN_KEYS


def test_streamed_transcript_digest():
    assert _transcript() == GOLDEN_TRANSCRIPT


#: Full-scale RO_RN_ESW compiles on 16 GEs, recorded on the commit before
#: the bucket-queue GE mapper: MatMult at the paper's design point (156
#: stalled issues, a live window sync) and Hamm at a 512-byte SWW (every
#: level evicts).
SCALED_CASES = {
    "MatMult/paper_default": ("MatMult", HaacConfig.paper_default()),
    "Hamm/sww512": ("Hamm", replace(HaacConfig.paper_default(), sww_bytes=512)),
    # Narrow levels: the greedy mapper's scalar step, 43,145 stalls.
    "GradDesc/paper_default": ("GradDesc", HaacConfig.paper_default()),
    # Levels sorted within each segment.
    "MatMult/seg_rn_esw": (
        "MatMult", HaacConfig.paper_default(), OptLevel.SEG_RN_ESW,
    ),
}

GOLDEN_SCALED = {
    "MatMult/paper_default":
        "acfee21e355d4d1b9576bb83fa51b257f7e3e961606b16b6cd3f5710a87bbec1",
    "Hamm/sww512":
        "9b572660723bbb415e624f10a5f3bd8895d3de0f5e9bacb34c391d0b8d6de2d4",
    "GradDesc/paper_default":
        "dfba2e4ad10024016b2fed0da35952005ddd6bbdf6b152533709f19584c1eb5f",
    "MatMult/seg_rn_esw":
        "b0d0c1e9a61ae07d8890310a453b46914123f68ba4e89962a52d1fdd3f23fd02",
}


def _compile_scaled(case: str):
    name, config, *rest = SCALED_CASES[case]
    opt = rest[0] if rest else OptLevel.RO_RN_ESW
    return compile_circuit(
        get_workload(name).build_scaled().circuit, config.window, config.n_ges,
        opt, params=config.schedule_params(), cache=False,
    )


@pytest.mark.parametrize("case", sorted(SCALED_CASES))
def test_full_scale_fingerprint(case):
    assert fingerprint(_compile_scaled(case)) == GOLDEN_SCALED[case]


#: ``circuit_digest`` of every registered workload's ``build_scaled()``
#: netlist and of AES-128, recorded on the commit before the builder
#: stamped repeated combinators: they pin the benchmark's netlists, and
#: so its compile and store keys.
GOLDEN_SCALED_DIGESTS = {
    "AES-128":
        "153af78e3dcc62b96513dff5a5a8657ec130f1b8fcbb6fd5ced6a14f1d482ed5",
    "BubbSt":
        "44c32f37bd7268157301ed3aa9eb70958422d6fcf0fb83517caf2fa2abfacdc9",
    "DotProd":
        "bba1927adc6a5bb582bb19bb476cac31deb351b9df015a1cb4e5f216cb80772a",
    "GradDesc":
        "20531157d719107a14d7b1dde7dfce9e847bf7bb69c4a1af86b39f7448194229",
    "Hamm":
        "04cc67a7d373b3eb10c2a1495b722e9bdfce4e6120a20a5cbbe4a4cfdb73800e",
    "MatMult":
        "56604596268c295ad2c8dfee2f5954760fd8e7e43b63fea1336d383b8eeba9ba",
    "Merse":
        "dee7d7d132bd3033126528406381483e562afdff98305e974ee1fdd4d055b9c4",
    "ReLU":
        "dc79bc885b6c0e85755555f35834f11e666ff39fe14c89028ab46fa5638b9df7",
    "Triangle":
        "18aa70c1d6b74bd659881ceede9a1c2f9c315ace7d846256b08b94513bc06dd9",
}


def _scaled_circuit(name: str):
    if name == "AES-128":
        return build_aes128_circuit()
    return get_workload(name).build_scaled().circuit


@pytest.mark.parametrize("name", sorted(GOLDEN_SCALED_DIGESTS))
def test_full_scale_circuit_digest(name):
    assert circuit_digest(_scaled_circuit(name)) == GOLDEN_SCALED_DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint

    pprint.pprint({
        "GOLDEN_FINGERPRINTS": {
            _fingerprint_name(family, opt): fingerprint(_compile(family, opt))
            for family, opt in _cases()
        },
        "GOLDEN_GARBLER_FINGERPRINTS": {
            opt.value: fingerprint(_compile(GARBLER_FAMILY, opt, Role.GARBLER))
            for opt in GARBLER_OPTS
        },
        "GOLDEN_DIGESTS": {
            n: circuit_digest(c) for n, c in _digest_circuits().items()
        },
        "GOLDEN_KEYS": {n: _key(c) for n, c in _digest_circuits().items()},
        "GOLDEN_TRANSCRIPT": _transcript(),
        "GOLDEN_SCALED": {
            case: fingerprint(_compile_scaled(case)) for case in SCALED_CASES
        },
        "GOLDEN_SCALED_DIGESTS": {
            name: circuit_digest(_scaled_circuit(name))
            for name in ["AES-128", *PAPER_ORDER]
        },
    }, width=100)
