"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``workloads``   -- list the VIP-Bench workloads or show one circuit;
* ``compile``     -- run the compiler on a workload and report each
  configuration's schedule/traffic;
* ``simulate``    -- timing-simulate a workload on a chosen design point;
* ``protocol``    -- run the real two-party millionaires' demo;
* ``serve``       -- multiplex N concurrent streamed sessions on one
  scheduler and report per-session service metrics;
* ``figures``     -- print the paper's tables/figures as text, or write
  their committed CSV + Vega-Lite artifacts into ``--emit DIR``;
* ``store``       -- inspect, prune or clear the content-addressed stores
  (compiled programs and experiment results); merge or bundle results.

Performance is measured by ``python3 perf/run.py`` (see
``perf/README.md``), not by a subcommand here; the paper's claims are
asserted over the experiment rows in ``tests/analysis/test_paper_claims.py``.

``compile`` and ``simulate`` accept ``--cache [DIR]`` to reuse compiled
programs across invocations (warm sweeps skip the compiler); the
``REPRO_PROG_CACHE`` environment variable does the same globally.
``figures`` accepts ``--store [DIR]`` (or
``REPRO_RESULT_STORE``) to serve previously-computed grid points from
the content-addressed result store instead of recompiling/replaying.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis.figures import EXPERIMENT_DRIVERS
from .analysis.report import render_table
from .core.compiler import OptLevel, compile_circuit
from .faults import FRAME_FAULTS, PROCESS_CHAOS
from .sim.config import HaacConfig, Role
from .sim.dram import DDR4, HBM2
from .sim.timing import simulate
from .workloads import PAPER_ORDER, get_workload

__all__ = ["main", "build_parser"]

def _positive_int(text: str) -> int:
    """argparse type for ``--ges`` / ``--sww-kb``: a bad size is a usage
    error naming the flag (exit 2), not a ``HaacConfig`` traceback."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HAAC (ISCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_wl = sub.add_parser("workloads", help="list or inspect workloads")
    p_wl.add_argument("name", nargs="?", help="workload to inspect")

    def add_cache_flag(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache",
            nargs="?",
            const="on",
            default=None,
            metavar="DIR",
            help="persist compiled programs (default dir, or DIR); "
            "falls back to $REPRO_PROG_CACHE when omitted",
        )

    p_c = sub.add_parser("compile", help="compile a workload at every opt level")
    p_c.add_argument("name", choices=PAPER_ORDER)
    p_c.add_argument("--ges", type=_positive_int, default=16)
    p_c.add_argument("--sww-kb", type=_positive_int, default=64)
    add_cache_flag(p_c)

    p_s = sub.add_parser("simulate", help="timing-simulate one design point")
    p_s.add_argument("name", choices=PAPER_ORDER)
    p_s.add_argument("--ges", type=_positive_int, default=16)
    p_s.add_argument("--sww-kb", type=_positive_int, default=64)
    p_s.add_argument("--dram", choices=["ddr4", "hbm2"], default="ddr4")
    p_s.add_argument("--role", choices=["evaluator", "garbler"], default="evaluator")
    p_s.add_argument(
        "--opt",
        choices=[opt.value for opt in OptLevel],
        default=OptLevel.RO_RN_ESW.value,
    )
    add_cache_flag(p_s)

    p_p = sub.add_parser("protocol", help="run the two-party millionaires demo")
    p_p.add_argument("--alice", type=int, default=4_200_000)
    p_p.add_argument("--bob", type=int, default=3_700_000)
    p_p.add_argument("--width", type=int, default=32)
    p_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos run, e.g. 'drop:0.05,seed=7' "
        f"(frame kinds: {' '.join(FRAME_FAULTS)}; default: no faults)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run N concurrent streamed millionaires sessions through "
        "the session multiplexer and report service metrics",
    )
    p_srv.add_argument(
        "--sessions", type=int, default=4, help="sessions to submit"
    )
    p_srv.add_argument("--width", type=int, default=16)
    p_srv.add_argument(
        "--concurrency",
        type=int,
        default=4,
        metavar="N",
        help="simultaneously running sessions (the scheduler slots)",
    )
    p_srv.add_argument(
        "--pending",
        type=int,
        default=8,
        metavar="N",
        help="admission queue depth behind the slots; a submit past "
        "slots+queue is rejected with ServiceSaturated",
    )
    p_srv.add_argument(
        "--transport",
        choices=["memory", "process"],
        default="memory",
        help="session substrate: both parties in this thread over the "
        "in-memory LossyWire, or one OS process per party under the "
        "supervisor over a kernel socketpair",
    )
    p_srv.add_argument(
        "--deadline-s",
        type=float,
        default=30.0,
        metavar="S",
        help="process transport: per-session wall-clock budget before "
        "the watchdog kills and (maybe) retries it; 0 disables",
    )
    p_srv.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="process transport: failed-session relaunch budget "
        "(exponential backoff; retried transcripts are re-verified "
        "bit-identical)",
    )
    p_srv.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        metavar="S",
        help="process transport: how long a SIGTERM/SIGINT drain lets "
        "in-flight sessions finish before killing them",
    )
    p_srv.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault spec injected into the --fault-session session only; "
        f"--transport memory takes the frame kinds ({' '.join(FRAME_FAULTS)}), "
        f"process the chaos kinds ({' '.join(PROCESS_CHAOS)})",
    )
    p_srv.add_argument(
        "--fault-session",
        type=int,
        default=0,
        metavar="I",
        help="index of the session that receives --faults (default 0)",
    )
    p_srv.add_argument("--seed", type=int, default=2023)

    p_f = sub.add_parser(
        "figures",
        help="print the paper's tables/figures as text, or write their "
        "CSV + Vega-Lite artifacts into --emit DIR",
    )
    # No argparse choices= here: a positional with nargs="*" plus
    # choices rejects the empty (default) invocation; validated in
    # _cmd_figures instead.
    p_f.add_argument(
        "which",
        nargs="*",
        help=f"tables/figures ({', '.join(EXPERIMENT_DRIVERS)}; "
        "default: all)",
    )
    p_f.add_argument(
        "--full", action="store_true",
        help="all 8 workloads (default: the 3-workload quick subset)",
    )
    p_f.add_argument(
        "--emit",
        default=None,
        metavar="DIR",
        help="write <name>.csv for every table/figure and <name>.vl.json "
        "for the figures into DIR instead of printing the text tables",
    )
    p_f.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="content-addressed result store: flag alone for the default "
        "directory, or DIR; cached design points are served without "
        "recompiling/replaying (default: $REPRO_RESULT_STORE)",
    )

    p_st = sub.add_parser(
        "store",
        help="inspect, prune or clear the content-addressed stores "
        "(compiled programs and experiment results); merge or bundle "
        "results",
    )
    p_st.add_argument(
        "action",
        choices=["info", "prune", "clear", "merge", "bundle"],
        nargs="?",
        default="info",
        help="info: census incl. stale-schema entries; prune: delete "
        "stale-schema/corrupt entries only; clear: delete everything; "
        "merge: fold another result store dir or bundle file in; "
        "bundle: export live results as one JSON file",
    )
    p_st.add_argument(
        "path",
        nargs="?",
        default=None,
        help="merge: source store directory or bundle file; "
        "bundle: output file path",
    )
    p_st.add_argument(
        "--dir",
        default=None,
        help="one directory for both stores, each reading only its own "
        "entries (default: $REPRO_PROG_CACHE / $REPRO_RESULT_STORE, else "
        "~/.cache/repro/progcache and ~/.cache/repro/resultstore)",
    )
    return parser


def _cmd_workloads(args: argparse.Namespace) -> int:
    if args.name is None:
        rows = []
        for name in PAPER_ORDER:
            workload = get_workload(name)
            rows.append([
                name, workload.character, workload.description,
                str(workload.scaled_params),
            ])
        print(render_table(
            ["Name", "Character", "Description", "Scaled params"], rows,
            title="VIP-Bench workloads (paper Table 2 order)",
        ))
        return 0
    workload = get_workload(args.name)
    built = workload.build_scaled()
    stats = built.circuit.stats()
    rows = [
        ["levels", stats.levels],
        ["wires", stats.wires],
        ["gates", stats.gates],
        ["AND %", f"{100 * stats.and_fraction:.2f}"],
        ["ILP", f"{stats.ilp:.1f}"],
        ["garbler inputs", built.circuit.n_garbler_inputs],
        ["evaluator inputs", built.circuit.n_evaluator_inputs],
        ["outputs", len(built.circuit.outputs)],
    ]
    print(render_table(["Property", "Value"], rows, title=f"{args.name} (scaled)"))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    built = get_workload(args.name).build_scaled()
    config = HaacConfig(n_ges=args.ges, sww_bytes=args.sww_kb * 1024)
    rows = []
    for opt in OptLevel:
        result = compile_circuit(
            built.circuit, config.window, config.n_ges,
            opt=opt, params=config.schedule_params(), cache=args.cache,
        )
        live, oor, total = result.streams.wire_traffic_wires()
        rows.append([
            opt.value, result.streams.makespan, live, oor,
            f"{result.esw_report.spent_pct:.1f}",
        ])
    print(render_table(
        ["Config", "Makespan", "Live wires", "OoR wires", "Spent %"],
        rows,
        title=f"{args.name}: {args.ges} GEs, {args.sww_kb} KB SWW",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    built = get_workload(args.name).build_scaled()
    config = HaacConfig(
        n_ges=args.ges,
        sww_bytes=args.sww_kb * 1024,
        dram=HBM2 if args.dram == "hbm2" else DDR4,
        role=Role.GARBLER if args.role == "garbler" else Role.EVALUATOR,
    )
    result = compile_circuit(
        built.circuit, config.window, config.n_ges,
        opt=OptLevel(args.opt), params=config.schedule_params(),
        cache=args.cache,
    )
    sim = simulate(result.streams, config)
    rows = [[key, value] for key, value in sim.summary().items()]
    rows.append(["stalls", str(sim.stalls.as_dict())])
    rows.append(["traffic by stream", str(sim.ledger.as_dict())])
    print(render_table(
        ["Metric", "Value"], rows,
        title=f"{args.name} on {config.n_ges} GEs / {args.sww_kb} KB / "
        f"{config.dram.name} ({args.opt})",
    ))
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    from .baselines.prior_work import millionaires_circuit
    from .circuits.stdlib.integer import encode_int
    from .faults import ProtocolFault
    from .gc.protocol import run_two_party

    circuit = millionaires_circuit("millionaires", args.width)
    try:
        result = run_two_party(
            circuit,
            encode_int(args.alice, args.width),
            encode_int(args.bob, args.width),
            seed=2023,
            faults=args.faults,
        )
    except ProtocolFault as exc:
        print(f"session failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a bad --faults spec, before anything ran
        print(f"session rejected: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    richer = "Alice" if result.output_bits[0] else "Bob (or tie)"
    print(f"richer: {richer}")
    print(f"gates: {len(circuit.gates)} ({result.and_gates} garbled tables)")
    print(f"bytes exchanged: {result.total_bytes}")
    print(
        f"streamed: {result.streamed_levels} AND levels, "
        f"first level after {result.first_level_s * 1e3:.1f} ms"
        if result.first_level_s is not None
        else f"streamed: {result.streamed_levels} AND levels"
    )
    print(f"transcript sha256: {result.transcript_digest}")
    if result.fault_events:
        print(f"faults injected: {len(result.fault_events)}")
    if result.recovery_events:
        print(f"recoveries: {len(result.recovery_events)}")
        for event in result.recovery_events[:8]:
            print(f"  [{event.layer}] {event.kind}: {event.detail}")
        if len(result.recovery_events) > 8:
            print(f"  ... and {len(result.recovery_events) - 8} more")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .baselines.prior_work import millionaires_circuit
    from .circuits.stdlib.integer import encode_int
    from .faults import ServiceSaturated
    from .gc.protocol import TwoPartySession
    from .serve import SessionMultiplexer, SessionSpec, Supervisor

    circuit = millionaires_circuit("millionaires", args.width)

    if args.transport == "process":
        service = Supervisor(
            max_concurrent=args.concurrency,
            max_pending=args.pending,
            deadline_s=args.deadline_s or None,
            retries=args.retries,
            drain_timeout_s=args.drain_timeout_s,
        )

        def submit(index, garbler_bits, evaluator_bits, faults):
            return service.submit(SessionSpec(
                circuit,
                garbler_bits,
                evaluator_bits,
                seed=args.seed + index,
                faults=faults,
                session_id=f"s{index}",
            ))
    else:
        service = SessionMultiplexer(
            max_concurrent=args.concurrency,
            max_pending=args.pending,
        )

        def submit(index, garbler_bits, evaluator_bits, faults):
            return service.submit(
                TwoPartySession(circuit, seed=args.seed + index, faults=faults),
                garbler_bits,
                evaluator_bits,
                session_id=f"s{index}",
            )

    top = (1 << args.width) - 1
    handles = []
    expected = []
    for index in range(args.sessions):
        # Distinct, deterministic wealth per session; expected result
        # is checked in plaintext after the run.
        wealth_a = (args.seed * 7919 + index * 104729) % top
        wealth_b = (args.seed * 6271 + index * 75989) % top
        try:
            handle = submit(
                index,
                encode_int(wealth_a, args.width),
                encode_int(wealth_b, args.width),
                args.faults if index == args.fault_session else None,
            )
        except ServiceSaturated as exc:
            print(f"s{index} rejected: {exc}")
            continue
        except ValueError as exc:  # a bad --faults spec, before anything ran
            print(f"s{index} rejected: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        handles.append(handle)
        expected.append(1 if wealth_b < wealth_a else 0)
    # SIGTERM/SIGINT drain gracefully: admissions stop, in-flight
    # sessions finish inside the drain timeout, children are reaped.
    with service.signals_handled():
        stats = service.run_until_complete()

    mismatches = 0
    rows = []
    for handle, want in zip(handles, expected):
        session_stats = handle.stats
        if handle.result is not None:
            got = handle.result.output_bits[0]
            status = "ok" if got == want else "WRONG OUTPUT"
            mismatches += got != want
        else:
            status = session_stats.error or "failed"
        rows.append([
            session_stats.session_id,
            status,
            f"{session_stats.queue_wait_s * 1e3:.1f}",
            (
                f"{session_stats.first_level_s * 1e3:.1f}"
                if session_stats.first_level_s is not None
                else "-"
            ),
            f"{session_stats.run_s * 1e3:.1f}",
            session_stats.streamed_levels,
            session_stats.recovery_events,
            session_stats.attempts,
        ])
    print(render_table(
        ["Session", "Status", "Queue ms", "1st level ms", "Run ms",
         "Levels", "Recoveries", "Attempts"],
        rows,
        title=f"{len(handles)} sessions x {args.width}-bit millionaires "
        f"({args.concurrency} slots, "
        f"{args.transport} wire)",
    ))
    summary = stats.summary()
    print(
        f"completed {summary['completed']}/{summary['sessions']} "
        f"(faulted {summary['faulted']}, rejected {summary['rejected']}) "
        f"in {summary['wall_s'] * 1e3:.1f} ms: "
        f"{summary['sessions_per_s']:.1f} sessions/s, "
        f"first-level p50 "
        f"{(summary['first_level_p50_s'] or 0) * 1e3:.1f} ms / p95 "
        f"{(summary['first_level_p95_s'] or 0) * 1e3:.1f} ms"
    )
    if args.transport == "process":
        drain = summary.get("drain")
        print(
            f"supervision: {summary['retries']} retries, "
            f"{summary['worker_restarts']} worker restarts, "
            + (
                "drained "
                + ("cleanly" if drain.get("clean") else "by force")
                + f" ({drain.get('cancelled_pending', 0)} cancelled, "
                f"{drain.get('killed_in_flight', 0)} killed)"
                if drain
                else "no drain requested"
            )
        )
    if mismatches:
        print(f"{mismatches} sessions returned wrong outputs", file=sys.stderr)
        return 3
    if summary["faulted"]:
        # Any session sealed with an error -- even an injected one --
        # is a nonzero exit: callers scripting `repro serve` must not
        # mistake a faulted run for a healthy one.
        print(
            f"{summary['faulted']} sessions sealed with errors",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.dataprovider import DataProvider
    from .analysis.figures import emit_all

    unknown = [name for name in args.which if name not in EXPERIMENT_DRIVERS]
    if unknown:
        print(f"unknown figures: {unknown}", file=sys.stderr)
        return 2
    # One provider across the run: design points shared between tables
    # and figures compile/replay once, and --store serves repeat runs
    # from disk.
    provider = DataProvider(store=args.store)
    quick = not args.full
    if args.emit is None:
        for name in args.which or EXPERIMENT_DRIVERS:
            print(EXPERIMENT_DRIVERS[name](provider, quick).render())
            print()
    else:
        # No names ([]) means "emit everything", not "nothing".
        written = emit_all(
            Path(args.emit), provider, quick, only=args.which or None,
        )
        for path in written:
            print(f"wrote {path}")
    # The live-work counters go to stderr, so stdout stays the tables:
    # a warm store reads "compiles 0" and "replays 0".
    counters = ", ".join(f"{key} {value}" for key, value in provider.stats().items())
    print(f"provider: {counters}", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .core.progcache import ProgramCache
    from .store import ResultStore

    def open_store(cls):
        if args.dir is not None:
            return cls(args.dir)
        return cls.resolve(None) or cls(cls.default_dir())

    results = open_store(ResultStore)
    if args.action == "merge":
        if args.path is None:
            print(
                "merge needs a source: a store directory or a bundle file",
                file=sys.stderr,
            )
            return 2
        try:
            report = results.merge(args.path)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"merged {args.path} into {results.root}: "
            f"{report.added} added, {report.identical} identical, "
            f"{report.conflicts} conflicts, "
            f"{report.corrupt} corrupt skipped"
        )
        return 0
    if args.action == "bundle":
        if args.path is None:
            print("bundle needs an output file path", file=sys.stderr)
            return 2
        count = results.save_bundle(args.path)
        print(f"bundled {count} entries from {results.root} into {args.path}")
        return 0
    stores = (open_store(ProgramCache), results)
    if args.action == "clear":
        for store in stores:
            print(f"removed {store.clear()} stored {store.kind} from {store.root}")
        return 0
    if args.action == "prune":
        for store in stores:
            removed = store.prune()
            freed_kb = (removed.stale_bytes + removed.corrupt_bytes) / 1024
            print(
                f"{store.kind}: pruned {removed.stale} stale-schema and "
                f"{removed.corrupt} corrupt entries from {store.root} "
                f"({freed_kb:.1f} KB freed)"
            )
        return 0
    censuses = [store.scan() for store in stores]
    rows = [
        ["directory", *(str(store.root) for store in stores)],
        ["schema", *(f"v{store.schema}" for store in stores)],
        ["live entries", *(census.live for census in censuses)],
        ["live size (KB)", *(f"{c.live_bytes / 1024:.1f}" for c in censuses)],
        ["stale-schema entries", *(census.stale for census in censuses)],
        ["stale size (KB)", *(f"{c.stale_bytes / 1024:.1f}" for c in censuses)],
        ["corrupt entries", *(census.corrupt for census in censuses)],
    ]
    print(render_table(
        ["Property", *(store.kind for store in stores)], rows,
        title="content-addressed stores",
    ))
    if any(census.stale or census.corrupt for census in censuses):
        print("run `repro store prune` to delete stale/corrupt entries")
    return 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "protocol": _cmd_protocol,
    "serve": _cmd_serve,
    "figures": _cmd_figures,
    "store": _cmd_store,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
