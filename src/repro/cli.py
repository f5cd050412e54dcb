"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``experiments`` -- regenerate any of the paper's tables/figures;
* ``workloads``   -- list the VIP-Bench workloads or show one circuit;
* ``compile``     -- run the compiler on a workload and report each
  configuration's schedule/traffic;
* ``simulate``    -- timing-simulate a workload on a chosen design point;
* ``protocol``    -- run the real two-party millionaires' demo;
* ``serve``       -- multiplex N concurrent streamed sessions on one
  scheduler and report per-session service metrics;
* ``figures``     -- ASCII renderings of the evaluation figures, or the
  committed CSV + Vega-Lite artifacts with ``--emit DIR``;
* ``store``       -- inspect, prune or clear the content-addressed stores
  (compiled programs and experiment results); merge or bundle results.

Performance is measured by ``python3 perf/run.py`` (see
``perf/README.md``), not by a subcommand here; the paper's claims are
asserted over the experiment rows in ``tests/analysis/test_paper_claims.py``.

``compile`` and ``simulate`` accept ``--cache [DIR]`` to reuse compiled
programs across invocations (warm sweeps skip the compiler); the
``REPRO_PROG_CACHE`` environment variable does the same globally.
``experiments``/``figures`` accept ``--store [DIR]`` (or
``REPRO_RESULT_STORE``) to serve previously-computed grid points from
the content-addressed result store instead of recompiling/replaying.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import experiments as exp
from .analysis.report import render_table
from .core.compiler import OptLevel, compile_circuit
from .sim.config import HaacConfig, Role
from .sim.dram import DDR4, HBM2
from .sim.timing import simulate
from .workloads import PAPER_ORDER, get_workload

__all__ = ["main", "build_parser"]

_EXPERIMENTS: Dict[str, Callable[..., exp.ExperimentResult]] = {
    "table1": exp.table1_ppc_comparison,
    "table2": exp.table2_characteristics,
    "table3": exp.table3_wire_traffic,
    "table4": exp.table4_area_power,
    "table5": exp.table5_prior_work,
    "fig6": exp.fig6_compiler_opts,
    "fig7": exp.fig7_ordering_sww,
    "fig8": exp.fig8_ge_scaling,
    "fig9": exp.fig9_energy,
    "fig10": exp.fig10_plaintext,
}

_QUICK_CAPABLE = {"table2", "table3", "table5", "fig6", "fig8", "fig9", "fig10"}


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

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument(
        "which",
        nargs="*",
        default=["all"],
        help=f"experiment ids ({', '.join(_EXPERIMENTS)}) or 'all'",
    )
    p_exp.add_argument(
        "--quick", action="store_true", help="3-workload subset where supported"
    )
    p_exp.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="content-addressed result store: flag alone for the default "
        "directory, or DIR; cached design points are served without "
        "recompiling/replaying (default: $REPRO_RESULT_STORE)",
    )

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
    p_s.add_argument(
        "--engine",
        choices=["numpy", "reference"],
        default=None,
        help="timing-replay engine (default: $REPRO_SIM_ENGINE, else "
        "the numpy engine)",
    )
    add_cache_flag(p_s)

    p_se = sub.add_parser(
        "search",
        help="search the compiler's schedule space (reorder / segment / "
        "tie-break neighborhood over the shared dependence graph)",
    )
    p_se.add_argument(
        "what",
        choices=["schedule"],
        help="search target (currently: schedule)",
    )
    p_se.add_argument("--workload", required=True, choices=PAPER_ORDER)
    p_se.add_argument("--ges", type=_positive_int, default=4)
    p_se.add_argument("--sww-kb", type=_positive_int, default=16)
    p_se.add_argument("--dram", choices=["ddr4", "hbm2"], default="hbm2")
    p_se.add_argument(
        "--role", choices=["evaluator", "garbler"], default="evaluator"
    )
    p_se.add_argument(
        "--opt",
        choices=[opt.value for opt in OptLevel if opt is not OptLevel.BASELINE],
        default=OptLevel.RO_RN_ESW.value,
        help="greedy starting point (generation 0)",
    )
    p_se.add_argument(
        "--generations",
        type=int,
        default=4,
        help="max hill-climbing generations past the greedy start",
    )
    add_cache_flag(p_se)

    p_p = sub.add_parser("protocol", help="run the two-party millionaires demo")
    p_p.add_argument("--alice", type=int, default=4_200_000)
    p_p.add_argument("--bob", type=int, default=3_700_000)
    p_p.add_argument("--width", type=int, default=32)
    p_p.add_argument(
        "--backend",
        default=None,
        help="gc label-hash backend (scalar, numpy, auto); "
        "default: per-gate reference path",
    )
    p_p.add_argument(
        "--stream",
        action="store_true",
        help="level-streamed session over the framed transport "
        "(tables ship per AND level; transcript-digest verified)",
    )
    p_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos run, e.g. 'drop:0.05,seed=7' "
        "(kinds: drop corrupt truncate tamper duplicate delay reorder "
        "tear_cache; implies --stream; default: $REPRO_FAULTS)",
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
        "--window",
        type=int,
        default=1,
        metavar="L",
        help="max garbled-but-unevaluated AND levels in flight per "
        "session (per-session backpressure)",
    )
    p_srv.add_argument(
        "--transport",
        choices=["memory", "socket", "process"],
        default="memory",
        help="session substrate: in-memory LossyWire, a kernel "
        "socketpair in-process, or one OS process per party under the "
        "supervisor (process-transport faults use the kill_party / "
        "sever / stall chaos kinds; frame faults need memory)",
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
    p_srv.add_argument("--backend", default=None, help="gc label-hash backend")
    p_srv.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault spec injected into the --fault-session session only",
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
        help="ASCII renderings of the evaluation figures, or --emit DIR "
        "for version-controlled Vega-Lite JSON + CSV of every artifact",
    )
    # No argparse choices= here: a positional with nargs="*" plus
    # choices rejects the empty (default) invocation; validated in
    # _cmd_figures instead.
    p_f.add_argument(
        "which",
        nargs="*",
        default=None,
        help=f"artifacts to render ({', '.join(_EXPERIMENTS)}; ASCII "
        "default: fig6 fig10, fig6/fig8/fig9/fig10 only; --emit "
        "default: all)",
    )
    p_f.add_argument("--full", action="store_true", help="all 8 workloads")
    p_f.add_argument(
        "--emit",
        default=None,
        metavar="DIR",
        help="write <name>.csv for every table/figure and <name>.vl.json "
        "for the figures into DIR instead of drawing ASCII charts",
    )
    p_f.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="content-addressed result store backing the DataProvider "
        "(default: $REPRO_RESULT_STORE)",
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
    p_st.add_argument(
        "--policy",
        choices=["keep", "theirs"],
        default="keep",
        help="merge conflict policy: keep local entries (default) or "
        "adopt the source's",
    )
    return parser


#: Drivers that read design points through a DataProvider (everything
#: except the static table1 and the analytic table4).
_PROVIDER_CAPABLE = set(_EXPERIMENTS) - {"table1", "table4"}


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.dataprovider import DataProvider

    which: List[str] = args.which
    if which == ["all"]:
        which = list(_EXPERIMENTS)
    unknown = [name for name in which if name not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    # One provider across the run: design points shared between tables
    # and figures compile/replay once, and --store serves repeat runs
    # from disk.
    provider = DataProvider(store=args.store)
    for name in which:
        fn = _EXPERIMENTS[name]
        kwargs = {}
        if name in _PROVIDER_CAPABLE:
            kwargs["provider"] = provider
        if args.quick and name in _QUICK_CAPABLE:
            kwargs["quick"] = True
        result = fn(**kwargs)
        print(result.render())
        print()
    return 0


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
        sim_engine=getattr(args, "engine", None),
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


def _cmd_search(args: argparse.Namespace) -> int:
    from .analysis.schedule_search import search_schedule

    built = get_workload(args.workload).build_scaled()
    config = HaacConfig(
        n_ges=args.ges,
        sww_bytes=args.sww_kb * 1024,
        dram=HBM2 if args.dram == "hbm2" else DDR4,
        role=Role.GARBLER if args.role == "garbler" else Role.EVALUATOR,
    )
    result = search_schedule(
        built.circuit,
        config,
        start_opt=OptLevel(args.opt),
        generations=args.generations,
        cache=args.cache,
        workload=args.workload,
    )
    capacity = config.window.capacity
    greedy_runtime = result.greedy.runtime_cycles
    rows = []
    for rank, entry in enumerate(result.ranked, start=1):
        marker = " (greedy)" if entry is result.greedy else ""
        rows.append([
            rank,
            entry.candidate.label(capacity) + marker,
            entry.generation,
            f"{entry.compute_cycles:,}",
            f"{entry.traffic_cycles:,.0f}",
            f"{entry.runtime_cycles:,.0f}",
            f"{entry.speedup_vs(greedy_runtime):.3f}x",
        ])
    print(render_table(
        ["Rank", "Schedule", "Gen", "Compute", "Traffic", "Runtime",
         "vs greedy"],
        rows,
        title=f"schedule search: {args.workload} on {config.n_ges} GEs / "
        f"{args.sww_kb} KB / {config.dram.name} ({result.evaluated} "
        f"schedules, {result.generations_run} generations)",
    ))
    best = result.best
    if result.best_beats_greedy:
        gain = (1.0 - best.runtime_cycles / greedy_runtime) * 100.0
        print(
            f"best schedule [{best.candidate.label(capacity)}] beats greedy "
            f"by {gain:.2f}% simulated runtime"
        )
    else:
        print("greedy remains the best schedule in the explored neighborhood")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    from .circuits.builder import CircuitBuilder
    from .circuits.stdlib.integer import encode_int, less_than
    from .faults import ProtocolFault
    from .gc.protocol import run_two_party

    builder = CircuitBuilder()
    alice = builder.add_garbler_inputs(args.width)
    bob = builder.add_evaluator_inputs(args.width)
    builder.mark_outputs([less_than(builder, bob, alice)])
    circuit = builder.build("millionaires")
    faults_spec = getattr(args, "faults", None)
    streamed = bool(getattr(args, "stream", False) or faults_spec)
    try:
        result = run_two_party(
            circuit,
            encode_int(args.alice, args.width),
            encode_int(args.bob, args.width),
            seed=2023,
            backend=args.backend,
            faults=faults_spec,
            streamed=streamed,
        )
    except ProtocolFault as exc:
        print(f"session failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    richer = "Alice" if result.output_bits[0] else "Bob (or tie)"
    print(f"richer: {richer}")
    print(f"gates: {len(circuit.gates)} ({result.and_gates} garbled tables)")
    print(f"bytes exchanged: {result.total_bytes}")
    if result.streamed:
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
    from .circuits.builder import CircuitBuilder
    from .circuits.stdlib.integer import encode_int, less_than
    from .faults import ProtocolFault, ServiceSaturated
    from .gc.protocol import TwoPartySession
    from .serve import (
        SessionMultiplexer,
        SessionSpec,
        Supervisor,
        make_socket_framed_pair,
    )

    builder = CircuitBuilder()
    alice = builder.add_garbler_inputs(args.width)
    bob = builder.add_evaluator_inputs(args.width)
    builder.mark_outputs([less_than(builder, bob, alice)])
    circuit = builder.build("millionaires")
    backend = args.backend

    top = (1 << args.width) - 1
    handles = []
    expected = []

    if args.transport == "process":
        supervisor = Supervisor(
            max_concurrent=args.concurrency,
            max_pending=args.pending,
            deadline_s=args.deadline_s or None,
            retries=args.retries,
            drain_timeout_s=args.drain_timeout_s,
        )
        for index in range(args.sessions):
            wealth_a = (args.seed * 7919 + index * 104729) % top
            wealth_b = (args.seed * 6271 + index * 75989) % top
            spec = args.faults if index == args.fault_session else None
            try:
                handle = supervisor.submit(SessionSpec(
                    circuit,
                    encode_int(wealth_a, args.width),
                    encode_int(wealth_b, args.width),
                    seed=args.seed + index,
                    backend=backend,
                    faults=spec,
                    session_id=f"s{index}",
                ))
            except ServiceSaturated as exc:
                print(f"s{index} rejected: {exc}")
                continue
            handles.append(handle)
            expected.append(1 if wealth_b < wealth_a else 0)
        # SIGTERM/SIGINT drain gracefully: admissions stop, in-flight
        # sessions finish inside --drain-timeout-s, children are reaped.
        with supervisor.signals_handled():
            stats = supervisor.run_until_complete()
    else:
        mux = SessionMultiplexer(
            max_concurrent=args.concurrency,
            max_pending=args.pending,
            max_inflight_levels=args.window,
        )
        for index in range(args.sessions):
            # Distinct, deterministic wealth per session; expected result
            # is checked in plaintext after the run.
            wealth_a = (args.seed * 7919 + index * 104729) % top
            wealth_b = (args.seed * 6271 + index * 75989) % top
            spec = args.faults if index == args.fault_session else None
            session = TwoPartySession(
                circuit, seed=args.seed + index, backend=backend, faults=spec
            )
            pair = None
            if args.transport == "socket" and spec is None:
                pair = make_socket_framed_pair()
            try:
                handle = mux.submit(
                    session,
                    encode_int(wealth_a, args.width),
                    encode_int(wealth_b, args.width),
                    session_id=f"s{index}",
                    pair=pair,
                )
            except ServiceSaturated as exc:
                print(f"s{index} rejected: {exc}")
                continue
            handles.append(handle)
            expected.append(1 if wealth_b < wealth_a else 0)
        stats = mux.run_until_complete()

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
        f"({args.concurrency} slots, window {args.window}, "
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
    from .analysis import charts
    from .analysis.dataprovider import DataProvider

    quick = not args.full
    unknown = [name for name in args.which or [] if name not in _EXPERIMENTS]
    if unknown:
        print(f"unknown figures: {unknown}", file=sys.stderr)
        return 2
    provider = DataProvider(store=args.store)
    if args.emit is not None:
        from pathlib import Path

        from .analysis import figures as figures_mod

        # argparse yields [] (not the default) for an absent nargs="*"
        # positional; [] must mean "emit everything", not "nothing".
        written = figures_mod.emit_all(
            Path(args.emit),
            provider=provider,
            quick=quick,
            only=args.which or None,
        )
        for path in written:
            print(f"wrote {path}")
        return 0
    selected = args.which if args.which else ["fig6", "fig10"]
    ascii_capable = {"fig6", "fig8", "fig9", "fig10"}
    unsupported = [name for name in selected if name not in ascii_capable]
    if unsupported:
        print(
            f"no ASCII rendering for {unsupported}; use --emit DIR "
            "(or `repro experiments`) for tables",
            file=sys.stderr,
        )
        return 2
    for which in selected:
        if which == "fig6":
            result = exp.fig6_compiler_opts(quick=quick, provider=provider)
            groups = [
                (row[0], [("Baseline", row[1]), ("RO+RN", row[2]),
                          ("RO+RN+ESW", row[3])])
                for row in result.rows
            ]
            print(charts.grouped_bar_chart(
                groups, title="Figure 6: speedup over CPU (log scale)"
            ))
        elif which == "fig8":
            result = exp.fig8_ge_scaling(
                quick=quick, ge_counts=(1, 4, 16), provider=provider
            )
            groups = []
            for name, by_dram in result.extras["scaling"].items():
                series = []
                for dram, speedups in by_dram.items():
                    for count, speedup in zip((1, 4, 16), speedups):
                        series.append((f"{dram} {count}GE", speedup))
                groups.append((name, series))
            print(charts.grouped_bar_chart(
                groups, title="Figure 8: GE scaling (log scale)"
            ))
        elif which == "fig9":
            result = exp.fig9_energy(quick=quick, provider=provider)
            rows = [
                (row[0], {
                    "Half-Gate": row[1] / 100, "Crossbar": row[2] / 100,
                    "SRAM": row[3] / 100, "Others": row[4] / 100,
                    "HBM2 PHY": row[5] / 100,
                })
                for row in result.rows
            ]
            legend = [("Half-Gate", "H"), ("Crossbar", "X"), ("SRAM", "S"),
                      ("Others", "o"), ("HBM2 PHY", "P")]
            print(charts.stacked_shares(
                rows, title="Figure 9: energy breakdown", legend=legend
            ))
        elif which == "fig10":
            result = exp.fig10_plaintext(quick=quick, provider=provider)
            groups = [
                (row[0], [("CPU GC", row[1]), ("HAAC DDR4", row[2]),
                          ("HAAC HBM2", row[3])])
                for row in result.rows
            ]
            print(charts.grouped_bar_chart(
                groups,
                title="Figure 10: slowdown vs plaintext (log scale)",
            ))
        print()
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
            report = results.merge(args.path, policy=args.policy)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"merged {args.path} into {results.root}: "
            f"{report.added} added, {report.identical} identical, "
            f"{report.conflicts} conflicts ({report.replaced} replaced), "
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
    "experiments": _cmd_experiments,
    "workloads": _cmd_workloads,
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "search": _cmd_search,
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
