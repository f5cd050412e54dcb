#!/usr/bin/env python3
"""Run the repository benchmark and print every metric by name and unit.

Two ways in, one measurement underneath:

``python perf/run.py [--seed N] [--traced] [--workload NAME]``
    Run every workload (or one), print the end-to-end table -- and with
    ``--traced`` the layer table -- and write
    ``perf/results/<sha>-<seed>[-traced].json`` for ``perf/compare.py``.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    The form ``BENCHMARK.json`` publishes: one workload, one pass, and as
    the last line of standard output one JSON object with ``correct``,
    ``attempted``, ``failed`` and the metrics of that pass.

Every workload runs in fresh child processes of this script (``--child``),
with the ``REPRO_*`` switches scrubbed from their environment.  The parent
never imports ``repro``: imports are part of what ``setup_s`` measures.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import contract  # noqa: E402
from perf.contract import HERE, ROOT  # noqa: E402
from perf.ledger import Tracer, host_probe, median, summary  # noqa: E402

SRC = ROOT / "src"
RESULTS = HERE / "results"
SCRATCH = HERE / ".tmp"
RESULT_SCHEMA = "repro.perf/v1"


# ----------------------------------------------------------------------
# Child: one workload measured in this process
# ----------------------------------------------------------------------


def _run_op(workload, index: int, tracer: Optional[Tracer]) -> dict:
    """Run and check one op.  A failing op is counted, never raised."""
    from perf.workloads import OpFailed

    sample = {"index": index, "ok": False, "wall_s": None}
    try:
        inputs = workload.inputs(index)
        gc.collect()
        if tracer is None:
            op = workload.run_op(inputs)
        else:
            tracer.begin_op(index)
            op = workload.run_traced_op(inputs, tracer)
        sample["wall_s"] = op.wall_s
        sample["first_level_s"] = op.first_level_s
        sample["op"] = op
        sample["exact"] = workload.checked(index, inputs, op)
        sample["ok"] = True
    except OpFailed as failure:
        sample["error"] = str(failure)
    except Exception as error:  # the loop must keep counting
        traceback.print_exc(file=sys.stderr)
        sample["error"] = f"{type(error).__name__}: {error}"
    if "op" in sample:
        sample["op"].result = None  # free the op's output once checked
    sample["probe_s"] = _probe(workload, 2)
    return sample


def _probe(workload, reps: int) -> float:
    """How fast the host is now (untimed, between ops).  The test scale
    checks shapes, not speeds, and skips it."""
    if not workload.full:
        return contract.PROBE_NOMINAL_S
    return min(host_probe() for _ in range(reps))


def _op_loop(workload, seconds: float, min_ops: int,
             tracer: Optional[Tracer] = None, base_ops: int = 0):
    """Closed loop, one client: the next op starts when the previous one
    has returned and been checked.  Runs ``min_ops`` ops, then goes on
    while another op of the last one's length still fits in ``seconds``.

    Traced, each of the first ``base_ops`` ops is paired with the same op
    untraced: the base of ``trace_overhead_share`` and the ``run_streamed``
    digest the step-classified drive is held to.  Which of the pair runs
    first alternates, because the second tends to be the slower whatever
    it is.

    Returns ``(samples, base_samples)``."""
    samples: List[dict] = []
    base: List[dict] = []
    started = time.perf_counter()
    last_wall = 0.0
    while len(samples) < min_ops or (
        time.perf_counter() - started + last_wall <= seconds
    ):
        index = len(samples) + 1  # index 0 is the warm-up op
        paired = len(base) < base_ops
        if paired and index % 2:
            base.append(_run_op(workload, index, None))
        samples.append(_run_op(workload, index, tracer))
        if paired and not index % 2:
            base.append(_run_op(workload, index, None))
        last_wall = samples[-1]["wall_s"] or last_wall
    return samples, base


def _public(samples: List[dict]) -> List[dict]:
    return [{k: v for k, v in sample.items() if k != "op"} for sample in samples]


def measure(name: str, seed: int, stream: int, seconds: float, min_ops: int,
            trace: bool, full: bool, scratch: Path, t0: float) -> dict:
    """Set one workload up in this process, run its op loop and return the
    report the parent aggregates.  ``t0`` is when the process was started,
    on the ``time.time`` clock."""
    from perf import workloads

    workload = workloads.make(name, seed, stream, full, scratch)
    workload.setup()
    report: Dict[str, object] = {"setup_s": time.time() - t0}
    probe_s = _probe(workload, 3)
    if trace:
        tracer = Tracer()
        samples, base = _op_loop(
            workload, seconds, min_ops, tracer,
            contract.TRACE_BASE_OPS if full else 1,
        )
        traced = [(s["index"], s["op"]) for s in samples if s["ok"]]
        report["base"] = _public(base)
        if traced and any(s["ok"] for s in base):
            layers = workload.layers(tracer, traced)
            layers["trace_overhead_share"] = _overhead(base, samples)
            report["layers"] = layers
            report["spans"] = {
                str(op_id): spans for op_id, spans in tracer.per_op().items()
            }
    else:
        samples, base = _op_loop(workload, seconds, min_ops)
    # The process's fastest reading: a burst that hit only a probe cannot
    # make the ops look faster, a slow spell that covered the whole
    # process does scale it back.
    report["probe_s"] = min([probe_s] + [s["probe_s"] for s in samples + base])
    report["samples"] = _public(samples)
    report["peak_rss_mb"] = workload.peak_rss_mb()
    report["max_concurrent"] = getattr(workload, "max_concurrent", None)
    import numpy

    report["numpy"] = numpy.__version__
    return report


def _overhead(base: List[dict], traced: List[dict]) -> float:
    """(traced - untraced) / untraced, on the fastest op of each side:
    interference only ever adds time, so the floors are what compare."""
    untraced = min(s["wall_s"] for s in base if s["ok"])
    return (min(s["wall_s"] for s in traced if s["ok"]) - untraced) / untraced


# ----------------------------------------------------------------------
# Parent: spawn children, aggregate, print
# ----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in contract.SCRUBBED_ENV}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([inherited] if inherited else [])
    )
    # One hash seed for every child, so set iteration order -- and with
    # it any count that depends on it -- cannot differ between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload: str, seed: int, stream: int, seconds: float, min_ops: int,
           trace: bool, scale: str) -> dict:
    """Run one child to completion and return its report."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--stream", str(stream),
        "--seconds", repr(seconds), "--min-ops", str(min_ops),
        "--trace", "1" if trace else "0", "--scale", scale,
        "--scratch", scratch, "--t0", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=contract.CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still has its scratch directory here
    if done.returncode != 0:
        raise SystemExit(f"{workload}: measured process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _split_min_ops(total: int, parts: int) -> List[int]:
    return [total // parts + (1 if i < total % parts else 0) for i in range(parts)]


def run_pass(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One pass over one workload, each set-up in a fresh process."""
    full = scale == "full"
    if trace:
        floors = [contract.MIN_OPS if full else 2]
    else:
        setups = contract.SETUPS_PER_RUN if full else 1
        floors = _split_min_ops(contract.MIN_OPS if full else 2, setups)
    reports = [
        _spawn(workload, seed, stream, seconds / len(floors), floor, trace, scale)
        for stream, floor in enumerate(floors)
    ]
    return aggregate(workload, reports, trace, full)


def aggregate(workload: str, reports: List[dict], trace: bool, full: bool) -> dict:
    """Fold the processes' reports into the pass's end-to-end metrics and,
    traced, its layer metrics, with ``attempted``/``failed``/``correct``."""
    samples = [s for report in reports for s in report["samples"]]
    timed = [s for s in samples if s["wall_s"] is not None]
    if not timed:
        raise SystemExit(f"{workload}: no op ran to completion")
    # The untraced halves of a traced run's pairs can fail too.
    attempted = samples + [s for report in reports for s in report.get("base", [])]
    failed = sum(1 for s in attempted if not s["ok"])
    notes = sorted({s["error"] for s in attempted if not s["ok"]})

    # Every time is scaled to the nominal host speed by its own process's
    # probe; the wall as measured is kept beside it as ``raw``.
    scale = {id(r): contract.PROBE_NOMINAL_S / r["probe_s"] for r in reports}
    scaled = {
        id(s): scale[id(report)] for report in reports for s in report["samples"]
    }

    def timing(pairs, pick=median):
        """``pairs`` are (wall, scale); the entry's value is the pick of
        the scaled walls, ``raw`` the same pick of the walls as measured."""
        values = [wall * factor for wall, factor in pairs]
        chosen = pick(values)
        return dict(summary(values), value=float(chosen), unit="s",
                    raw=float(pick([wall for wall, _ in pairs])))

    end_to_end = {
        "setup_s": timing([(r["setup_s"], scale[id(r)]) for r in reports]),
        "op_min_s": timing([(s["wall_s"], scaled[id(s)]) for s in timed], min),
        "first_level_min_s": timing(
            [(s["first_level_s"], scaled[id(s)]) for s in timed], min
        ),
        # The largest process is the peak; smaller ones are no spread of it.
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports),
                        "unit": "MB", "n": len(reports)},
        "failed_share": {"value": failed / len(attempted), "unit": "ratio",
                         "n": len(attempted)},
    }
    exact = [s["exact"] for s in attempted if s["ok"]]
    correct = failed == 0
    if exact:
        for name, value in exact[0].items():
            values = [e[name] for e in exact]
            end_to_end[name] = dict(
                summary(values), value=median(values),
                unit=contract.END_TO_END[name].unit,
            )
            if any(e[name] != value for e in exact):
                correct = False
                notes.append(f"{name} differs between ops or processes")
    result = {
        "correct": correct,
        "attempted": len(attempted),
        "failed": failed,
        "setups": len(reports),
        "end_to_end": {
            name: end_to_end[name]
            for name in contract.END_TO_END
            if name in end_to_end
        },
        "notes": notes,
        "probe_s": min(r["probe_s"] for r in reports),
        "numpy": reports[0]["numpy"],
        "max_concurrent": reports[0]["max_concurrent"],
    }
    if trace:
        report = reports[0]
        layers = report.get("layers")
        if layers is None:
            raise SystemExit(f"{workload}: no traced op succeeded")
        for name, value in layers.items():
            if full and name.endswith("unattributed_share") and (
                abs(value) > contract.UNATTRIBUTED_LIMIT
            ):
                result["correct"] = False
                notes.append(
                    f"{name} = {value:.3f} exceeds {contract.UNATTRIBUTED_LIMIT}"
                )
        # The medians the floors above stand in for, from the traced ops.
        layers["op_p50_s"] = end_to_end["op_min_s"]["p50"]
        layers["first_level_p50_s"] = end_to_end["first_level_min_s"]["p50"]
        result["per_layer"] = layers
        result["traced_ops"] = len(samples)
        result["spans"] = report["spans"]
    return result


def published(result: dict, spec: dict, trace: bool) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` lists for this pass.  A layer that
    did no work on this workload reads 0."""
    metrics: Dict[str, dict] = {}
    if not trace:
        for item in spec["end_to_end"]:
            measured = result["end_to_end"][item["name"]]
            metrics[item["name"]] = {"value": measured["value"], "unit": item["unit"]}
        return metrics
    for item in spec["per_layer"]:
        name = item["name"]
        if name in result["per_layer"]:
            value = result["per_layer"][name]
        elif name in result["end_to_end"]:
            value = result["end_to_end"][name]["value"]
        else:
            value = 0
        metrics[name] = {"value": value, "unit": item["unit"]}
    return metrics


def render(workload: str, result: dict, spec: dict) -> str:
    lines = [
        f"== {workload}: {result['end_to_end']['op_min_s']['n']} ops, "
        f"{result['setups']} set-up(s), "
        f"{'traced' if 'per_layer' in result else 'untraced'}, "
        f"host probe {1e3 * result['probe_s']:.1f} ms =="
    ]
    for name, m in result["end_to_end"].items():
        beside = f"  (n={m['n']}"
        if "min" in m:
            beside += f" min={m['min']:.6g} p50={m['p50']:.6g} max={m['max']:.6g}"
        if "raw" in m:
            beside += f" raw={m['raw']:.6g}"
        beside += ")"
        lines.append(f"  {name:<22}{m['value']:>16.6g} {m['unit']:<7}{beside}")
    if "per_layer" in result:
        op_wall = result["per_layer"]["op_p50_s"]
        lines.append(f"  -- layers (share of the traced op_p50_s, {op_wall:.4g} s) --")
        for item in spec["per_layer"]:
            name, unit = item["name"], item["unit"]
            if name not in result["per_layer"]:
                continue
            value = result["per_layer"][name]
            share = f"{100 * value / op_wall:6.1f}%" if unit == "s" else ""
            lines.append(f"  {name:<42}{value:>16.6g} {unit:<8}{share}")
    for note in result["notes"]:
        lines.append(f"  ! {note}")
    return "\n".join(lines)


def host_fingerprint(numpy_version: str) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "nogit"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="with --workload: "
                        "run that one pass and end with the result JSON line")
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced pass, repeat each workload traced")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke is the tiny scale of perf/tests, never a result")
    for name, kind in (("--child", None), ("--stream", int), ("--min-ops", int),
                       ("--scratch", str), ("--t0", float)):
        if kind is None:
            parser.add_argument(name, action="store_true", help=argparse.SUPPRESS)
        else:
            parser.add_argument(name, type=kind, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(
            args.workload, args.seed, args.stream, args.seconds, args.min_ops,
            bool(args.trace), args.scale == "full", Path(args.scratch), args.t0,
        )))
        return 0

    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = contract.load()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    # Byte-compile first, so no child pays for it inside setup_s.
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_pass(args.workload, args.seed, seconds, bool(args.trace), args.scale)
        print(render(args.workload, result, spec))
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": published(result, spec, bool(args.trace)),
        }))
        return 0

    selected = [args.workload] if args.workload else names
    passes = [False, True] if args.traced else [False]
    results: Dict[str, dict] = {}
    for workload in selected:
        for trace in passes:
            result = run_pass(workload, args.seed, seconds, trace, args.scale)
            print(render(workload, result, spec), flush=True)
            if trace:
                # The traced pass adds the layers; the end-to-end numbers
                # stay those measured with tracing off.
                results[workload]["per_layer"] = result["per_layer"]
                results[workload]["spans"] = result["spans"]
                results[workload]["traced_ops"] = result["traced_ops"]
                results[workload]["traced_correct"] = result["correct"]
                results[workload]["notes"] += result["notes"]
            else:
                results[workload] = result
    first = results[selected[0]]
    document = {
        "schema": RESULT_SCHEMA,
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": seconds,
        "scale": args.scale,
        "traced": args.traced,
        "host": host_fingerprint(first["numpy"]),
        "scrubbed_env": list(contract.SCRUBBED_ENV),
        "setups_per_run": contract.SETUPS_PER_RUN,
        "op_counts": {name: r["attempted"] for name, r in results.items()},
        "max_concurrent": results.get("service_small", {}).get("max_concurrent"),
        "workloads": results,
    }
    RESULTS.mkdir(exist_ok=True)
    suffix = "-traced" if args.traced else ""
    out = RESULTS / f"{document['git_sha']}-{args.seed}{suffix}.json"
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    ok = all(r["correct"] and r.get("traced_correct", True) for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
