"""Command-line interface for the reproduction.

Mirrors the paper artifact's entry points (train a workload, replay an
injection, evaluate the technique) as subcommands::

    python -m repro train resnet --iterations 60
    python -m repro train resnet --backend batched --devices 2
    python -m repro inject resnet --site 1.conv1 --kind weight_grad \\
        --group 1 --iteration 20 --device 1
    python -m repro inject resnet --kind comm --bit 30 --iteration 20
    python -m repro campaign resnet --experiments 40
    python -m repro campaign resnet --experiments 400 --parallel 4 \\
        --store results.jsonl --resume --trace --detect
    python -m repro report results.jsonl [--json]
    python -m repro monitor results.jsonl --follow
    python -m repro monitor results.jsonl --once --slo slo_rules.json
    python -m repro monitor results.jsonl --serve 9100 --slo slo_rules.json
    python -m repro merge merged.jsonl shard0.jsonl shard1.jsonl
    python -m repro validate --experiments 400
    python -m repro mitigate resnet --iteration 20 --trace run.trace.jsonl
    python -m repro trace run.trace.jsonl --type fault_injected
    python -m repro trace results.trace.jsonl --analyze
    python -m repro replay results.trace.jsonl <experiment-key> --verify-trace
    python -m repro replay --corpus tests/data/replay_corpus.json
    python -m repro diff-campaign results_a.jsonl results_b.jsonl [--json]

Every command prints an artifact-style text report (see
:mod:`repro.core.analysis.report`) and exits non-zero on hard failures.
"""

from __future__ import annotations

import argparse
import sys

from repro.accelerator.ffs import FFDescriptor
from repro.backend import BACKEND_NAMES, backend_choices_help
from repro.core.analysis.classify import classify_outcome
from repro.core.analysis.report import (
    campaign_report_dict,
    inference_report_dict,
    render_campaign,
    render_convergence,
    render_inference,
    render_trace_analysis,
    stable_floats,
)
from repro.core.faults import (
    COMM,
    LINK_SITE,
    Campaign,
    FaultInjector,
    HardwareFault,
    OpSite,
    run_validation,
)
from repro.core.mitigation import (
    HardwareFailureDetector,
    MitigationHook,
    RecoveryManager,
)
from repro.distributed import SyncDataParallelTrainer
from repro.observe import EVENT_TYPES, Tracer, read_trace
from repro.workloads import build_workload, workload_names


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", choices=["tiny", "small"], default="tiny",
                        help="workload scale (default: tiny)")
    parser.add_argument("--devices", type=int, default=4,
                        help="simulated training devices (default: 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=list(BACKEND_NAMES),
                        default="inprocess",
                        help="execution backend (bit-identical results; "
                             "default: inprocess) — "
                             + backend_choices_help())


def _make_trainer(args, eval_device: int = 0,
                  stop_on_nonfinite: bool = True,
                  tracer: Tracer | None = None) -> SyncDataParallelTrainer:
    spec = build_workload(args.workload, size=args.size, seed=args.seed)
    return SyncDataParallelTrainer(
        spec, num_devices=args.devices, seed=args.seed,
        test_every=max(spec.iterations // 6, 1), eval_device=eval_device,
        stop_on_nonfinite=stop_on_nonfinite, tracer=tracer,
        backend=args.backend,
    )


def _make_tracer(args, command: str) -> Tracer | None:
    """A tracer for commands carrying ``--trace PATH`` (else ``None``)."""
    if not getattr(args, "trace", None):
        return None
    return Tracer(meta={"command": command, "workload": args.workload,
                        "size": args.size, "devices": args.devices,
                        "seed": args.seed})


def _export_trace(tracer: Tracer | None, args) -> None:
    if tracer is None:
        return
    count = tracer.export(args.trace)
    note = f" ({tracer.dropped} dropped by the ring)" if tracer.dropped else ""
    print(f"trace: {count} events -> {args.trace}{note}")


def _make_fault(args) -> HardwareFault:
    if args.bit is not None:
        ff = FFDescriptor("datapath", bit=args.bit)
    elif args.group is not None:
        ff = FFDescriptor("global_control", group=args.group, has_feedback=True)
    else:
        ff = FFDescriptor("local_control", has_feedback=True)
    if args.kind == COMM:
        # Link faults hit the one logical reduction link, not a layer.
        site = OpSite(LINK_SITE, COMM)
    else:
        site = OpSite(args.site, args.kind)
    return HardwareFault(ff=ff, site=site,
                         iteration=args.iteration, device=args.device,
                         seed=args.fault_seed)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def cmd_train(args) -> int:
    """``repro train``: fault-free training with a text report."""
    tracer = _make_tracer(args, "train")
    trainer = _make_trainer(args, tracer=tracer)
    try:
        trainer.train(args.iterations)
    finally:
        trainer.close()
    print(render_convergence(trainer.record, every=args.report_every,
                             title=f"{args.workload} fault-free"))
    _export_trace(tracer, args)
    return 0


def cmd_inject(args) -> int:
    """``repro inject``: one fault, classified against a clean run."""
    tracer = _make_tracer(args, "inject")
    trainer = _make_trainer(args, eval_device=args.device,
                            stop_on_nonfinite=False, tracer=tracer)
    reference = _make_trainer(args)
    reference.stop_on_nonfinite = True
    fault = _make_fault(args)
    injector = FaultInjector(fault)
    trainer.add_hook(injector)
    total = args.iterations
    try:
        trainer.train(total)
        reference.train(total)
    finally:
        trainer.close()
        reference.close()
    print(render_convergence(trainer.record, every=args.report_every,
                             title=f"{args.workload} + {fault.describe()}"))
    if injector.record is not None:
        print(f"\nfault effect: {injector.record.num_faulty} elements, "
              f"max |value| {injector.record.max_abs_faulty():.3e}")
    report = classify_outcome(trainer.record, reference.record, fault.iteration)
    print(f"outcome: {report.outcome.value} (unexpected: {report.is_unexpected})")
    _export_trace(tracer, args)
    return 0


def cmd_campaign(args) -> int:
    """``repro campaign``: statistical FI with aggregate statistics."""
    if args.resume and not args.store:
        print("--resume requires --store", file=sys.stderr)
        return 2
    if args.trace and not args.store:
        print("--trace requires --store (shards and the merged campaign "
              "trace live next to it)", file=sys.stderr)
        return 2
    if args.experiment_batch > 1 and args.backend != "batched":
        print("--experiment-batch requires --backend batched",
              file=sys.stderr)
        return 2

    spec = build_workload(args.workload, size=args.size, seed=args.seed)
    campaign = Campaign(spec, num_devices=args.devices, seed=args.seed,
                        test_every=max(spec.iterations // 6, 1),
                        detect=args.detect, backend=args.backend,
                        experiment_batch=args.experiment_batch)
    result = campaign.run(
        args.experiments, seed=args.campaign_seed, parallel=args.parallel,
        store=args.store, resume=args.resume, timeout=args.timeout,
        max_retries=args.retries, trace=args.trace)
    print(render_campaign(campaign_report_dict(result.payloads), args.workload))
    report = result.engine_report
    rate = report.executed / report.elapsed if report.elapsed else 0.0
    print(f"engine: {report.executed} executed, {report.skipped} resumed, "
          f"{len(report.quarantined)} quarantined, {report.retries} "
          f"retries in {report.elapsed:.1f}s ({rate:.2f} exp/s, "
          f"{args.parallel} worker{'s' if args.parallel != 1 else ''})")
    if args.store:
        print(f"result store: {args.store}")
    if report.trace_path is not None:
        print(f"campaign trace: {report.trace_path}")
    return 0


def cmd_report(args) -> int:
    """``repro report``: summarize a persistent result store."""
    import json

    from repro.engine import EXPERIMENT, QUARANTINE, read_records

    records = read_records(args.store)
    header = records[0]
    kind = header.get("kind", "campaign")
    experiments = [r for r in records[1:] if r["record"] == EXPERIMENT]
    quarantined = [r for r in records[1:] if r["record"] == QUARANTINE]
    meta = header.get("meta") or {}
    summarise = {"campaign": campaign_report_dict,
                 "inference": inference_report_dict}.get(kind)
    report = summarise([r["payload"] for r in experiments]) if summarise \
        else None
    if args.json:
        payload = {
            "store": str(args.store),
            "kind": kind,
            "schema": header.get("schema"),
            "meta": meta,
            "experiments": len(experiments),
            "quarantined": {r["key"]: r.get("error", "")
                            for r in quarantined},
        }
        if report is not None:
            payload["report"] = report
        print(json.dumps(stable_floats(payload), indent=2, sort_keys=True))
        return 0
    print(f"# store: {args.store}")
    print(f"kind {kind}, schema {header.get('schema')}, "
          f"{len(experiments)} experiments, {len(quarantined)} quarantined")
    if meta:
        print("meta: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    if kind == "campaign":
        print()
        print(render_campaign(report, meta.get("workload", "unknown")))
    elif kind == "inference":
        print(render_inference(report))
    if quarantined:
        print("quarantined experiments:")
        for record in quarantined:
            print(f"  {record['key']}: {record.get('error', '?')}")
    return 0


def cmd_merge(args) -> int:
    """``repro merge``: merge partial result stores into one."""
    from repro.engine import merge_stores

    with merge_stores(args.inputs, args.output) as merged:
        print(f"merged {len(args.inputs)} stores into {args.output}: "
              f"{len(merged.completed)} experiments, "
              f"{len(merged.quarantined)} quarantined")
    return 0


def cmd_validate(args) -> int:
    """``repro validate``: software fault models vs micro-RTL."""
    summary = run_validation(num_experiments=args.experiments, seed=args.seed)
    print(f"RTL validation: {summary.total} experiments, "
          f"{summary.masked} masked, {summary.matched} matched, "
          f"{summary.mismatched} mismatched "
          f"(match rate {summary.match_rate:.1%})")
    return 0 if summary.mismatched == 0 else 1


def cmd_mitigate(args) -> int:
    """``repro mitigate``: inject under detection + recovery."""
    tracer = _make_tracer(args, "mitigate")
    trainer = _make_trainer(args, eval_device=args.device,
                            stop_on_nonfinite=False, tracer=tracer)
    fault = _make_fault(args)
    detector = HardwareFailureDetector()
    trainer.add_hook(FaultInjector(fault))
    trainer.add_hook(MitigationHook(detector, RecoveryManager(strategy=args.strategy)))
    try:
        trainer.train(args.iterations)
    finally:
        trainer.close()
    print(render_convergence(trainer.record, every=args.report_every,
                             title=f"{args.workload} + fault + mitigation"))
    if detector.fired:
        print(f"\ndetected at iteration {detector.fired_at()} "
              f"(latency {detector.detection_latency(fault.iteration)}), "
              f"re-executed from {trainer.record.recoveries}")
    else:
        print("\nno detection event (the fault was masked or benign)")
    _export_trace(tracer, args)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: render/filter an exported trace file."""
    trace = read_trace(args.file)
    print(f"# trace: {trace.path}")
    if trace.meta:
        print("meta: " + ", ".join(f"{k}={v}" for k, v in trace.meta.items()))
    print(f"{len(trace)} events recovered ({trace.emitted} emitted, "
          f"{trace.dropped} dropped by the ring)")
    if trace.truncated:
        print("WARNING: final line truncated (writer killed mid-record); "
              "all complete events above were recovered", file=sys.stderr)
    if args.analyze:
        from repro.observe import analysis

        print()
        print(render_trace_analysis(analysis.campaign_summary(trace)))
        return 0
    if args.summary:
        print()
        for event_type, count in sorted(trace.type_counts().items(),
                                        key=lambda kv: -kv[1]):
            print(f"  {event_type:<24} {count:>6}")
        return 0
    events = trace.events
    if args.type:
        events = [e for e in events if e.type == args.type]
    if args.min_iteration is not None:
        events = [e for e in events
                  if e.iteration is not None and e.iteration >= args.min_iteration]
    if args.max_iteration is not None:
        events = [e for e in events
                  if e.iteration is not None and e.iteration <= args.max_iteration]
    shown = events if args.limit is None else events[-args.limit:]
    if len(shown) < len(events):
        print(f"... ({len(events) - len(shown)} earlier events elided; "
              f"raise --limit to see them)")
    print()
    for event in shown:
        print(event.render())
    return 0


def cmd_monitor(args) -> int:
    """``repro monitor``: one watch over a store + worker shards."""
    import json
    from pathlib import Path

    from repro.engine import (
        render_html,
        render_markdown,
        render_text,
        snapshot_dict,
    )
    from repro.observe.slo import load_rules
    from repro.serve import watch_store

    watching = args.follow or args.serve is not None

    def show(state, statuses):
        print(render_text(state, statuses),
              end="\n\n" if watching else "\n", flush=True)

    state, slo = watch_store(
        args.store, rules=load_rules(args.slo) if args.slo else None,
        port=args.serve, interval=args.interval,
        stall_after=args.stall_after, max_polls=None if watching else 1,
        on_start=lambda url: print(f"telemetry: serving on {url}",
                                   flush=True),
        on_poll=None if args.json else show)
    if args.json:
        print(json.dumps(snapshot_dict(state, slo.statuses), indent=2,
                         sort_keys=True))
    if args.html:
        Path(args.html).write_text(render_html(state, slo.statuses),
                                   encoding="utf-8")
        print(f"html dashboard -> {args.html}")
    if args.markdown:
        Path(args.markdown).write_text(render_markdown(state, slo.statuses),
                                       encoding="utf-8")
        print(f"markdown snapshot -> {args.markdown}")
    # The one exit gate: 1, and one line on stderr, iff a critical SLO
    # rule fired at any point of the watch.
    breached = slo.breached()
    if breached:
        print("slo: sustained breach of critical rule"
              f"{'s' if len(breached) > 1 else ''}: " + ", ".join(breached),
              file=sys.stderr)
    return 1 if breached else 0


def _print_replay_report(report) -> None:
    events = {True: "match", False: "DIVERGED", None: "n/a"}[report.events_match]
    arena = {True: "match", False: "DIVERGED", None: "n/a"}[report.arena_match]
    status = "ok" if report.ok else "FAIL"
    print(f"{status:<5} {report.key}  backend={report.backend}  "
          f"outcome={report.outcome_replayed}"
          f"{'' if report.outcome_match else ' (recorded ' + str(report.outcome_recorded) + ')'}"
          f"  arena={arena}  events={events}")
    for mismatch in report.mismatches:
        print(f"      {mismatch}")


def cmd_replay(args) -> int:
    """``repro replay``: re-run recorded experiments bit-for-bit."""
    from repro import replay as rp

    if args.bless and not args.corpus:
        print("--bless only applies to --corpus replays", file=sys.stderr)
        return 2
    if args.corpus:
        corpus = rp.load_corpus(args.corpus)
        reports = rp.run_corpus(corpus, backend=args.backend,
                                verify_trace=args.verify_trace,
                                bless=args.bless)
        for report in reports:
            _print_replay_report(report)
        failed = [r for r in reports if not r.ok]
        if args.bless:
            rp.save_corpus(corpus, args.corpus)
            print(f"blessed {len(reports)} entries -> {args.corpus}"
                  + (f" ({len(failed)} pins changed)" if failed else
                     " (no pins changed)"))
            return 0
        print(f"replayed {len(reports)} corpus entries: "
              f"{len(reports) - len(failed)} ok, {len(failed)} failed")
        return 1 if failed else 0

    if not args.trace:
        print("error: a trace file (with an experiment key) or --corpus "
              "is required", file=sys.stderr)
        return 2
    if not args.key:
        keys = rp.replay_keys(args.trace)
        print(f"# {args.trace}: {len(keys)} replayable experiments")
        for key in keys:
            print(f"  {key}")
        print("re-run with one of these keys to replay it")
        return 0
    record = rp.replay_record(args.trace, args.key)
    report = rp.replay(record, backend=args.backend,
                       verify_trace=args.verify_trace)
    _print_replay_report(report)
    return 0 if report.ok else 1


def cmd_diff_campaign(args) -> int:
    """``repro diff-campaign``: outcome-taxonomy drift between stores."""
    import json

    from repro.replay import diff_campaigns, render_diff

    diff = diff_campaigns(args.store_a, args.store_b)
    if args.json:
        print(json.dumps(stable_floats(diff), indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
    return 1 if diff["flip_count"] else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Understanding and Mitigating Hardware "
                    "Failures in DL Training Accelerator Systems' (ISCA 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_arg(p):
        p.add_argument("--trace", metavar="PATH",
                       help="record a structured event trace and export "
                            "it as JSONL to PATH")

    train = sub.add_parser("train", help="train a workload fault-free")
    train.add_argument("workload", choices=workload_names())
    _add_common(train)
    train.add_argument("--iterations", type=int, default=60)
    train.add_argument("--report-every", type=int, default=5)
    add_trace_arg(train)
    train.set_defaults(func=cmd_train)

    def add_fault_args(p):
        """Shared fault-description flags for inject/mitigate."""
        p.add_argument("--site", default="1.conv1",
                       help="op-site module name (default: 1.conv1)")
        p.add_argument("--kind", default="weight_grad",
                       choices=["forward", "weight_grad", "input_grad", "comm"],
                       help="op-site kind; 'comm' injects a link fault into "
                            "the in-flight reduced gradient (ignores --site)")
        p.add_argument("--group", type=int, choices=range(1, 11),
                       help="global control fault group (Table 1)")
        p.add_argument("--bit", type=int,
                       help="datapath bit flip position (0-31)")
        p.add_argument("--iteration", type=int, default=20)
        p.add_argument("--device", type=int, default=1)
        p.add_argument("--fault-seed", type=int, default=3)

    inject = sub.add_parser("inject", help="inject one hardware fault")
    inject.add_argument("workload", choices=workload_names())
    _add_common(inject)
    add_fault_args(inject)
    inject.add_argument("--iterations", type=int, default=60)
    inject.add_argument("--report-every", type=int, default=5)
    add_trace_arg(inject)
    inject.set_defaults(func=cmd_inject)

    campaign = sub.add_parser("campaign", help="run a statistical FI campaign")
    campaign.add_argument("workload", choices=workload_names())
    _add_common(campaign)
    campaign.add_argument("--experiments", type=int, default=30)
    campaign.add_argument("--experiment-batch", type=int, default=1,
                          metavar="E",
                          help="with --backend batched: step E experiments "
                               "concurrently through one vectorized program "
                               "(default: 1)")
    campaign.add_argument("--campaign-seed", type=int, default=77)
    campaign.add_argument("--parallel", type=int, default=1,
                          help="worker processes (default: 1 = in-process)")
    campaign.add_argument("--store", metavar="PATH",
                          help="stream results into a persistent JSONL "
                               "result store (resumable, mergeable)")
    campaign.add_argument("--resume", action="store_true",
                          help="continue an existing --store, skipping "
                               "already-finished experiments")
    campaign.add_argument("--timeout", type=float,
                          help="per-experiment deadline in seconds "
                               "(parallel mode)")
    campaign.add_argument("--retries", type=int, default=2,
                          help="retries before quarantining an experiment "
                               "(default: 2)")
    campaign.add_argument("--trace", action="store_true",
                          help="flight recorder: stream every worker's "
                               "events into trace shards next to --store, "
                               "merged into one campaign trace at the end")
    campaign.add_argument("--detect", action="store_true",
                          help="attach the Sec. 5.1 detector (observe-only) "
                               "to every experiment so detector_fired "
                               "events land in the campaign trace")
    campaign.set_defaults(func=cmd_campaign)

    report = sub.add_parser("report",
                            help="summarize a persistent result store")
    report.add_argument("store", help="path of a JSONL result store")
    report.add_argument("--json", action="store_true",
                        help="machine-readable JSON mirroring the text "
                             "report")
    report.set_defaults(func=cmd_report)

    monitor = sub.add_parser("monitor",
                             help="live dashboard over a result store and "
                                  "its worker trace shards")
    monitor.add_argument("store", help="path of a JSONL result store")
    mode = monitor.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true",
                      help="render one observation and exit (default)")
    mode.add_argument("--follow", action="store_true",
                      help="keep rendering until the campaign completes")
    mode.add_argument("--json", action="store_true",
                      help="print one deterministic JSON snapshot "
                           "(wall-clock fields excluded) and exit")
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="--follow / --serve poll interval in seconds "
                              "(default: 2)")
    monitor.add_argument("--html", metavar="PATH",
                         help="also write a static HTML dashboard to PATH")
    monitor.add_argument("--markdown", metavar="PATH",
                         help="also write a markdown snapshot to PATH")
    monitor.add_argument("--stall-after", type=float, metavar="S",
                         help="flag a worker as stalled after S seconds "
                              "without a shard write while busy (the "
                              "built-in rule, workers.stalled max 0, then "
                              "fires unless --slo replaces it)")
    monitor.add_argument("--serve", type=int, metavar="PORT",
                         help="poll the store into a served telemetry "
                              "endpoint on 127.0.0.1:PORT until the "
                              "campaign completes (0 = ephemeral port)")
    monitor.add_argument("--slo", metavar="RULES.json",
                         help="declarative SLO rules evaluated at every "
                              "poll, in every mode: exit 1 iff a critical "
                              "rule fired at any poll (warning rules only "
                              "report); statuses are embedded in --json.  "
                              "One observation (--once, --json) cannot "
                              "sustain a for_seconds > 0 rule: it reports "
                              "pending and exits 0")
    monitor.set_defaults(func=cmd_monitor)

    merge = sub.add_parser("merge",
                           help="merge partial result stores (dedup by key)")
    merge.add_argument("output", help="destination store path")
    merge.add_argument("inputs", nargs="+", help="source store paths")
    merge.set_defaults(func=cmd_merge)

    validate = sub.add_parser("validate",
                              help="validate software fault models vs micro-RTL")
    validate.add_argument("--experiments", type=int, default=400)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=cmd_validate)

    mitigate = sub.add_parser("mitigate",
                              help="inject a fault under detection + recovery")
    mitigate.add_argument("workload", choices=workload_names())
    _add_common(mitigate)
    add_fault_args(mitigate)
    mitigate.add_argument("--iterations", type=int, default=60)
    mitigate.add_argument("--report-every", type=int, default=5)
    mitigate.add_argument("--strategy", choices=["snapshot", "arithmetic"],
                          default="snapshot")
    add_trace_arg(mitigate)
    mitigate.set_defaults(func=cmd_mitigate)

    trace = sub.add_parser("trace",
                           help="render/filter an exported trace file")
    trace.add_argument("file", help="path of a trace JSONL file")
    trace.add_argument("--type", choices=sorted(EVENT_TYPES),
                       help="only show events of this type")
    trace.add_argument("--min-iteration", type=int, metavar="N")
    trace.add_argument("--max-iteration", type=int, metavar="N")
    trace.add_argument("--limit", type=int, metavar="N",
                       help="show only the last N matching events")
    trace.add_argument("--summary", action="store_true",
                       help="print per-type event counts instead of lines")
    trace.add_argument("--analyze", action="store_true",
                       help="campaign-level analytics (detection latencies, "
                            "Table 4 tallies, phase vulnerability)")
    trace.set_defaults(func=cmd_trace)

    replay = sub.add_parser(
        "replay",
        help="re-run a recorded experiment bit-for-bit and verify it")
    replay.add_argument("trace", nargs="?",
                        help="merged campaign trace file (omit the key to "
                             "list its replayable experiments)")
    replay.add_argument("key", nargs="?",
                        help="experiment key to replay")
    replay.add_argument("--corpus", metavar="PATH",
                        help="replay every entry of a pinned replay-corpus "
                             "document instead of a trace record")
    replay.add_argument("--backend", choices=list(BACKEND_NAMES),
                        help="override the recorded execution backend "
                             "(outcomes are backend-invariant)")
    replay.add_argument("--verify-trace", action="store_true",
                        help="also verify the replayed event stream "
                             "against the recorded one")
    replay.add_argument("--bless", action="store_true",
                        help="with --corpus: re-pin the corpus to the "
                             "replayed outcomes/digests (golden refresh)")
    replay.set_defaults(func=cmd_replay)

    diff = sub.add_parser(
        "diff-campaign",
        help="report outcome-taxonomy drift between two result stores")
    diff.add_argument("store_a", help="baseline result store")
    diff.add_argument("store_b", help="comparison result store")
    diff.add_argument("--json", action="store_true",
                      help="machine-readable JSON (deterministic)")
    diff.set_defaults(func=cmd_diff_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileExistsError, FileNotFoundError) as exc:
        # Predictable operator errors (clobbering a store without
        # --resume, unknown schema versions, a file of the wrong kind,
        # missing files) get a clean message instead of a traceback.
        # repro.jsonl.LogFormatError is a ValueError subclass.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
