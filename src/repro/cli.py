"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run one policy simulation and print its summary.
``traces``
    Generate a price-trace archive, or print market statistics.
``experiment``
    Regenerate one paper table/figure (or ``all``) as text.
``obs``
    Summarize an ``--obs-dir`` observability output directory.
``report``
    Run the full evaluation and write EXPERIMENTS.md.
``chaos``
    Run the fault-injection scenario (see docs/robustness.md) and
    check/record its golden fault and retry metrics.
``storm``
    Run the overlapping restore-storm smoke and assert the backup
    datapath's fair-share invariant and analytic cross-check.
``sla``
    Run the chaos fault plan under diurnal + flash-crowd traffic and
    report per-policy SLA attainment (Figure 12 in error-budget units),
    with a golden digest check for CI.
``index``
    Run the cost-variance study comparing the classic allocation
    policies with the index-tracking / optimal-combination portfolios
    (realized $/VM-hour mean and variance, downtime, drive laziness),
    with a golden digest check for CI.
"""

import argparse
import json
import sys


def _cmd_simulate(args):
    from repro.experiments.scenario import PolicySimulation, ScenarioConfig
    faults = None
    if args.faults:
        from repro.faults import FaultPlan
        faults = FaultPlan.from_json(args.faults)
    config = ScenarioConfig(
        policy=args.policy, mechanism=args.mechanism, seed=args.seed,
        days=args.days, vms=args.vms, workload=args.workload,
        bid_policy=args.bid_policy, bid_multiple=args.bid_multiple,
        hot_spares=args.hot_spares, proactive=args.proactive,
        predictive=args.predictive, slicing=not args.no_slicing,
        zones=args.zones, faults=faults)
    obs = None
    if args.obs_dir:
        from repro.obs import Observability
        obs = Observability()
    summary = PolicySimulation(config).run(obs=obs)
    if obs is not None:
        obs.write_dir(args.obs_dir)
        print(f"wrote events.jsonl, metrics.prom, traces.txt to "
              f"{args.obs_dir}/", file=sys.stderr)
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
        return 0
    print(f"policy {summary['policy']}  mechanism {summary['mechanism']}  "
          f"({args.days:.0f} days, {args.vms} VMs, seed {args.seed})")
    print(f"  cost ............. ${summary['cost_per_vm_hour']:.4f}/VM-hr "
          f"(on-demand m3.medium: $0.07)")
    print(f"  availability ..... {100 * summary['availability']:.4f}%")
    print(f"  degraded time .... {summary['degradation_pct']:.4f}%")
    print(f"  migrations ....... {summary['migrations']} "
          f"({summary['revocation_events']} revocation events)")
    print(f"  state lost ....... {summary['state_loss_events']}")
    if "faults_injected" in summary:
        print(f"  faults injected .. {summary['faults_injected']}")
    return 0


def _golden_tail(args, digest, check, report, matched):
    """Shared ending of the golden-pinned commands (chaos, sla, index).

    ``--write-golden`` records ``digest`` and exits.  Otherwise
    ``report()`` prints the run, and ``--check-golden`` compares the
    digest against the file with ``check(digest, golden)``: mismatches
    exit 1, a match prints ``matched``.  Both verdicts go to stderr, so
    ``--json`` stdout stays one JSON document for ``| jq``.
    """
    if args.write_golden:
        with open(args.write_golden, "w", encoding="utf-8") as handle:
            json.dump(digest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote golden digest to {args.write_golden}")
        return 0
    report()
    if not args.check_golden:
        return 0
    with open(args.check_golden, encoding="utf-8") as handle:
        problems = check(digest, json.load(handle))
    for problem in problems:
        print(f"GOLDEN MISMATCH {problem}", file=sys.stderr)
    if problems:
        return 1
    print(matched, file=sys.stderr)
    return 0


def _cmd_chaos(args):
    from repro.experiments.chaos import check_digest, run_chaos
    from repro.faults import FaultPlan
    plan = FaultPlan.from_json(args.faults) if args.faults else None
    summary, digest = run_chaos(seed=args.seed, days=args.days,
                                vms=args.vms, policy=args.policy, plan=plan)

    def report():
        if args.json:
            print(json.dumps({"summary": summary, "digest": digest},
                             indent=2, default=float))
            return
        print(f"chaos run survived: {digest['faults_injected_total']} "
              f"faults injected, {digest['retries_total']} retries, "
              f"{digest['fault_degradations_total']} degradations, "
              f"{digest['state_loss_events']} state-loss events")

    return _golden_tail(args, digest, check_digest, report,
                        "golden fault/retry metrics match")


def _cmd_sla(args):
    from repro.experiments.sla_chaos import check_sla_digest, run_sla
    results, digest = run_sla(seed=args.seed, days=args.days, vms=args.vms,
                              policies=tuple(args.policies))

    def report():
        if args.json:
            print(json.dumps({"digest": digest,
                              "sla": {p: s["sla"]
                                      for p, s in results.items()}},
                             indent=2, default=float))
            return
        print(f"SLA under chaos ({args.days:.0f} days, {args.vms} VMs, "
              f"seed {args.seed})")
        for policy in args.policies:
            entry = digest["policies"][policy]
            print(f"  {policy:8s} attainment {100 * entry['attainment']:.4f}%"
                  f"  (downtime {entry['unavailability_pct']:.3f}%, "
                  f"degraded {entry['degradation_pct']:.3f}%)")
            for name, cust in sorted(entry["customers"].items()):
                print(f"    {name:6s} {cust['requests']:>12,d} requests  "
                      f"p99 {cust['p99_ms']:6.1f} ms  "
                      f"breaches {cust['breaches']}")
        print(f"  ranking by attainment: "
              f"{' > '.join(digest['attainment_order'])}")

    return _golden_tail(
        args, digest, check_sla_digest, report,
        "golden SLA digest matches; policy ordering preserved")


def _cmd_index(args):
    from repro.experiments.cost_index import check_index_digest, run_index
    _results, digest = run_index(seed=args.seed, days=args.days,
                                 vms=args.vms,
                                 policies=tuple(args.policies))

    def report():
        if args.json:
            print(json.dumps(digest, indent=2, default=float))
            return
        print(f"cost-variance study ({args.days:.0f} days, {args.vms} VMs, "
              f"seed {args.seed})")
        for policy in args.policies:
            entry = digest["policies"][policy]
            line = (f"  {policy:9s} mean ${entry['cost_mean']:.5f}/VM-hr  "
                    f"std ${entry['cost_std']:.5f}  "
                    f"downtime {entry['unavailability_pct']:.3f}%  "
                    f"migr {entry['migrations']:4d}  "
                    f"drive {100 * entry['delivered_fraction']:.2f}%")
            if "realized_per_vm_hour" in entry:
                mark = "in" if entry["realized_in_band"] else "OUT OF"
                line += (f"  realized ${entry['realized_per_vm_hour']:.5f} "
                         f"({mark} band)")
            print(line)
        print(f"  ranking by cost variance: "
              f"{' < '.join(digest['variance_order'])}")

    return _golden_tail(
        args, digest, check_index_digest, report,
        "golden index digest matches; IT beats 4P-COST on variance")


def _cmd_storm(args):
    from repro.experiments.fig8 import storm_smoke
    ok, _lines = storm_smoke(echo=print)
    if not ok:
        print("storm smoke failed: fair-share invariant or analytic "
              "cross-check violated", file=sys.stderr)
        return 1
    print("fair-share invariant held at every rebalance")
    return 0


def _cmd_traces(args):
    from repro.traces import stats
    from repro.traces.calibration import M3_MARKET_PARAMS
    from repro.traces.generator import TraceGenerator
    if args.import_json or args.import_csv:
        return _import_traces(args)
    generator = TraceGenerator(seed=args.seed)
    duration_s = args.days * 24 * 3600.0
    traces = [
        generator.generate_market(name, args.zone, params,
                                  duration_s=duration_s)
        for name, params in sorted(M3_MARKET_PARAMS.items())
        if args.types is None or name in args.types
    ]
    if args.out:
        from repro.traces.archive import TraceArchive
        TraceArchive(traces).save(args.out)
        print(f"wrote {len(traces)} traces to {args.out}/")
        return 0
    for trace in traces:
        summary = stats.summarize(trace)
        print(f"{trace.type_name:12s} mean ratio "
              f"{summary['mean_ratio']:.3f}  availability@od "
              f"{100 * summary['availability_at_od']:.3f}%  spikes "
              f"{summary['spikes_above_od']}")
    return 0


def _import_traces(args):
    """Import real price history and print (or archive) the markets."""
    from repro.cloud.instance_types import DEFAULT_CATALOG
    from repro.traces import stats
    from repro.traces.importer import load_aws_json, load_csv
    on_demand = {itype.name: itype.on_demand_price
                 for itype in DEFAULT_CATALOG}
    if args.import_json:
        archive, skipped = load_aws_json(args.import_json, on_demand)
    else:
        archive, skipped = load_csv(args.import_csv, on_demand)
    for type_name, zone_name in skipped:
        print(f"skipped ({type_name}, {zone_name}): unknown on-demand "
              f"price", file=sys.stderr)
    if args.out:
        archive.save(args.out)
        print(f"wrote {len(archive)} imported traces to {args.out}/")
        return 0
    for trace in archive:
        summary = stats.summarize(trace)
        print(f"{trace.type_name:12s} {trace.zone_name:12s} mean ratio "
              f"{summary['mean_ratio']:.3f}  availability@od "
              f"{100 * summary['availability_at_od']:.3f}%")
    return 0


def _cmd_experiment(args):
    from repro.experiments.render import RENDERERS
    names = list(RENDERERS) if args.name == "all" else [args.name]
    for name in names:
        if name not in RENDERERS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{', '.join(RENDERERS)} or 'all'", file=sys.stderr)
            return 2
    for name in names:
        renderer = RENDERERS[name]
        if name in ("fig10", "fig11", "fig12", "table3"):
            title, text, notes = renderer(
                seed=args.seed, days=args.days, vms=args.vms)
        else:
            title, text, notes = renderer()
        print(title)
        print(text)
        print(notes)
        print()
    return 0


def _cmd_obs(args):
    from repro.obs.export import summarize_obs_dir
    if args.obs_command == "summarize":
        print(summarize_obs_dir(args.dir), end="")
        return 0
    return 2


def _cmd_report(args):
    from repro.experiments.runner import generate_report
    print(f"running the full evaluation "
          f"({args.days:.0f} days, {args.vms} VMs, "
          f"{args.workers} worker{'s' if args.workers != 1 else ''})...")
    generate_report(path=args.out, seed=args.seed, days=args.days,
                    vms=args.vms, workers=args.workers,
                    cache_dir=args.cache_dir)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    from repro import __version__
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpotCheck (EuroSys'15) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy simulation")
    sim.add_argument("--policy", default="1P-M")
    sim.add_argument("--mechanism", default="spotcheck-lazy")
    sim.add_argument("--days", type=float, default=60.0)
    sim.add_argument("--vms", type=int, default=40)
    sim.add_argument("--seed", type=int, default=11)
    sim.add_argument("--workload", default="tpcw",
                     choices=("tpcw", "specjbb"))
    sim.add_argument("--bid-policy", default="on-demand",
                     choices=("on-demand", "multiple", "knee"))
    sim.add_argument("--bid-multiple", type=float, default=1.5)
    sim.add_argument("--hot-spares", type=int, default=0)
    sim.add_argument("--proactive", action="store_true")
    sim.add_argument("--predictive", action="store_true")
    sim.add_argument("--no-slicing", action="store_true")
    sim.add_argument("--zones", type=int, default=1,
                     help="availability zones to operate across")
    sim.add_argument("--faults", default=None, metavar="FILE",
                     help="inject control-plane faults from a FaultPlan "
                          "JSON config (see docs/robustness.md)")
    sim.add_argument("--json", action="store_true")
    sim.add_argument("--obs-dir", default=None, metavar="DIR",
                     help="instrument the run and write events.jsonl, "
                          "metrics.prom, and traces.txt to DIR")
    sim.set_defaults(func=_cmd_simulate)

    traces = sub.add_parser("traces",
                            help="generate or summarize price traces")
    traces.add_argument("--seed", type=int, default=0)
    traces.add_argument("--days", type=float, default=183.0)
    traces.add_argument("--zone", default="us-east-1a")
    traces.add_argument("--types", nargs="*", default=None)
    traces.add_argument("--out", default=None,
                        help="write a CSV archive to this directory")
    traces.add_argument("--import-json", default=None, metavar="FILE",
                        help="import aws describe-spot-price-history JSON")
    traces.add_argument("--import-csv", default=None, metavar="FILE",
                        help="import a price-history CSV")
    traces.set_defaults(func=_cmd_traces)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure")
    experiment.add_argument("name")
    experiment.add_argument("--seed", type=int, default=11)
    experiment.add_argument("--days", type=float, default=183.0)
    experiment.add_argument("--vms", type=int, default=40)
    experiment.set_defaults(func=_cmd_experiment)

    obs = sub.add_parser(
        "obs", help="inspect an --obs-dir output directory")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="digest events.jsonl / metrics.prom / traces.txt")
    summarize.add_argument("--dir", default="out",
                           help="observability output directory")
    obs.set_defaults(func=_cmd_obs)

    report = sub.add_parser("report", help="write EXPERIMENTS.md")
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.add_argument("--seed", type=int, default=11)
    report.add_argument("--days", type=float, default=183.0)
    report.add_argument("--vms", type=int, default=40)
    report.add_argument("--workers", type=int, default=1,
                        help="processes for the policy grid (Figs 10-12)")
    report.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist completed grid cells under DIR so "
                             "repeated reports skip them")
    report.set_defaults(func=_cmd_report)

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection scenario "
                      "(docs/robustness.md)")
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument("--days", type=float, default=42.0)
    chaos.add_argument("--vms", type=int, default=20)
    chaos.add_argument("--policy", default="4P-COST",
                       help="allocation policy for the chaos fleet")
    chaos.add_argument("--faults", default=None, metavar="FILE",
                       help="FaultPlan JSON overriding the default plan")
    chaos.add_argument("--json", action="store_true")
    chaos.add_argument("--write-golden", default=None, metavar="FILE",
                       help="record this run's digest as the golden file")
    chaos.add_argument("--check-golden", default=None, metavar="FILE",
                       help="fail (exit 1) unless the digest matches FILE")
    chaos.set_defaults(func=_cmd_chaos)

    storm = sub.add_parser(
        "storm", help="smoke the overlapping restore-storm scenario "
                      "(fair-share invariant)")
    storm.set_defaults(func=_cmd_storm)

    sla = sub.add_parser(
        "sla", help="run the chaos plan under live traffic and report "
                    "per-policy SLA attainment (docs/traffic.md)")
    sla.add_argument("--seed", type=int, default=11)
    sla.add_argument("--days", type=float, default=14.0)
    sla.add_argument("--vms", type=int, default=12)
    sla.add_argument("--policies", nargs="*", default=["1P-M", "4P-COST"])
    sla.add_argument("--json", action="store_true")
    sla.add_argument("--write-golden", default=None, metavar="FILE",
                     help="record this run's digest as the golden file")
    sla.add_argument("--check-golden", default=None, metavar="FILE",
                     help="fail (exit 1) unless the digest matches FILE")
    sla.set_defaults(func=_cmd_sla)

    index = sub.add_parser(
        "index", help="run the cost-variance study: classic policies vs "
        "index-tracking / optimal-combination portfolios")
    index.add_argument("--seed", type=int, default=11)
    index.add_argument("--days", type=float, default=14.0)
    index.add_argument("--vms", type=int, default=12)
    index.add_argument("--policies", nargs="*",
                       default=["1P-M", "4P-COST", "4P-ST", "IT-0.125",
                                "IT-0.14", "OC-2"])
    index.add_argument("--json", action="store_true")
    index.add_argument("--write-golden", default=None, metavar="FILE",
                       help="write the digest as the new golden and exit")
    index.add_argument("--check-golden", default=None, metavar="FILE",
                       help="compare the digest against a golden file")
    index.set_defaults(func=_cmd_index)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
