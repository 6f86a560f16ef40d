"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiments (paper tables/figures).
``run FIG5 SEC7 ...``
    Run experiments and print their rendered tables/series (``run``
    with no ids runs everything — minutes of compute).
``policies [--nodes N] [--scenario WSx]``
    Evaluate the §8 mapping policies on one workload scenario.
``classify CODE [SIZE_GB]``
    Profile and classify one application, printing its features.
``trace steady|faulty|ecost``
    Replay a seeded run with tracing enabled; writes a
    Perfetto-loadable Chrome trace plus flat metrics JSON.
``conform [--self-verify]``
    Run the conformance battery: analytic-oracle matrix, metamorphic
    relations, and (optionally) mutant self-verification.
``fuzz --budget N --seed S``
    Random scenario walk with shrinking; prints a paste-ready pytest
    repro on failure (``--hetero`` forces a node-class roster onto
    every oracle-shaped draw).
``hetero``
    Run the heterogeneous acceptance matrix: every two-class scenario
    against its closed-form oracle.
``clear-cache``
    Drop the disk-cached artifacts (forces full rebuilds).
``serve [--port P] [--nodes N] [--scheduler fifo|ecost] [--clock ...]``
    Run the always-on job-submission service (asyncio HTTP).
``submit [--code wc --size-gb 5 | --stream N --seed S]``
    Submit one job (or a seeded stream) to a running service.
``service metrics|status|trace|drain|shutdown``
    Admin calls against a running service.
``online [--jobs N] [--seed S] [--model ...] [--offline] [--json]``
    Run the seeded workload-drift scenario with champion/challenger
    online self-tuning and print the regret/promotion report.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_list(_args) -> int:
    from repro.experiments.reporting import available_experiments

    for exp_id, desc in available_experiments().items():
        print(f"{exp_id:6} {desc}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.reporting import run_experiments

    print(run_experiments(args.ids or None))
    return 0


def _cmd_policies(args) -> int:
    from repro.baselines.mapping import POLICIES, evaluate_policy
    from repro.experiments.artifacts import train_pipeline
    from repro.experiments.scenarios import scenario_instances
    from repro.utils.tables import render_table

    components = train_pipeline().components(args.model)
    workload = scenario_instances(args.scenario)
    rows = []
    outcomes = {}
    for policy in POLICIES:
        out = evaluate_policy(policy, workload, args.nodes, components=components)
        outcomes[policy] = out
        rows.append([policy, out.makespan, out.energy, out.edp])
    ub = outcomes["UB"].edp
    for row, policy in zip(rows, POLICIES):
        row.append(outcomes[policy].edp / ub)
    print(render_table(
        ["policy", "makespan (s)", "energy (J)", "EDP (J*s)", "vs UB"],
        rows,
        title=f"{args.scenario} on {args.nodes} node(s)",
        floatfmt=".3g",
    ))
    return 0


def _cmd_classify(args) -> int:
    from repro.analysis.features import PROFILING_CONFIG
    from repro.experiments.artifacts import train_pipeline
    from repro.telemetry.profiling import FEATURE_NAMES, profile_features
    from repro.utils.tables import render_table
    from repro.utils.units import GB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import get_app

    inst = AppInstance(get_app(args.code), args.size_gb * GB)
    feats = profile_features(inst, PROFILING_CONFIG, seed=0)
    print(render_table(
        ["feature", "value"],
        [[n, feats[n]] for n in FEATURE_NAMES],
        title=f"Learning-period profile of {inst.label}",
        floatfmt=".2f",
    ))
    print(f"\nclassified as: {train_pipeline().classifier.classify(feats)}")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.experiments.trace_run import run_traced
    from repro.telemetry.tracing import validate_chrome_trace

    run = run_traced(
        args.experiment,
        n_jobs=args.jobs,
        n_nodes=args.nodes,
        seed=args.seed,
        fault_rate_per_1ks=args.fault_rate,
    )
    out = args.out or f"trace_{args.experiment}.json"
    run.tracer.write(out)
    problems = validate_chrome_trace(json.loads(open(out).read()))
    if problems:  # pragma: no cover - exporter/validator disagreement
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    metrics_out = args.metrics_out or f"metrics_{args.experiment}.json"
    run.registry.to_json(metrics_out)
    for key, value in run.summary().items():
        print(f"{key:>16} = {value:g}")
    print(f"\nwrote {out} (load in https://ui.perfetto.dev) and {metrics_out}")
    return 0


def _cmd_conform(args) -> int:
    from repro.conformance import run_conformance

    report = run_conformance(
        with_self_verify=args.self_verify,
        self_verify_budget=args.budget,
        seed=args.seed,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from repro.conformance import fuzz

    kwargs = {}
    if args.hetero:
        kwargs["roster_prob"] = 1.0
    report = fuzz(budget=args.budget, seed=args.seed, **kwargs)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_hetero(args) -> int:
    from repro.conformance.oracles import (
        REL_TOL,
        check_oracle,
        oracle_expectation,
    )
    from repro.conformance.scenarios import hetero_matrix

    scenarios = hetero_matrix()
    n_hetero = sum(1 for s in scenarios if s.heterogeneous)
    rosters = sorted({s.node_classes for s in scenarios})
    print(
        f"hetero: {len(scenarios)} scenario(s), {n_hetero} mixed-class, "
        f"{len(rosters)} distinct roster(s)"
    )
    failures: list[str] = []
    clean = 0
    for s in scenarios:
        if oracle_expectation(s) is None:
            messages = [f"matrix scenario not oracle-solvable: {s!r}"]
        else:
            messages = check_oracle(s)
        clean += not messages
        failures.extend(messages)
    print(f"oracle: {clean}/{len(scenarios)} scenario(s) within {REL_TOL:g}")
    for message in failures[:10]:
        print(f"  {message}")
    print(f"hetero: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    from repro.service.config import ServiceConfig
    from repro.service.server import serve

    overrides = {
        name: value
        for name, value in (
            ("host", args.host),
            ("port", args.port),
            ("n_nodes", args.nodes),
            ("scheduler", args.scheduler),
            ("clock", args.clock),
            ("rate_per_s", args.rate),
            ("burst", args.burst),
            ("max_inflight", args.max_inflight),
            ("time_scale", args.time_scale),
        )
        if value is not None
    }
    serve(ServiceConfig.from_env(**overrides))
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient
    from repro.service.requests import seeded_requests

    from repro.utils.units import GB

    with ServiceClient(args.host, args.port) as client:
        if args.stream:
            acks = client.submit_batch(
                seeded_requests(args.stream, seed=args.seed)
            )
            accepted = sum(1 for a in acks if a.get("accepted"))
            print(f"submitted {len(acks)} request(s): {accepted} accepted, "
                  f"{len(acks) - accepted} rejected")
            return 0
        payload = {"code": args.code, "data_bytes": int(args.size_gb * GB)}
        if args.tenant is not None:
            payload["tenant"] = args.tenant
        if args.time is not None:
            payload["time"] = args.time
        print(json.dumps(client.submit(payload), indent=2))
    return 0


def _cmd_service(args) -> int:
    import json

    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        result = getattr(client, args.action)()
    if args.action == "trace" and args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        print(f"wrote {args.out} ({len(result.get('traceEvents', []))} events)")
    else:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_online(args) -> int:
    import json

    from repro.online.scenario import run_drift_scenario

    report = run_drift_scenario(
        n_jobs=args.jobs,
        seed=args.seed,
        n_nodes=args.nodes,
        model_kind=args.model,
        online=not args.offline,
        crash=not args.no_crash,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _cmd_clear_cache(_args) -> int:
    from repro.experiments.artifacts import clear_cache

    print(f"removed {clear_cache()} cached artifact(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ECoST reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        fn=_cmd_list
    )

    p_run = sub.add_parser("run", help="run experiments and print reports")
    p_run.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_run.set_defaults(fn=_cmd_run)

    p_pol = sub.add_parser("policies", help="evaluate the mapping policies")
    p_pol.add_argument("--nodes", type=int, default=8)
    p_pol.add_argument("--scenario", default="WS4")
    p_pol.add_argument("--model", default="mlp", choices=["lr", "reptree", "mlp"])
    p_pol.set_defaults(fn=_cmd_policies)

    p_cls = sub.add_parser("classify", help="profile + classify an application")
    p_cls.add_argument("code", help="application code, e.g. km")
    p_cls.add_argument("size_gb", type=int, nargs="?", default=5)
    p_cls.set_defaults(fn=_cmd_classify)

    p_trace = sub.add_parser(
        "trace", help="replay a seeded run with tracing enabled"
    )
    p_trace.add_argument(
        "experiment", choices=["steady", "faulty", "ecost"],
        help="which seeded replay to trace",
    )
    p_trace.add_argument("--jobs", type=int, default=60)
    p_trace.add_argument("--nodes", type=int, default=8)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--fault-rate", type=float, default=6.0,
                         help="fault injections per 1000 simulated seconds")
    p_trace.add_argument("--out", help="Chrome trace path (default trace_<exp>.json)")
    p_trace.add_argument("--metrics-out",
                         help="flat metrics path (default metrics_<exp>.json)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_conf = sub.add_parser(
        "conform", help="run the engine conformance battery"
    )
    p_conf.add_argument(
        "--self-verify", action="store_true",
        help="also fuzz the deliberately broken engine variants "
             "and require each to be caught and shrunk",
    )
    p_conf.add_argument("--budget", type=int, default=60,
                        help="fuzz budget per mutant in self-verify mode")
    p_conf.add_argument("--seed", type=int, default=7)
    p_conf.set_defaults(fn=_cmd_conform)

    p_fuzz = sub.add_parser(
        "fuzz", help="seeded scenario fuzz with automatic shrinking"
    )
    p_fuzz.add_argument("--budget", type=int, default=200,
                        help="number of random scenarios to execute")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--hetero", action="store_true",
        help="annotate every oracle-shaped draw with a random node-class "
             "roster (the heterogeneous smoke; other draws unchanged)",
    )
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_hetero = sub.add_parser(
        "hetero",
        help="run the heterogeneous-cluster acceptance matrix",
    )
    p_hetero.set_defaults(fn=_cmd_hetero)

    p_serve = sub.add_parser(
        "serve", help="run the always-on job-submission service"
    )
    p_serve.add_argument("--host", help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, help="bind port (default 8642; 0 = ephemeral)")
    p_serve.add_argument("--nodes", type=int, help="cluster size (default 8)")
    p_serve.add_argument("--scheduler", choices=["fifo", "ecost"],
                         help="placement policy (default fifo)")
    p_serve.add_argument("--clock", choices=["virtual", "wall"],
                         help="virtual = deterministic replayable time (default)")
    p_serve.add_argument("--rate", type=float,
                         help="per-tenant admission rate (jobs/s, default unlimited)")
    p_serve.add_argument("--burst", type=float,
                         help="per-tenant admission burst (default 64)")
    p_serve.add_argument("--max-inflight", type=int,
                         help="global accepted-but-unfinished cap")
    p_serve.add_argument("--time-scale", type=float,
                         help="wall clock: simulated seconds per real second")
    p_serve.set_defaults(fn=_cmd_serve)

    p_sub = sub.add_parser("submit", help="submit job(s) to a running service")
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8642)
    p_sub.add_argument("--code", default="wc", help="application code (default wc)")
    p_sub.add_argument("--size-gb", type=float, default=5.0)
    p_sub.add_argument("--tenant")
    p_sub.add_argument("--time", type=float,
                       help="virtual arrival time (virtual-clock services)")
    p_sub.add_argument("--stream", type=int, metavar="N",
                       help="submit a seeded N-job stream instead of one job")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.set_defaults(fn=_cmd_submit)

    p_svc = sub.add_parser("service", help="admin calls against a running service")
    p_svc.add_argument("action",
                       choices=["metrics", "status", "trace", "drain", "shutdown"])
    p_svc.add_argument("--host", default="127.0.0.1")
    p_svc.add_argument("--port", type=int, default=8642)
    p_svc.add_argument("--out", help="trace only: write Chrome trace to this path")
    p_svc.set_defaults(fn=_cmd_service)

    p_online = sub.add_parser(
        "online", help="run the seeded online self-tuning drift scenario"
    )
    p_online.add_argument("--jobs", type=int, default=64)
    p_online.add_argument("--seed", type=int, default=0)
    p_online.add_argument("--nodes", type=int, default=4)
    p_online.add_argument("--model", default="reptree",
                          choices=["lr", "reptree", "mlp"])
    p_online.add_argument("--offline", action="store_true",
                          help="run the same stream without online tuning")
    p_online.add_argument("--no-crash", action="store_true",
                          help="skip the node crash/recovery injection")
    p_online.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    p_online.set_defaults(fn=_cmd_online)

    sub.add_parser("clear-cache", help="drop cached artifacts").set_defaults(
        fn=_cmd_clear_cache
    )

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        # Domain lookups raise with the valid options in the message;
        # surface that cleanly instead of a traceback.  Internal bugs
        # can raise the same types — REPRO_DEBUG=1 re-raises for a
        # full stack when the message alone is not enough.
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
