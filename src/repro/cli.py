"""Command-line interface: ``python -m repro`` / ``repro-copydetect``.

Subcommands:

* ``generate`` — write a synthetic profile to claims/gold CSV files.
* ``detect`` — single-round copy detection on a claims file with any
  algorithm (probabilities/accuracies bootstrapped by voting).
* ``fuse`` — full iterative fusion with a chosen detector; prints the
  fused truths, final accuracies, and detected copying; ``--store DIR``
  also publishes every round as a versioned verdict snapshot.
* ``stats`` — Table V-style statistics of a claims file.
* ``bench`` — the Table VI/VII method grid on a claims file.
* ``query`` — read a published verdict store (pair verdicts, fused
  truths, top copiers) without any detection run.
* ``serve`` — the streaming service: a long-running HTTP/SSE server
  that ingests claim deltas continuously, re-fuses in micro-batched
  epochs, and publishes every epoch to a verdict store.
* ``cluster-worker`` — run one remote-execution worker: a long-lived
  TCP loop that caches the broadcast world and answers each shipped
  partition with its partial for drivers running ``detect``/``fuse``
  with ``--executor remote``.
* ``conformance`` — the differential grid fuzzer: sweep the
  (method x backend x executor x reduce x partition count x fusion) grid
  against the pure-Python reference, persist divergent worlds into the
  regression corpus, and emit a machine-readable report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    BACKENDS,
    EXECUTORS,
    METHODS,
    PAIR_LAYOUTS,
    PARALLEL_METHODS,
    REDUCE_MODES,
    CopyParams,
    detect,
    make_detector,
)
from .data import load_claims, load_gold, save_claims, save_gold
from .eval import render_table
from .fusion import (
    FUSION_METHOD_VALUES,
    CredibilityModel,
    FusionConfig,
    run_fusion,
    vote_probabilities,
)
from .synth import PROFILES, make_profile


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.1, help="copy prior")
    parser.add_argument("--s", type=float, default=0.8, help="copy selectivity")
    parser.add_argument("--n", type=int, default=50, help="false values per item")
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="numpy",
        help="scoring backend: 'numpy' (default — vectorized kernel for "
        "pairwise/index, epoch-batched scan for bound/bound+/hybrid; "
        "identical verdicts, much faster) or 'python' (the paper-literal "
        "reference loops)",
    )
    parser.add_argument(
        "--pair-layout",
        choices=list(PAIR_LAYOUTS),
        default="auto",
        help="pair-state layout for the numpy kernels: 'auto' (default — "
        "dense flat arrays while n_sources^2 stays under the per-kernel "
        "limit, compact observed-pair arrays beyond it), 'dense', or "
        "'sparse' to force a layout",
    )


def _params(args: argparse.Namespace) -> CopyParams:
    return CopyParams(
        alpha=args.alpha,
        s=args.s,
        n=args.n,
        backend=args.backend,
        pair_layout=args.pair_layout,
    )


def _add_fusion_method(parser: argparse.ArgumentParser) -> None:
    """The truth-finding method flags shared by ``fuse`` and ``serve``."""
    parser.add_argument(
        "--fusion",
        choices=list(FUSION_METHOD_VALUES),
        default="accu",
        help="truth-finding update: 'accu' (the paper's softmax, default) "
        "or 'ds' (Dempster-Shafer: credibility-weighted mass functions, "
        "per-item conflict diagnostics, pignistic truths)",
    )
    parser.add_argument(
        "--credibility-file",
        default=None,
        metavar="FILE",
        help="per-source credibility priors for --fusion ds: a JSON "
        "object or 'name,weight' CSV ('*' sets the default weight)",
    )
    parser.add_argument(
        "--ds-uncertainty",
        type=float,
        default=0.0,
        metavar="U",
        help="mass each DS claim reserves for 'I don't know' "
        "(0 <= U < 1, default 0)",
    )


def _fusion_config(args: argparse.Namespace) -> FusionConfig:
    """A :class:`FusionConfig` from the shared CLI flags.

    Rejects credibility/uncertainty flags without ``--fusion ds`` here,
    with a clean ``SystemExit``, rather than letting ``run_fusion``'s
    ValueError surface as a traceback.
    """
    if args.fusion != "ds":
        if args.credibility_file is not None:
            raise SystemExit("--credibility-file requires --fusion ds")
        if args.ds_uncertainty != 0.0:
            raise SystemExit("--ds-uncertainty requires --fusion ds")
    credibility = None
    if args.credibility_file is not None:
        try:
            credibility = CredibilityModel.from_file(args.credibility_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--credibility-file: {exc}")
    return FusionConfig(
        max_rounds=args.max_rounds,
        fusion_method=args.fusion,
        credibility=credibility,
        ds_uncertainty=args.ds_uncertainty,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    world = make_profile(args.profile, scale=args.scale, seed=args.seed)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_claims(world.dataset, out / "claims.csv")
    save_gold(world.gold, out / "gold.csv")
    stats = world.dataset.stats()
    print(
        render_table(
            f"Generated {args.profile} (scale={args.scale})",
            ["sources", "items", "dist-values", "index-entries", "claims"],
            [[
                stats.n_sources,
                stats.n_items,
                stats.n_distinct_values,
                stats.n_index_entries,
                stats.n_claims,
            ]],
        )
    )
    print(f"claims -> {out / 'claims.csv'}")
    print(f"gold   -> {out / 'gold.csv'}")
    print(f"planted copying pairs: {sorted(world.copy_pairs)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = load_claims(args.claims)
    stats = dataset.stats()
    print(
        render_table(
            f"Statistics of {args.claims}",
            ["sources", "items", "dist-values", "index-entries", "claims", "conflicts/item"],
            [[
                stats.n_sources,
                stats.n_items,
                stats.n_distinct_values,
                stats.n_index_entries,
                stats.n_claims,
                stats.avg_conflicts_per_item,
            ]],
        )
    )
    return 0


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-partitions",
        type=int,
        default=1,
        metavar="P",
        help="split the index scan into P shares and map/reduce them "
        "(index and hybrid only; 1 = sequential)",
    )
    parser.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default="serial",
        help="how partitions run: in-process ('serial'), a thread pool, "
        "a real process pool (the columnar world is broadcast via shared "
        "memory under --backend numpy), or 'remote' — cluster workers "
        "over TCP (see --workers and the cluster-worker subcommand)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="cluster worker addresses for --executor remote "
        "(default: the REPRO_CLUSTER_WORKERS environment variable)",
    )
    parser.add_argument(
        "--reduce",
        choices=list(REDUCE_MODES),
        default="flat",
        help="merge partial results in one pass ('flat') or pairwise "
        "('tree', O(log P) merge depth at large partition counts)",
    )


def _execution_from_args(args) -> dict:
    """Validated partition arguments for :func:`detect` / :func:`make_detector`.

    Checks the flags before anything acts on them; empty for a
    sequential run.  ``--executor remote`` dials the CLI-owned cluster
    executor into ``"cluster"`` (None for local executors): the caller
    closes it (and may print its wire/timing stats first).
    """
    if args.method not in PARALLEL_METHODS and (
        args.n_partitions > 1 or args.executor != "serial"
    ):
        # Reject rather than silently run sequentially: a user asking for
        # a partitioned scan or a pool must pick a partitionable method.
        raise SystemExit(
            f"--n-partitions > 1 / --executor supports methods "
            f"{'/'.join(PARALLEL_METHODS)}, not {args.method!r}"
        )
    if args.executor != "serial" and args.n_partitions <= 1:
        raise SystemExit("--executor requires --n-partitions > 1")
    if args.reduce != "flat" and args.n_partitions <= 1:
        raise SystemExit("--reduce requires --n-partitions > 1")
    if args.workers is not None and args.executor != "remote":
        raise SystemExit("--workers requires --executor remote")
    if args.n_partitions < 1:
        raise SystemExit(f"--n-partitions must be >= 1, got {args.n_partitions}")
    if args.n_partitions == 1:
        return {}
    cluster = None
    if args.executor == "remote":
        from .cluster import ClusterError, resolve_cluster

        try:
            cluster = resolve_cluster(args.workers)
        except ClusterError as exc:
            raise SystemExit(str(exc))
    return dict(
        n_partitions=args.n_partitions,
        executor=args.executor,
        reduce=args.reduce,
        cluster=cluster,
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    dataset = load_claims(args.claims)
    params = _params(args)
    probabilities = vote_probabilities(dataset)
    accuracies = [0.8] * dataset.n_sources
    execution = _execution_from_args(args)
    cluster = execution.get("cluster")
    try:
        result = detect(
            dataset,
            probabilities,
            accuracies,
            params,
            method=args.method,
            **execution,
        )
    except Exception:
        if cluster is not None:
            cluster.close()
        raise
    copying = sorted(
        (pair for pair, d in result.decisions.items() if d.copying),
        key=lambda pair: result.decisions[pair].posterior.independent,
    )
    rows = []
    for s1, s2 in copying:
        decision = result.decisions[(s1, s2)]
        rows.append(
            [
                dataset.source_names[s1],
                dataset.source_names[s2],
                decision.posterior.independent,
                decision.posterior.forward,
                decision.posterior.backward,
            ]
        )
    print(
        render_table(
            f"Copying detected by {args.method} "
            f"({result.elapsed_seconds:.3f}s, "
            f"{result.cost.computations:,} computations)",
            ["source 1", "source 2", "Pr(indep)", "Pr(1->2)", "Pr(2->1)"],
            rows,
        )
    )
    if cluster is not None:
        print(cluster.stats.summary())
        cluster.close()
    if args.explain:
        from .core import explain_pair

        print()
        for s1, s2 in copying[: args.explain]:
            explanation = explain_pair(
                dataset, s1, s2, probabilities, accuracies, params
            )
            print(explanation.render())
            print()
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    dataset = load_claims(args.claims)
    params = _params(args)
    config = _fusion_config(args)
    execution = _execution_from_args(args)
    cluster = execution.get("cluster")
    detector = make_detector(args.method, params, **execution)
    try:
        result = run_fusion(
            dataset, params, detector=detector, config=config,
            snapshot_store=args.store,
        )
    finally:
        if cluster is not None:
            print(cluster.stats.summary())
            cluster.close()

    print(
        f"converged={result.converged} rounds={result.n_rounds} "
        f"detection={result.detection_seconds:.3f}s "
        f"computations={result.total_computations:,}"
    )
    conflict = result.final_conflict()
    if conflict:
        worst_item, worst_k = max(conflict.items(), key=lambda kv: kv[1])
        mean_k = sum(conflict.values()) / len(conflict)
        print(
            f"DS conflict: mean K = {mean_k:.4f}, max K = {worst_k:.4f} "
            f"on {dataset.item_names[worst_item]!r}"
        )
    if args.gold:
        gold = load_gold(args.gold)
        print(f"fusion accuracy: {gold.accuracy_of(dataset, result.chosen):.3f}")
    detection = result.final_detection()
    if detection is not None:
        pairs = sorted(
            (dataset.source_names[a], dataset.source_names[b])
            for a, b in detection.copying_pairs()
        )
        print(f"copying pairs ({len(pairs)}): {pairs}")
    if args.truths:
        rows = [
            [dataset.item_names[item], dataset.value_label[value]]
            for item, value in sorted(result.chosen.items())
        ]
        print(render_table("Fused truths", ["item", "value"], rows[: args.truths]))
    if args.store:
        _print_snapshots(args.store, result)
    return 0


def _print_snapshots(root: str, result) -> None:
    """The table of what a ``fuse --store`` run published."""
    from .serving import VerdictStore

    store = VerdictStore(root)
    rows = []
    for snapshot_id in result.snapshot_ids:
        meta, _ = store.load(snapshot_id)
        rows.append(
            [
                snapshot_id,
                meta["kind"],
                meta["round"],
                meta["n_pairs"],
                meta["n_items"],
            ]
        )
    print(
        render_table(
            f"Published {len(result.snapshot_ids)} snapshots -> {root} "
            f"(converged={result.converged}, CURRENT={store.current_id()})",
            ["snapshot", "kind", "round", "pair rows", "item rows"],
            rows,
        )
    )


def _resolve_source(reader, token: str) -> int:
    """A source id from a CLI token: an integer, or a published label."""
    try:
        return int(token)
    except ValueError:
        pass
    names = reader.labels.get("sources") or []
    try:
        return names.index(token)
    except ValueError:
        raise SystemExit(f"unknown source {token!r} (not an id or a label)")


def _cmd_query(args: argparse.Namespace) -> int:
    from .serving import ServingError, VerdictReader

    try:
        reader = VerdictReader(args.store)
    except ServingError as exc:
        raise SystemExit(str(exc))
    queried = False
    if args.pair:
        queried = True
        s1 = _resolve_source(reader, args.pair[0])
        s2 = _resolve_source(reader, args.pair[1])
        try:
            verdict = reader.get_verdict(s1, s2)
        except ValueError as exc:  # same source twice, or an id out of range
            raise SystemExit(str(exc))
        if verdict is None:
            print(
                f"pair ({args.pair[0]}, {args.pair[1]}): never observed — "
                f"independent by construction"
            )
        else:
            names = reader.labels.get("sources")
            label = (
                f"{names[verdict.source_1]} / {names[verdict.source_2]}"
                if names
                else f"{verdict.source_1} / {verdict.source_2}"
            )
            print(
                render_table(
                    f"Verdict for {label} (snapshot {verdict.snapshot_id})",
                    ["copying", "early", "Pr(indep)", "Pr(1->2)", "Pr(2->1)",
                     "C->", "C<-", "decision pos"],
                    [[
                        verdict.copying,
                        verdict.early,
                        verdict.independent,
                        verdict.forward,
                        verdict.backward,
                        verdict.c_fwd,
                        verdict.c_bwd,
                        verdict.decision_pos,
                    ]],
                )
            )
    if args.item is not None:
        queried = True
        try:
            item: int | str = int(args.item)
        except ValueError:
            item = args.item
        try:
            truth = reader.get_truth(item)
        except ServingError as exc:
            raise SystemExit(str(exc))
        if truth is None:
            print(f"item {args.item!r}: not in the store")
        else:
            print(
                render_table(
                    f"Truth for {truth.item_name or truth.item} "
                    f"(snapshot {truth.snapshot_id})",
                    ["value", "probability", "supporters"],
                    [[
                        truth.value_label or truth.value,
                        truth.probability,
                        ",".join(str(s) for s in truth.supporters),
                    ]],
                )
            )
    if args.top:
        queried = True
        rows = [
            [c.source_name or c.source, c.score]
            for c in reader.top_copiers(args.top)
        ]
        print(
            render_table(
                f"Top copiers (snapshot {reader.snapshot_id})",
                ["source", "copy mass"],
                rows,
            )
        )
    if not queried:
        info = reader.cache_info()
        print(
            f"store {args.store}: snapshot {info['snapshot_id']}, "
            f"{info['n_pairs']} pair rows, {info['n_items']} item rows"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    import tempfile

    from .streaming import StreamEngine, StreamingServer, StreamingService

    params = _params(args)
    store = args.store or tempfile.mkdtemp(prefix="repro-verdicts-")

    async def _run() -> None:
        engine = StreamEngine(
            store=store,
            params=params,
            config=_fusion_config(args),
            warm_start=not args.cold_epochs,
        )
        service = StreamingService(
            engine,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            debounce=args.debounce,
        )
        server = StreamingServer(service, host=args.host, port=args.port)
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, shutdown.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        await server.start()
        if args.seed_claims:
            dataset = load_claims(args.seed_claims)
            from .data import ClaimDelta

            service.submit(
                ClaimDelta(
                    dataset.source_names[s],
                    dataset.item_names[i],
                    dataset.value_label[v],
                )
                for s, i, v in dataset.iter_claims()
            )
            await service.flush()
            state = service.state
            print(
                f"seeded epoch {state.epoch}: {state.dataset.n_sources} "
                f"sources, {state.dataset.n_items} items "
                f"(snapshot {state.snapshot_id})",
                flush=True,
            )
        print(
            f"streaming service on http://{args.host}:{server.port} "
            f"(verdict store: {store})",
            flush=True,
        )
        print(
            "endpoints: POST /claims · GET /events (SSE) · /verdict "
            "· /truth · /explain · /stats — Ctrl-C drains and exits",
            flush=True,
        )
        try:
            await shutdown.wait()
        finally:
            await server.stop(drain=True)
            state = service.state
            if state is not None:
                print(
                    f"drained: epoch {state.epoch}, snapshot "
                    f"{state.snapshot_id} is CURRENT in {store}",
                    flush=True,
                )

    asyncio.run(_run())
    return 0


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    """Run one cluster worker loop until interrupted."""
    from .cluster import serve_worker

    server = serve_worker(args.host, args.port)
    host, port = server.server_address[:2]
    # The parent (LocalCluster, or a human wiring --workers) parses
    # this exact line; keep it in sync with repro.cluster.local.
    print(f"cluster worker listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    import json

    from .conformance import run_grid

    grid = "smoke" if args.smoke else args.grid
    n_cases = args.cases
    if n_cases is None:
        n_cases = 240 if grid == "smoke" else 2000
    report = run_grid(
        grid=grid,
        n_cases=n_cases,
        seed=args.seed,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        progress=lambda message: print(f"  ! {message}", flush=True),
    )
    rows = [
        [
            config.label,
            config.contract,
            report.cases_per_config.get(config.label, 0),
            sum(
                1
                for d in report.divergences
                if d.config.label == config.label
            ),
        ]
        for config in report.configs
    ]
    print(
        render_table(
            f"Conformance grid '{grid}' — {report.n_cases} cases, "
            f"seed {report.seed}, {report.elapsed_seconds:.1f}s",
            ["configuration", "contract", "cases", "divergences"],
            rows,
        )
    )
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_json(), indent=1) + "\n")
        print(f"report -> {path}")
    if report.ok:
        print("OK: zero divergences")
        return 0
    print(f"FAIL: {len(report.divergences)} divergence(s)")
    for divergence in report.divergences:
        print(
            f"  case {divergence.case_index} [{divergence.config.label}] "
            f"{divergence.world.kind} world "
            f"({divergence.world.n_sources} sources, "
            f"{divergence.world.n_claims} claims)"
        )
        for detail in divergence.details[:3]:
            print(f"    {detail}")
        if divergence.corpus_path:
            print(f"    fixture -> {divergence.corpus_path}")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .eval import run_suite

    dataset = load_claims(args.claims)
    gold = load_gold(args.gold) if args.gold else None
    params = _params(args)
    methods = tuple(args.methods.split(",")) if args.methods else None
    suite = run_suite(
        dataset,
        params,
        **({"methods": methods} if methods else {}),
        sample_fraction=args.sample_fraction,
    )
    print(suite.render(dataset, gold))
    print(f"\ntotal wall time: {suite.wall_seconds:.2f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-copydetect",
        description="Scalable copy detection for structured data (Li et al., ICDE 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("profile", choices=PROFILES)
    p_gen.add_argument("--scale", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--output", "-o", default="dataset")
    p_gen.set_defaults(func=_cmd_generate)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table V columns)")
    p_stats.add_argument("claims")
    p_stats.set_defaults(func=_cmd_stats)

    p_det = sub.add_parser("detect", help="single-round copy detection")
    p_det.add_argument("claims")
    p_det.add_argument("--method", choices=METHODS, default="hybrid")
    p_det.add_argument(
        "--explain",
        type=int,
        default=0,
        metavar="N",
        help="print the evidence breakdown for the N most-confident pairs",
    )
    _add_params(p_det)
    _add_parallel(p_det)
    p_det.set_defaults(func=_cmd_detect)

    p_fuse = sub.add_parser("fuse", help="iterative fusion with copy detection")
    p_fuse.add_argument("claims")
    p_fuse.add_argument(
        "--method",
        choices=list(METHODS) + ["incremental", "none"],
        default="incremental",
    )
    p_fuse.add_argument("--gold", help="gold CSV for fusion accuracy")
    p_fuse.add_argument(
        "--max-rounds", type=int, default=12,
        help="fusion round cap (default 12)",
    )
    p_fuse.add_argument(
        "--truths", type=int, default=0, metavar="N", help="print first N fused truths"
    )
    p_fuse.add_argument(
        "--store",
        metavar="DIR",
        help="also publish every round into this verdict-store directory "
        "(created if missing): round 1 as a full snapshot, later rounds "
        "as deltas over it; read it back with `query`",
    )
    _add_params(p_fuse)
    _add_parallel(p_fuse)
    _add_fusion_method(p_fuse)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_bench = sub.add_parser(
        "bench", help="run the method grid (Table VI/VII style) on a claims file"
    )
    p_bench.add_argument("claims")
    p_bench.add_argument("--gold", help="gold CSV for fusion accuracy")
    p_bench.add_argument(
        "--methods",
        help="comma-separated method list (default: the Table VI grid)",
    )
    p_bench.add_argument("--sample-fraction", type=float, default=0.1)
    _add_params(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_query = sub.add_parser(
        "query", help="query a published verdict store (no detection run)"
    )
    p_query.add_argument("store", help="verdict-store directory")
    p_query.add_argument(
        "--pair",
        nargs=2,
        metavar=("S1", "S2"),
        help="verdict for a source pair (ids or published labels)",
    )
    p_query.add_argument(
        "--item",
        metavar="ITEM",
        help="fused truth + provenance for an item (id or published name)",
    )
    p_query.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="K",
        help="print the K most-copying sources",
    )
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="long-running streaming service: ingest claim deltas over "
        "HTTP, re-fuse in micro-batched epochs, publish every epoch to "
        "a verdict store, stream updates over SSE",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8731,
        help="bind port (0 picks a free one and prints it)",
    )
    p_serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="verdict-store directory every epoch publishes into "
        "(default: a fresh temporary directory, printed at startup)",
    )
    p_serve.add_argument(
        "--seed-claims",
        default=None,
        metavar="CSV",
        help="claims file to ingest as epoch 1 before accepting traffic",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=512,
        metavar="N",
        help="pending deltas that trigger an immediate epoch (default 512)",
    )
    p_serve.add_argument(
        "--max-delay",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="hard staleness bound: an epoch flushes at most this long "
        "after its first pending delta (default 0.5)",
    )
    p_serve.add_argument(
        "--debounce",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="quiet period a bursty source must hold before an early "
        "flush (default 0.05; capped at --max-delay)",
    )
    p_serve.add_argument(
        "--max-rounds", type=int, default=12,
        help="fusion round cap per epoch (default 12)",
    )
    p_serve.add_argument(
        "--cold-epochs",
        action="store_true",
        help="re-fuse every epoch from uniform accuracies instead of "
        "warm-starting from the previous epoch (slower, but each epoch "
        "is bit-identical to a batch run over the accumulated claims)",
    )
    _add_params(p_serve)
    _add_fusion_method(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "cluster-worker",
        help="run a cluster worker: scans the partitions a driver running "
        "detect/fuse --executor remote ships and answers each with its partial",
    )
    p_worker.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: the kernel picks a free one, printed "
        "on startup)",
    )
    p_worker.set_defaults(func=_cmd_cluster_worker)

    p_conf = sub.add_parser(
        "conformance",
        help="differential grid fuzzing of every backend/executor "
        "configuration against the pure-Python reference",
    )
    p_conf.add_argument(
        "--grid",
        # Keep in sync with repro.conformance.engine.GRIDS — hardcoded
        # so building the parser never imports the conformance engine
        # (every other subcommand would pay that startup cost).
        choices=["full", "smoke"],
        default="full",
        help="configuration grid: 'smoke' (PR-time) or 'full' (nightly)",
    )
    p_conf.add_argument(
        "--smoke",
        action="store_true",
        help="shorthand for --grid smoke (with the smoke default of "
        "240 cases)",
    )
    p_conf.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="total (world, configuration) cases to run "
        "(default: 240 smoke / 2000 full)",
    )
    p_conf.add_argument(
        "--seed", type=int, default=7, help="world-stream seed (replayable)"
    )
    p_conf.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="directory to write shrunk divergence fixtures into "
        "(e.g. tests/data/corpus; omitted = don't persist)",
    )
    p_conf.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the machine-readable JSON report here",
    )
    p_conf.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip world minimisation on divergence (faster triage)",
    )
    p_conf.set_defaults(func=_cmd_conformance)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
