"""Command-line interface: ``python -m repro <command>``.

Regenerates any published artefact from the terminal without writing code:

* ``datasets`` — list the 13 archive datasets with their Table III specs;
* ``techniques`` — list every registered augmentation technique;
* ``taxonomy`` — print the Figure-1 tree with implementation markers;
* ``table3`` — regenerate Table III (measured vs paper);
* ``evaluate`` — run one (dataset, model, technique) protocol cell;
* ``grid`` — run the Table IV/V grid on selected datasets;
* ``figure`` — render one of Figures 2-6 as an ASCII scatter;
* ``train`` — fit a classifier and publish it to a model registry;
* ``predict`` — classify series with a registry model, in process;
* ``serve`` — start the HTTP prediction server over a registry;
* ``stream`` — replay a sample stream against a served model (NDJSON);
* ``adapt`` — run the drift→retrain→canary→promote loop on a stream;
* ``scenarios`` — replay scenario worlds and score the loop's budgets;
* ``trace`` — dump a running server's flight recorder (recent/slowest
  request traces from ``GET /v1/debug/traces``);
* ``audit`` — replay a decision-audit journal (JSONL) and print the
  decisions it reconstructs.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Data Augmentation for "
                    "Multivariate Time Series Classification' (ICDE 2024)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the 13 archive datasets")
    commands.add_parser("techniques", help="list registered augmentation techniques")
    commands.add_parser("taxonomy", help="print the Figure-1 taxonomy tree")
    table3 = commands.add_parser("table3", help="regenerate Table III")
    table3.add_argument("--scale", choices=("small", "full"), default="small")

    evaluate = commands.add_parser("evaluate", help="run one protocol cell")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--technique", default=None,
                          help="augmenter name (omit for the baseline)")
    evaluate.add_argument("--model", choices=("rocket", "inceptiontime"), default="rocket")
    evaluate.add_argument("--runs", type=int, default=3)
    evaluate.add_argument("--kernels", type=int, default=500)
    evaluate.add_argument("--seed", type=int, default=0)

    grid = commands.add_parser("grid", help="run a Table IV/V-style grid")
    grid.add_argument("--datasets", nargs="+", default=None)
    grid.add_argument("--model", choices=("rocket", "inceptiontime"), default="rocket")
    grid.add_argument("--techniques", nargs="+",
                      default=["noise1", "noise3", "noise5", "smote"])
    grid.add_argument("--runs", type=int, default=2)
    grid.add_argument("--kernels", type=int, default=300)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--scale", choices=("small", "full"), default="small")
    grid.add_argument("--jobs", type=int, default=1,
                      help="worker processes; results are identical for any value")
    grid.add_argument("--checkpoint", default=None,
                      help="JSON-lines file recording completed cells")
    grid.add_argument("--resume", action="store_true",
                      help="continue an interrupted grid from --checkpoint")

    figure = commands.add_parser("figure", help="render Figure 2-6 as ASCII")
    figure.add_argument("number", type=int, choices=(2, 3, 4, 5, 6))

    fidelity = commands.add_parser(
        "fidelity", help="audit a technique's synthetic-data quality"
    )
    fidelity.add_argument("dataset")
    fidelity.add_argument("--technique", default="smote")
    fidelity.add_argument("--label", type=int, default=None,
                          help="class to audit (default: largest class)")
    fidelity.add_argument("--seed", type=int, default=0)

    train = commands.add_parser(
        "train", help="train a classifier and publish it to a model registry"
    )
    train.add_argument("dataset")
    train.add_argument("--registry", required=True, help="registry root directory")
    train.add_argument("--name", default=None,
                       help="registry model name (default: <dataset>-<model>)")
    train.add_argument("--model", choices=("rocket", "minirocket", "inceptiontime"),
                       default="rocket")
    train.add_argument("--technique", default=None,
                       help="balance the training set with this augmenter first")
    train.add_argument("--kernels", type=int, default=500,
                       help="ROCKET kernel budget")
    train.add_argument("--features", type=int, default=2000,
                       help="MiniRocket feature budget")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--scale", choices=("small", "full"), default="small")
    train.add_argument("--tag", action="append", default=None,
                       help="tag the published version (repeatable)")
    train.add_argument("--infer-dtype", choices=("float32", "float64"),
                       default="float32",
                       help="compute policy recorded for serving; fitting "
                            "always runs float64 (float32 serves the fused "
                            "fast path within the documented tolerance)")

    predict = commands.add_parser(
        "predict", help="classify series with a registry model"
    )
    predict.add_argument("name", help="registry model name")
    predict.add_argument("--registry", required=True)
    predict.add_argument("--version", default=None,
                         help="version number or tag (default: latest)")
    source = predict.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None,
                        help="JSON file: one channels x length series, or a list of them")
    source.add_argument("--dataset", default=None,
                        help="classify a series from this archive dataset's test split")
    predict.add_argument("--index", type=int, default=0,
                         help="test-split series index (with --dataset)")
    predict.add_argument("--scale", choices=("small", "full"), default="small")

    serve = commands.add_parser(
        "serve", help="start the HTTP prediction server over a registry"
    )
    serve.add_argument("--registry", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 picks a free ephemeral port")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="micro-batch panel-size ceiling; a batch is "
                            "what is already queued, never waiting for more")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="bounded per-model request queue; overflow is "
                            "answered 429 (0 = unbounded)")
    serve.add_argument("--max-loaded-models", type=int, default=0,
                       help="LRU-evict loaded models beyond this many "
                            "(0 = unlimited)")
    serve.add_argument("--max-body-bytes", type=int, default=10_000_000,
                       help="refuse request bodies above this with 413 "
                            "(0 = unlimited)")
    serve.add_argument("--trace", action="store_true",
                       help="enable request tracing: per-stage spans land "
                            "in an in-memory flight recorder served at "
                            "GET /v1/debug/traces (see 'repro trace')")
    serve.add_argument("--trace-capacity", type=int, default=128,
                       help="completed traces the flight recorder retains "
                            "(plus the slowest 16; default 128)")
    serve.add_argument("--trace-export", default=None, metavar="PATH",
                       help="also append every finished span to this JSONL "
                            "file (implies --trace)")
    serve.add_argument("--access-log", action="store_true",
                       help="write one structured JSON line per request "
                            "to stderr")
    serve.add_argument("--infer-dtype", choices=("float32", "float64"),
                       default=None,
                       help="override every model's published compute "
                            "policy (default: honour metadata, float32 "
                            "when unrecorded)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork this many worker processes behind one "
                            "port (shared-nothing; SO_REUSEPORT where "
                            "available); 1 = classic single-process server")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds a stopping worker may spend finishing "
                            "in-flight requests before it is killed")

    stream = commands.add_parser(
        "stream", help="replay a sample stream against a served model "
                       "(NDJSON over POST /v1/models/<name>/stream)"
    )
    stream.add_argument("name", help="served model name")
    stream.add_argument("--url", default="http://127.0.0.1:8080",
                        help="base URL of a running `repro serve`")
    _add_replay_arguments(stream)
    stream.add_argument("--no-labels", action="store_true",
                        help="withhold ground-truth labels (drift uses the "
                             "confidence EWMA)")
    stream.add_argument("--session", default=None, metavar="ID",
                        help="stream through a durable session: the client "
                             "resumes across disconnects and worker deaths "
                             "with no window lost or repeated (default id: "
                             "a fresh random one)")
    stream.add_argument("--resume", action="store_true",
                        help="with --session: re-attach the named session "
                             "where it stopped instead of requiring a fresh "
                             "one")
    stream.add_argument("--quiet", action="store_true",
                        help="print only the summary line")

    adapt = commands.add_parser(
        "adapt", help="score a stream in process and run the full "
                      "adaptation loop: drift flag -> retrain -> canary "
                      "-> shadow -> promote/rollback"
    )
    adapt.add_argument("name", help="registry model name")
    adapt.add_argument("--registry", required=True)
    _add_replay_arguments(adapt)
    adapt.add_argument("--no-labels", action="store_true",
                       help="withhold ground-truth labels (drift uses the "
                            "confidence EWMA; retraining self-trains on "
                            "predictions; promotion uses the confidence "
                            "criterion)")
    adapt.add_argument("--drift-threshold", type=float, default=0.35,
                       help="accuracy-drop flag threshold")
    adapt.add_argument("--confidence-threshold", type=float, default=0.08,
                       help="confidence-drop flag threshold (unlabelled "
                            "streams)")
    adapt.add_argument("--warmup", type=int, default=10,
                       help="windows before the monitor may flag")
    adapt.add_argument("--persistence", type=int, default=5,
                       help="consecutive exceedances the confidence "
                            "signal needs")
    adapt.add_argument("--collect-windows", type=int, default=48,
                       help="post-flag windows gathered before retraining")
    adapt.add_argument("--shadow-windows", type=int, default=24,
                       help="live comparisons before promote/rollback")
    adapt.add_argument("--cooldown", type=int, default=50,
                       help="windows to ignore flags after a decision")
    adapt.add_argument("--audit-journal", default=None, metavar="PATH",
                       help="append every drift flag, retrain, shadow "
                            "verdict and promote/rollback decision (with "
                            "evidence) to this JSONL journal; replay it "
                            "with 'repro audit'")
    adapt.add_argument("--background", action="store_true",
                       help="retrain off-thread (production behavior); the "
                            "default trains inline so short demo streams "
                            "reach a decision deterministically")
    adapt.add_argument("--quiet", action="store_true",
                       help="print only decision and summary lines")

    scenarios = commands.add_parser(
        "scenarios", help="replay scenario worlds through the full "
                          "stream -> drift -> canary loop and score "
                          "detection delay, false flags and recovery "
                          "against each world's budget"
    )
    scenarios.add_argument("--list", action="store_true", dest="list_worlds",
                           help="list registered worlds and exit")
    scenarios.add_argument("--worlds", nargs="+", default=None,
                           metavar="WORLD",
                           help="world names to replay (default: all)")
    scenarios.add_argument("--seed", type=int, default=0,
                           help="master seed (worlds are bit-deterministic "
                                "per seed)")
    scenarios.add_argument("--series", type=int, default=None,
                           help="stream length override, in series")
    scenarios.add_argument("--json", default=None, metavar="PATH",
                           help="also write the suite report to this file")
    scenarios.add_argument("--journal", default=None, metavar="PATH",
                           help="append every replay's audit events (drift "
                                "flags, retrains, shadow verdicts, "
                                "decisions) to this JSONL journal")
    scenarios.add_argument("--quiet", action="store_true",
                           help="print only the per-world verdict lines")

    trace = commands.add_parser(
        "trace", help="dump a running server's flight recorder: the "
                      "recent (or slowest) request traces with their "
                      "per-stage spans, from GET /v1/debug/traces"
    )
    trace.add_argument("--url", default="http://127.0.0.1:8080",
                       help="server base URL (default http://127.0.0.1:8080)")
    trace.add_argument("--limit", type=int, default=10,
                       help="traces to fetch (default 10)")
    trace.add_argument("--slowest", action="store_true",
                       help="fetch the slowest retained traces instead of "
                            "the most recent")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="print the raw JSON payload instead of the "
                            "span tree rendering")

    audit = commands.add_parser(
        "audit", help="replay a decision-audit journal (JSONL) offline "
                      "and print the drift flags, retrains and "
                      "promote/rollback decisions it reconstructs"
    )
    audit.add_argument("path", help="journal file written by "
                                    "'repro adapt --audit-journal', "
                                    "'repro scenarios --journal' or an "
                                    "AuditJournal")
    audit.add_argument("--kind", default=None,
                       help="print only events of this kind (drift_flag, "
                            "retrain, shadow_verdict, promotion, ...)")
    audit.add_argument("--events", action="store_true",
                       help="print every event line, not just the replay "
                            "summary")
    audit.add_argument("--json", action="store_true", dest="as_json",
                       help="print the replay summary as one JSON object")
    return parser


def _add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    """The sample source and windowing flags shared by ``stream`` and
    ``adapt``: both replay a source sample by sample through a scorer."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", default=None,
                        help="replay this archive dataset's test split")
    source.add_argument("--input", default=None,
                        help="JSON file: a panel, or one channels x length "
                             "series, replayed sample by sample")
    source.add_argument("--synthetic-like", default=None, metavar="DATASET",
                        help="stream fresh series from the dataset's own "
                             "generator (supports --shift-at)")
    parser.add_argument("--window", type=int, default=None,
                        help="window length (default: the source's series "
                             "length)")
    parser.add_argument("--hop", type=int, default=None,
                        help="samples between windows (default: window — "
                             "tumbling)")
    parser.add_argument("--version", default=None,
                        help="model version number or tag to score with "
                             "(default: latest)")
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--series", type=int, default=50,
                        help="series count for --synthetic-like")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed for --synthetic-like")
    parser.add_argument("--shift-at", type=int, default=None,
                        help="induce a concept shift (prototype swap) after "
                             "this many samples (--synthetic-like only)")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after this many samples")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "datasets": _cmd_datasets,
        "techniques": _cmd_techniques,
        "taxonomy": _cmd_taxonomy,
        "table3": _cmd_table3,
        "evaluate": _cmd_evaluate,
        "grid": _cmd_grid,
        "figure": _cmd_figure,
        "fidelity": _cmd_fidelity,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
        "adapt": _cmd_adapt,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
        "audit": _cmd_audit,
    }[args.command]
    return handler(args)


def _cmd_datasets(args) -> int:
    from .data.archive import UEA_IMBALANCED_SPECS

    print(f"{'dataset':24s} {'classes':>7s} {'train':>6s} {'dim':>5s} "
          f"{'length':>7s} {'ID':>6s} {'miss':>5s}")
    for spec in UEA_IMBALANCED_SPECS:
        print(f"{spec.name:24s} {spec.n_classes:7d} {spec.train_size:6d} "
              f"{spec.dim:5d} {spec.length:7d} {spec.im_ratio:6.2f} {spec.prop_miss:5.2f}")
    return 0


def _cmd_techniques(args) -> int:
    from .augmentation import available_augmenters, make_augmenter

    for name in available_augmenters():
        taxonomy = " / ".join(make_augmenter(name).taxonomy) or "composition"
        print(f"{name:20s} {taxonomy}")
    return 0


def _cmd_taxonomy(args) -> int:
    from .taxonomy import render_taxonomy

    print(render_taxonomy())
    return 0


def _cmd_table3(args) -> int:
    from .experiments.tables import render_table3_characteristics

    print(render_table3_characteristics(scale=args.scale))
    return 0


def _model_spec(args):
    from .experiments import inceptiontime_spec, rocket_spec

    if args.model == "rocket":
        return rocket_spec(args.kernels)
    return inceptiontime_spec()


def _cmd_evaluate(args) -> int:
    from .data.archive import load_dataset
    from .experiments import evaluate

    train, test = load_dataset(args.dataset, scale="small")
    result = evaluate(train, test, _model_spec(args), args.technique,
                      n_runs=args.runs, seed=args.seed)
    print(f"{result.dataset} / {result.model} / {result.technique}: "
          f"{100 * result.mean_accuracy:.2f}% "
          f"(+/- {100 * result.std_accuracy:.2f} over {args.runs} runs)")
    return 0


def _cmd_grid(args) -> int:
    from .experiments import render_accuracy_table, run_grid, summarize_findings

    try:
        grid = run_grid(_model_spec(args), datasets=args.datasets,
                        techniques=tuple(args.techniques), n_runs=args.runs,
                        scale=args.scale, seed=args.seed, verbose=True,
                        jobs=args.jobs, checkpoint=args.checkpoint,
                        resume=args.resume)
    except ValueError as error:
        # Checkpoint conflicts and bad flag values are user errors, not bugs.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_accuracy_table(grid))
    summary = summarize_findings(grid)
    print(f"\nimproved datasets: {summary.improved_datasets}/{summary.n_datasets}; "
          f"average improvement {summary.average_improvement_percent:+.2f}%")
    return 0


def _cmd_figure(args) -> int:
    from .experiments import (
        ascii_scatter,
        figure2_noise,
        figure3_smote,
        figure4_timegan,
        figure5_range,
        figure6_ohit,
    )

    builders = {2: figure2_noise, 3: figure3_smote, 4: figure4_timegan,
                5: figure5_range, 6: figure6_ohit}
    print(ascii_scatter(builders[args.number]()))
    return 0


def _cmd_fidelity(args) -> int:
    from .augmentation import make_augmenter
    from .data.archive import load_dataset
    from .experiments import fidelity_report

    train, _ = load_dataset(args.dataset, scale="small")
    label = args.label if args.label is not None else int(train.class_counts().argmax())
    X_class = train.series_of_class(label)
    X_other = train.X[train.y != label]
    report = fidelity_report(
        make_augmenter(args.technique), X_class, seed=args.seed, X_other=X_other
    )
    print(f"{args.dataset} class {label} ({len(X_class)} series):")
    print(f"  {report.as_row()}")
    print("  (disc: 0 = indistinguishable from real, 0.5 = trivially separable;"
          " tstr/trtr: 1 = trains a forecaster as well as real data)")
    return 0


def _build_classifier(args, model_rng):
    # The table a default retrain rebuilds from, so a canary has its
    # stable model's architecture; the flags set the ROCKET budgets.
    from .adaptation.controller import _SERVING_BUDGETS
    from .classifiers import make_classifier

    flags = {"rocket": {"num_kernels": args.kernels},
             "minirocket": {"num_features": args.features}}
    budget = {**_SERVING_BUDGETS[args.model], **flags.get(args.model, {})}
    return make_classifier(args.model, seed=model_rng, **budget)


def _cmd_train(args) -> int:
    import numpy as np

    from .augmentation import augment_to_balance, make_augmenter
    from .data.archive import load_dataset
    from .experiments import cell_seeds
    from .serving import (
        PROTOCOL_PREPROCESSING,
        ModelRegistry,
        model_metadata,
        validate_reference,
    )

    name = args.name or f"{args.dataset}-{args.model}"
    try:
        # Fail on a bad name/tag now, not after minutes of training.
        validate_reference(name, tuple(args.tag or ()))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        train, test = load_dataset(args.dataset, scale=args.scale)
        technique = args.technique or "baseline"
        # The same seed derivation as grid run 0, so a published model is
        # the model that grid cell trains.
        model_seed, aug_seed = cell_seeds(args.seed, args.dataset, technique, 0)
        synth_ready = None
        if args.technique is not None:
            augmented = augment_to_balance(train, make_augmenter(args.technique),
                                           rng=np.random.default_rng(aug_seed))
            if augmented.n_series > train.n_series:
                tail = augmented.subset(np.arange(train.n_series, augmented.n_series))
                synth_ready = tail.preprocess()
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    train_ready = train.preprocess()
    test_ready = test.preprocess()

    model = _build_classifier(args, np.random.default_rng(model_seed))
    if synth_ready is not None and args.model == "inceptiontime":
        # Synthetic samples join only the training part of the internal
        # validation split (Sec. IV-D) — the same path the grid takes.
        model.fit(train_ready.X, train_ready.y,
                  X_extra=synth_ready.X, y_extra=synth_ready.y)
    elif synth_ready is not None:
        model.fit(np.concatenate([train_ready.X, synth_ready.X], axis=0),
                  np.concatenate([train_ready.y, synth_ready.y]))
    else:
        model.fit(train_ready.X, train_ready.y)
    accuracy = model.score(test_ready.X, test_ready.y)

    metadata = model_metadata(
        model, dataset=args.dataset, technique=technique, seed=args.seed,
        scale=args.scale, test_accuracy=accuracy,
        preprocessing=PROTOCOL_PREPROCESSING,
        # Explicit for every family: deep models don't expose a transform
        # fit shape, but the serving contract is the trained panel's shape.
        input_shape=list(train_ready.X.shape[1:]),
    )
    from .backend import ComputePolicy

    record = ModelRegistry(args.registry).publish(
        model, name, metadata=metadata, tags=tuple(args.tag or ()),
        compute_policy=ComputePolicy(dtype=args.infer_dtype),
        # The publish-time parity sweep runs on the (preprocessed) test
        # panel: the recorded policy is only written if labels match the
        # float64 reference bit-for-bit and probabilities stay within
        # tolerance on real data.
        parity_panel=test_ready.X)
    tags = f" tags={','.join(record.tags)}" if record.tags else ""
    print(f"published {record.name}:{record.version}{tags} "
          f"(digest {record.digest}, test accuracy {100 * accuracy:.2f}%)")
    return 0


def _cmd_predict(args) -> int:
    import json

    import numpy as np

    from .serving import ModelRegistry, PredictionService, ServingError

    if args.input is not None:
        try:
            with open(args.input) as handle:
                instances = np.asarray(json.load(handle), dtype=np.float64)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"error: cannot read series from {args.input}: {error}",
                  file=sys.stderr)
            return 2
        truth = None
    else:
        from .data.archive import load_dataset

        try:
            _, test = load_dataset(args.dataset, scale=args.scale)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        if not 0 <= args.index < test.n_series:
            print(f"error: --index {args.index} out of range for "
                  f"{test.n_series} test series", file=sys.stderr)
            return 2
        instances = test.X[args.index]
        truth = int(test.y[args.index])

    service = PredictionService(ModelRegistry(args.registry))
    try:
        result = service.predict(args.name, instances, args.version)
    except ServingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        service.close()
    suffix = f" (true label {truth})" if truth is not None else ""
    labels = result["labels"]
    shown = labels[0] if len(labels) == 1 else labels
    print(f"{result['model']}:{result['version']} -> {shown}{suffix}")
    return 0


def _replay(args):
    """``(samples, window)`` for the replay flags, samples cut at
    ``--limit``; ``None`` once a bad source is reported (exit 2)."""
    import json

    try:
        source, default_window = _stream_source(args)
    except (KeyError, OSError, json.JSONDecodeError, ValueError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"error: {message}", file=sys.stderr)
        return None

    def samples():
        for sample in source:
            if args.limit is not None and sample.t >= args.limit:
                return
            yield sample

    return samples(), args.window or default_window


def _stream_source(args):
    """Build the (source, default_window) pair for :func:`_replay`."""
    import json

    import numpy as np

    from .streaming import ReplaySource, SyntheticSource

    if args.dataset is not None:
        from .data.archive import load_dataset

        _, test = load_dataset(args.dataset, scale=args.scale)
        return ReplaySource(test.X, test.y), test.X.shape[2]
    if args.input is not None:
        with open(args.input) as handle:
            X = np.asarray(json.load(handle), dtype=np.float64)
        if X.ndim == 2:
            X = X[None]  # one channels x length series
        return ReplaySource(X), X.shape[2]
    from .data.archive import dataset_generator

    generator = dataset_generator(args.synthetic_like, scale=args.scale)
    source = SyntheticSource(generator=generator, n_series=args.series,
                             seed=args.seed, shift_at=args.shift_at)
    return source, generator.length


def _cmd_stream(args) -> int:
    import json
    import urllib.parse

    from .streaming import StreamRequestError, stream_session, stream_windows

    url = urllib.parse.urlsplit(args.url)
    if url.hostname is None or url.port is None:
        print(f"error: --url needs the form http://host:port; got {args.url}",
              file=sys.stderr)
        return 2
    if args.resume and args.session is None:
        print("error: --resume requires --session", file=sys.stderr)
        return 2
    replay = _replay(args)
    if replay is None:
        return 2
    replayed, window = replay
    samples = ((sample.values, None if args.no_labels else sample.label,
                sample.t) for sample in replayed)

    failed = False
    try:
        if args.session is not None:
            # Durable: the client buffers unacknowledged samples and
            # resumes across disconnects/worker deaths with no window
            # lost or repeated; --resume re-attaches a session an
            # earlier process left behind, replaying its cached lines.
            events = stream_session(
                url.hostname, url.port, args.name, samples,
                window=window, hop=args.hop, version=args.version,
                session=args.session,
                resume_from=0 if args.resume else None)
        else:
            events = stream_windows(url.hostname, url.port, args.name,
                                    samples, window=window, hop=args.hop,
                                    version=args.version)
        for event in events:
            if event.get("kind") == "error":
                failed = True
                print(f"error: {event.get('error')}", file=sys.stderr)
            elif event.get("kind") == "summary" or not args.quiet:
                print(json.dumps(event))
    except (StreamRequestError, ConnectionError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _cmd_adapt(args) -> int:
    """Drive the in-process adaptation loop over a replayed/synthetic stream.

    The stream is scored window by window with an
    :class:`~repro.adaptation.AdaptationController` hooked into the
    scorer, through :func:`~repro.adaptation.adapt_stream`: confirmed
    drift triggers a retrain, the canary is published and
    shadow-scored, and the promote/rollback decision is printed as a
    ``{"kind": "decision", ...}`` line.  After a promotion the scorer
    swaps to the promoted version *in place* and the controller rebases
    onto it — no window is double-scored or skipped across the switch,
    and the rest of the stream is scored by the adapted model (the
    self-healing path, end to end).  Each swap is printed as a
    ``{"kind": "swap", ...}`` line.  With the default inline retrain
    the output is a function of the arguments alone.
    """
    import json

    from .adaptation import (AdaptationController, AdaptationDecision,
                             adapt_stream)
    from .observability import AuditJournal
    from .serving import ModelRegistry, PredictionService, ServingError
    from .streaming import DriftMonitor, StreamScorer, WindowResult

    replay = _replay(args)
    if replay is None:
        return 2
    samples, window = replay
    journal = AuditJournal(args.audit_journal) if args.audit_journal else None
    service = PredictionService(ModelRegistry(args.registry), max_queue=1024)

    def emit(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    try:
        controller = AdaptationController(
            service, args.name, version=args.version,
            collect_windows=args.collect_windows,
            shadow_windows=args.shadow_windows,
            cooldown_windows=args.cooldown,
            background=args.background, journal=journal,
        )
        monitor = DriftMonitor(
            threshold=args.drift_threshold,
            confidence_threshold=args.confidence_threshold,
            warmup=args.warmup, persistence=args.persistence,
        )
        with StreamScorer(service, args.name, window=window,
                          hop=args.hop, version=args.version,
                          monitor=monitor, adapter=controller,
                          journal=journal) as scorer:
            labelled = ((sample.values,
                         None if args.no_labels else sample.label, sample.t)
                        for sample in samples)
            for event in adapt_stream(scorer, labelled):
                if isinstance(event, WindowResult):
                    if not args.quiet:
                        emit(event.as_dict())
                elif isinstance(event, AdaptationDecision):
                    emit(event.as_dict())
                else:
                    emit({"kind": "swap", "version": event.version,
                          "window": scorer.windows})
        controller.wait(timeout=60.0)
        stats = controller.stats
        emit({
            "kind": "summary", "model": args.name, "windows": scorer.windows,
            "shifts": scorer.shifts, "retrainings": stats.retrainings.value,
            "promotions": stats.promotions.value,
            "rollbacks": stats.rollbacks.value,
            "serving_version": scorer.version,
            "state": controller.state,
        })
        errors = list(dict.fromkeys(controller.errors))
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1 if errors else 0
    except (KeyError, ServingError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        service.close()
        if journal is not None:
            journal.close()


def _cmd_scenarios(args) -> int:
    """Replay scenario worlds and score the loop against their budgets.

    Each world is a deterministic stream universe with known truth (see
    ``docs/scenarios.md``); the harness replays it through the real
    ``StreamScorer -> DriftMonitor -> AdaptationController`` loop and
    prints one verdict line per world plus a suite summary.  Exits 1
    when any world blows its budget — the CI regression contract.
    """
    import json
    from pathlib import Path

    from .data.scenarios import available_worlds, make_world
    from .experiments import run_scenario

    if args.list_worlds:
        for name in available_worlds():
            world = make_world(name)
            print(f"{name:26s} {world.kind:10s} {world.description}")
        return 0
    names = args.worlds if args.worlds is not None else available_worlds()
    unknown = sorted(set(names) - set(available_worlds()))
    if unknown:
        print(f"error: unknown world(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    journal = None
    if args.journal:
        from .observability import AuditJournal

        journal = AuditJournal(args.journal)
    reports = []
    for name in names:
        report = run_scenario(name, seed=args.seed, n_series=args.series,
                              journal=journal)
        reports.append(report)
        verdict = "PASS" if report.passed else "FAIL"
        detail = [f"windows={report.windows}"]
        if report.detected is not None:
            delay = report.detection_delay
            detail.append("delay=" + ("miss" if delay is None else str(delay)))
        detail.append(f"false_flags={report.false_flags}")
        if report.final_accuracy is not None:
            detail.append(f"final_acc={report.final_accuracy:.3f}")
        if report.promotions or report.rollbacks:
            detail.append(f"promotions={report.promotions}")
            detail.append(f"rollbacks={report.rollbacks}")
        print(f"{verdict} {name:26s} " + " ".join(detail), flush=True)
        if not args.quiet:
            print(json.dumps(report.as_dict()), flush=True)
    suite = {
        "seed": args.seed,
        "worlds": [report.as_dict() for report in reports],
        "failures": [report.world for report in reports if not report.passed],
        "passed": all(report.passed for report in reports),
    }
    if journal is not None:
        journal.close()
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(suite, indent=2) + "\n", encoding="utf-8")
    print(f"{'ok' if suite['passed'] else 'FAILED'}: "
          f"{len(reports) - len(suite['failures'])}/{len(reports)} worlds "
          f"within budget", flush=True)
    return 0 if suite["passed"] else 1


def _cmd_serve(args) -> int:
    import signal
    import threading

    policy = None
    if args.infer_dtype is not None:
        from .backend import ComputePolicy

        policy = ComputePolicy(dtype=args.infer_dtype)
    knobs = dict(host=args.host, port=args.port, max_batch=args.max_batch,
                 quiet=not args.verbose, max_queue=args.max_queue,
                 max_loaded_models=args.max_loaded_models,
                 max_body_bytes=args.max_body_bytes,
                 access_log=args.access_log, compute_policy=policy)

    if args.workers > 1:
        # Pre-fork pool: the supervisor (this process) owns the port and
        # the workers; SIGTERM/SIGINT forward to the workers, which drain
        # in-flight requests before exiting.  Tracing is configured in
        # each worker (per-worker export paths), never here.
        from .serving import ServingPool

        pool = ServingPool(
            args.registry, workers=args.workers,
            drain_timeout=args.drain_timeout, trace=args.trace,
            trace_capacity=args.trace_capacity,
            trace_export=args.trace_export, **knobs)
        pool.start()

        def _pool_stop(signum, frame):
            pool.stop()

        signal.signal(signal.SIGTERM, _pool_stop)
        signal.signal(signal.SIGINT, _pool_stop)
        print(f"serving registry {args.registry} on "
              f"http://{args.host}:{pool.port} with {args.workers} workers",
              flush=True)
        try:
            while not pool.wait(timeout=1.0):
                pass
        except KeyboardInterrupt:
            pool.stop()
            pool.wait(args.drain_timeout + 5.0)
        finally:
            pool.close()
        return 0

    from .serving import create_server

    if args.trace or args.trace_export:
        from .observability import configure_tracing

        configure_tracing(enabled=True, capacity=args.trace_capacity,
                          export_path=args.trace_export)
    server = create_server(args.registry, **knobs)

    # Graceful stop on SIGTERM as well as Ctrl-C: shutdown() must run off
    # the serving thread (calling it from the handler would deadlock —
    # it waits for the serve_forever loop this very thread is running).
    def _stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(f"serving registry {args.registry} on http://{args.host}:{server.port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _cmd_trace(args) -> int:
    """Fetch and render a running server's flight-recorder traces.

    Talks to ``GET /v1/debug/traces`` on the server started by ``repro
    serve --trace`` and prints each retained trace as an indented span
    tree (name, duration, attributes), newest first — or the slowest
    retained ones with ``--slowest``.  ``--json`` dumps the raw payload
    for scripts.
    """
    import json
    import urllib.error
    import urllib.parse
    import urllib.request

    base = urllib.parse.urlsplit(args.url)
    if base.hostname is None or base.port is None:
        print(f"error: --url needs the form http://host:port; got {args.url}",
              file=sys.stderr)
        return 2
    query = f"limit={int(args.limit)}" + ("&slowest=1" if args.slowest else "")
    url = f"http://{base.hostname}:{base.port}/v1/debug/traces?{query}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(payload, indent=2))
        return 0
    if not payload.get("enabled"):
        print("tracing is disabled on this server "
              "(start it with 'repro serve --trace')")
        return 1
    stats = payload.get("stats", {})
    print(f"traces: {stats.get('completed', 0)} completed, "
          f"{stats.get('recent', 0)} retained, "
          f"{stats.get('open', 0)} open")
    for trace in payload.get("traces", []):
        _print_trace(trace)
    return 0


def _print_trace(trace: dict) -> None:
    """Render one flight-recorder trace entry as an indented span tree."""
    print(f"\ntrace {trace['trace_id']}  {trace['root']}  "
          f"{trace['duration_ms']:.2f}ms  ({len(trace['spans'])} spans)")
    spans = trace["spans"]
    children: dict[str | None, list[dict]] = {}
    ids = {span["span_id"] for span in spans}
    for span in spans:
        # A parent outside the recorded set (evicted or cross-thread)
        # renders its orphan subtree at the top level.
        parent = span.get("parent_id")
        children.setdefault(parent if parent in ids else None, []).append(span)

    def render(parent: str | None, depth: int) -> None:
        for span in sorted(children.get(parent, []),
                           key=lambda item: item["start"]):
            attributes = " ".join(
                f"{key}={value}"
                for key, value in sorted(span.get("attributes", {}).items()))
            print(f"  {'  ' * depth}{span['name']:24s} "
                  f"{span['duration_ms']:9.3f}ms  {attributes}".rstrip())
            render(span["span_id"], depth + 1)

    render(None, 0)


def _cmd_audit(args) -> int:
    """Replay a decision-audit journal offline and print what it proves.

    Reads the JSONL journal (schema-validating every line), folds it
    back into the decision history via
    :func:`~repro.observability.replay_decisions`, and prints the
    summary plus each promote/rollback decision.  Exits 2 on a missing
    or schema-invalid journal and 1 on an empty one — which is what the
    CI smoke job asserts against.
    """
    import json

    from .observability import read_journal, replay_decisions

    try:
        events = read_journal(args.path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {args.path} holds no audit events", file=sys.stderr)
        return 1
    if args.kind or args.events:
        for event in events:
            if args.kind and event.get("kind") != args.kind:
                continue
            print(json.dumps(event))
        return 0
    replay = replay_decisions(events)
    if args.as_json:
        print(json.dumps(replay))
        return 0
    print(f"{replay['events']} events, models: "
          f"{', '.join(replay['models']) or '-'}")
    print(f"drift_flags={replay['drift_flags']} "
          f"retrainings={replay['retrainings']} "
          f"retrain_failures={replay['retrain_failures']} "
          f"shadow_windows={replay['shadow_windows']} "
          f"promotions={replay['promotions']} "
          f"rollbacks={replay['rollbacks']}")
    for decision in replay["decisions"]:
        print(json.dumps(decision))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
