"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "CharacterTrajectories" in out
    assert out.count("\n") >= 14  # header + 13 rows


def test_techniques_command(capsys):
    assert main(["techniques"]) == 0
    out = capsys.readouterr().out
    assert "smote" in out and "timegan" in out


def test_taxonomy_command(capsys):
    assert main(["taxonomy"]) == 0
    assert "Preserving" in capsys.readouterr().out


def test_evaluate_command(capsys):
    code = main(["evaluate", "RacketSports", "--technique", "noise1",
                 "--runs", "1", "--kernels", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "RacketSports / rocket / noise1" in out
    assert "%" in out


def test_evaluate_baseline(capsys):
    main(["evaluate", "Epilepsy", "--runs", "1", "--kernels", "100"])
    assert "baseline" in capsys.readouterr().out


def test_grid_command(capsys):
    code = main(["grid", "--datasets", "Epilepsy", "--techniques", "noise1",
                 "--runs", "1", "--kernels", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "improved datasets" in out
    assert "Average Improvement" in out


def test_figure_command(capsys):
    assert main(["figure", "3"]) == 0
    assert "minority" in capsys.readouterr().out


def test_table3_command(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "EigenWorms" in out and "(paper)" in out


def test_fidelity_command(capsys):
    assert main(["fidelity", "RacketSports", "--technique", "smote"]) == 0
    out = capsys.readouterr().out
    assert "disc=" in out and "tstr/trtr=" in out


def test_train_publishes_registry_entry(tmp_path, capsys):
    registry = tmp_path / "registry"
    code = main(["train", "RacketSports", "--registry", str(registry),
                 "--kernels", "100", "--tag", "prod"])
    assert code == 0
    out = capsys.readouterr().out
    assert "published RacketSports-rocket:1" in out
    assert "test accuracy" in out

    from repro.serving import ModelRegistry

    record = ModelRegistry(registry).record("RacketSports-rocket", "prod")
    assert record.metadata["dataset"] == "RacketSports"
    assert record.metadata["technique"] == "baseline"
    assert record.metadata["preprocessing"] == "znormalize+impute"
    assert record.metadata["input_shape"] is not None


def test_train_minirocket_with_technique(tmp_path, capsys):
    registry = tmp_path / "registry"
    code = main(["train", "Epilepsy", "--registry", str(registry),
                 "--model", "minirocket", "--features", "84",
                 "--technique", "smote", "--name", "epi"])
    assert code == 0
    assert "published epi:1" in capsys.readouterr().out


def test_predict_matches_in_process_model(tmp_path, capsys):
    registry = tmp_path / "registry"
    main(["train", "RacketSports", "--registry", str(registry), "--kernels", "100"])
    capsys.readouterr()

    assert main(["predict", "RacketSports-rocket", "--registry", str(registry),
                 "--dataset", "RacketSports", "--index", "3"]) == 0
    out = capsys.readouterr().out

    from repro.data import load_dataset
    from repro.serving import ModelRegistry, prepare_panel

    model, _ = ModelRegistry(registry).load("RacketSports-rocket")
    _, test = load_dataset("RacketSports", scale="small")
    expected = model.predict(prepare_panel(test.X[3:4]))[0]
    assert f"-> {expected} (true label {test.y[3]})" in out


def test_predict_from_json_input(tmp_path, capsys):
    import json

    registry = tmp_path / "registry"
    main(["train", "RacketSports", "--registry", str(registry), "--kernels", "100"])
    capsys.readouterr()

    from repro.data import load_dataset

    _, test = load_dataset("RacketSports", scale="small")
    payload = tmp_path / "series.json"
    payload.write_text(json.dumps(test.X[:2].tolist()))
    assert main(["predict", "RacketSports-rocket", "--registry", str(registry),
                 "--input", str(payload)]) == 0
    assert "RacketSports-rocket:1 -> [" in capsys.readouterr().out


def test_predict_malformed_input_is_user_error(tmp_path, capsys):
    registry = tmp_path / "registry"
    main(["train", "RacketSports", "--registry", str(registry), "--kernels", "100"])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["predict", "RacketSports-rocket", "--registry", str(registry),
                 "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1, 2, 3], [1, 2]]")
    assert main(["predict", "RacketSports-rocket", "--registry", str(registry),
                 "--input", str(ragged)]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_invalid_name_or_tag_fails_before_training(tmp_path, capsys):
    registry = tmp_path / "registry"
    assert main(["train", "RacketSports", "--registry", str(registry),
                 "--tag", "2024"]) == 2
    assert "tag" in capsys.readouterr().err
    assert main(["train", "RacketSports", "--registry", str(registry),
                 "--name", "a/b"]) == 2
    assert "name" in capsys.readouterr().err
    assert not registry.exists()  # refused before any artifact was written


def test_train_inceptiontime_metadata_complete(tmp_path):
    """Deep models expose no transformer, but published metadata must still
    carry the label map and fit-time input shape."""
    from repro.serving import ModelRegistry

    registry = tmp_path / "registry"
    assert main(["train", "Epilepsy", "--registry", str(registry),
                 "--model", "inceptiontime"]) == 0
    record = ModelRegistry(registry).record("Epilepsy-inceptiontime")
    assert record.metadata["labels"] == [0, 1, 2, 3]
    assert record.metadata["input_shape"] is not None


def test_train_unknown_dataset_or_technique_is_user_error(tmp_path, capsys):
    registry = str(tmp_path / "registry")
    assert main(["train", "Racketsports", "--registry", registry]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", "RacketSports", "--registry", registry,
                 "--technique", "bogus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_publishes_the_grid_cell_model(tmp_path):
    """The published accuracy must equal the grid's (dataset, technique,
    run 0) cell at the same seed — same seeds, same training path."""
    import numpy as np

    from repro.augmentation import make_augmenter
    from repro.data import load_dataset
    from repro.experiments import cell_seeds, rocket_spec, run_single
    from repro.serving import ModelRegistry

    registry = tmp_path / "registry"
    assert main(["train", "Epilepsy", "--registry", str(registry),
                 "--kernels", "100", "--technique", "noise1"]) == 0
    published = ModelRegistry(registry).record("Epilepsy-rocket")

    train, test = load_dataset("Epilepsy", scale="small")
    model_seed, aug_seed = cell_seeds(0, "Epilepsy", "noise1", 0)
    expected = run_single(train, test, rocket_spec(100),
                          make_augmenter("noise1"),
                          model_seed=model_seed, aug_seed=aug_seed)
    assert np.isclose(published.metadata["test_accuracy"], expected)


def test_predict_unknown_model_is_user_error(tmp_path, capsys):
    assert main(["predict", "ghost", "--registry", str(tmp_path / "registry"),
                 "--dataset", "RacketSports"]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_index_out_of_range(tmp_path, capsys):
    registry = tmp_path / "registry"
    main(["train", "RacketSports", "--registry", str(registry), "--kernels", "100"])
    capsys.readouterr()
    assert main(["predict", "RacketSports-rocket", "--registry", str(registry),
                 "--dataset", "RacketSports", "--index", "9999"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_serve_end_to_end(tmp_path):
    """`repro train` then the server the `serve` command builds, over HTTP."""
    import json
    import threading
    import urllib.request

    registry = tmp_path / "registry"
    assert main(["train", "RacketSports", "--registry", str(registry),
                 "--kernels", "100"]) == 0

    from repro.data import load_dataset
    from repro.serving import ModelRegistry, create_server, prepare_panel

    server = create_server(str(registry), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(base + "/healthz") as response:
            assert json.load(response)["status"] == "ok"
        _, test = load_dataset("RacketSports", scale="small")
        request = urllib.request.Request(
            base + "/v1/models/RacketSports-rocket/predict",
            data=json.dumps({"series": test.X[0].tolist()}).encode(),
        )
        with urllib.request.urlopen(request) as response:
            body = json.load(response)
        model, _ = ModelRegistry(registry).load("RacketSports-rocket")
        assert body["label"] == int(model.predict(prepare_panel(test.X[:1]))[0])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


#: the adaptation-smoke arguments: a shifted synthetic stream whose
#: drift retrains, canaries and promotes within 150 series
ADAPT_ARGS = ["adapt", "RacketSports-rocket", "--synthetic-like",
              "RacketSports", "--series", "150", "--shift-at", "2000",
              "--collect-windows", "30", "--shadow-windows", "16"]


@pytest.fixture(scope="module")
def stable_registry(tmp_path_factory):
    """One RacketSports model tagged ``stable``; adapt runs on copies."""
    registry = tmp_path_factory.mktemp("stable") / "registry"
    assert main(["train", "RacketSports", "--registry", str(registry),
                 "--kernels", "150", "--tag", "stable"]) == 0
    return registry


def _adapt(stable_registry, registry, capsys, *extra):
    """Run ``repro adapt`` on *registry*, a fresh copy of the trained
    one; returns ``(exit code, stdout)``."""
    import shutil

    shutil.copytree(stable_registry, registry)
    capsys.readouterr()
    code = main([*ADAPT_ARGS, "--registry", str(registry), *extra])
    return code, capsys.readouterr().out


def test_adapt_end_to_end_promotes(stable_registry, tmp_path, capsys):
    """`repro adapt` on a shifted synthetic stream: the decision line and
    the summary record a published canary and its promotion."""
    import json

    registry = tmp_path / "registry"
    journal_path = tmp_path / "audit.jsonl"
    code, out = _adapt(stable_registry, registry, capsys, "--quiet",
                       "--audit-journal", str(journal_path))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    decisions = [line for line in lines if line["kind"] == "decision"]
    summary = lines[-1]
    assert len(decisions) == 1
    assert decisions[0]["action"] == "promote"
    assert decisions[0]["canary_version"] == 2
    assert summary["kind"] == "summary"
    assert summary["retrainings"] == 1 and summary["promotions"] == 1
    assert summary["serving_version"] == 2  # the stream switched models
    # The promotion reached the stream as an in-place swap (one swap
    # line, right after the decision, at the window after the one whose
    # shadow comparison decided), and no window was double-scored or
    # skipped across it: the summary counts exactly one tumbling window
    # per streamed series.
    swaps = [line for line in lines if line["kind"] == "swap"]
    assert len(swaps) == 1 and swaps[0]["version"] == 2
    assert lines.index(swaps[0]) == lines.index(decisions[0]) + 1
    assert summary["windows"] == 150  # one per series, none lost or repeated

    from repro.serving import ModelRegistry

    assert ModelRegistry(registry).record("RacketSports-rocket",
                                          "stable").version == 2

    # The audit journal replays offline to the same decision the loop
    # printed live, and `repro audit` accepts it as schema-valid.
    from repro.observability import read_journal, replay_decisions

    events = read_journal(journal_path)
    replay = replay_decisions(events)
    assert replay["promotions"] == 1 and replay["retrainings"] == 1
    assert replay["decisions"] == decisions
    promotion, = (event for event in events if event["kind"] == "promotion")
    assert swaps[0]["window"] \
        == promotion["evidence"]["shadow_indices"][-1] + 1
    capsys.readouterr()
    assert main(["audit", str(journal_path)]) == 0
    audit_out = capsys.readouterr().out
    assert "promotions=1" in audit_out
    assert json.loads(audit_out.strip().splitlines()[-1]) == decisions[0]


def test_adapt_output_is_byte_identical(stable_registry, tmp_path, capsys):
    """Two runs of one `repro adapt` on two copies of one registry print
    the same bytes, window lines included: each window resolves at the
    sample that completes it, so the swap lands right after the window
    whose observation decided, never wherever the batcher happened to
    be."""
    import json

    first_code, first = _adapt(stable_registry, tmp_path / "a", capsys)
    second_code, second = _adapt(stable_registry, tmp_path / "b", capsys)
    assert first_code == second_code == 0
    assert first == second
    lines = [json.loads(line) for line in first.splitlines()]
    kinds = [line["kind"] for line in lines]
    decided = kinds.index("decision")
    assert kinds[decided - 1] == "window" and kinds[decided + 1] == "swap"
    assert lines[decided + 1]["window"] == lines[decided - 1]["index"] + 1
    assert kinds.count("window") == lines[-1]["windows"] == 150


def test_adapt_unknown_model_is_user_error(tmp_path, capsys):
    assert main(["adapt", "missing", "--registry", str(tmp_path / "registry"),
                 "--synthetic-like", "RacketSports"]) == 2
    assert "error" in capsys.readouterr().err


def test_adapt_parser_defaults():
    args = build_parser().parse_args(
        ["adapt", "demo", "--registry", "r", "--synthetic-like", "Epilepsy"])
    assert args.collect_windows == 48
    assert args.shadow_windows == 24
    assert args.cooldown == 50
    assert args.confidence_threshold == 0.08
    assert args.background is False  # inline by default: deterministic demos


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--registry", "r"])
    assert args.port == 8080
    assert args.max_batch == 64
    # load-hardening knobs default to safe bounds
    assert args.max_queue == 1024
    assert args.max_loaded_models == 0
    assert args.max_body_bytes == 10_000_000
    assert args.access_log is False


def test_serve_parser_hardening_flags():
    args = build_parser().parse_args([
        "serve", "--registry", "r", "--max-queue", "32",
        "--max-loaded-models", "2", "--max-body-bytes", "4096", "--access-log",
    ])
    assert args.max_queue == 32
    assert args.max_loaded_models == 2
    assert args.max_body_bytes == 4096
    assert args.access_log is True


def test_trace_and_audit_parser_defaults():
    args = build_parser().parse_args(["trace"])
    assert args.url == "http://127.0.0.1:8080"
    assert args.limit == 10
    assert args.slowest is False and args.as_json is False
    args = build_parser().parse_args(["audit", "journal.jsonl", "--json"])
    assert args.path == "journal.jsonl"
    assert args.as_json is True and args.kind is None


def test_serve_parser_trace_flags():
    args = build_parser().parse_args(["serve", "--registry", "r"])
    assert args.trace is False and args.trace_export is None
    args = build_parser().parse_args([
        "serve", "--registry", "r", "--trace", "--trace-capacity", "32",
        "--trace-export", "spans.jsonl"])
    assert args.trace is True
    assert args.trace_capacity == 32
    assert args.trace_export == "spans.jsonl"


def test_audit_missing_and_empty_journals_fail(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "missing.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["audit", str(empty)]) == 1
    assert "error" in capsys.readouterr().err


def test_trace_unreachable_server_fails_cleanly(capsys):
    assert main(["trace", "--url", "http://127.0.0.1:9", "--limit", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_trace_bad_url_is_user_error(capsys):
    assert main(["trace", "--url", "not-a-url"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_figure_validates_number():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "7"])


REPLAY_FLAGS = ("dataset", "input", "synthetic_like", "window", "hop",
                "version", "scale", "series", "seed", "shift_at", "limit")


def test_stream_and_adapt_share_replay_flags():
    parser = build_parser()
    stream = parser.parse_args(["stream", "demo", "--dataset", "Epilepsy"])
    adapt = parser.parse_args(["adapt", "demo", "--registry", "r",
                               "--dataset", "Epilepsy"])
    for args in (stream, adapt):
        assert {flag: getattr(args, flag) for flag in REPLAY_FLAGS} == {
            "dataset": "Epilepsy", "input": None, "synthetic_like": None,
            "window": None, "hop": None, "version": None, "scale": "small",
            "series": 50, "seed": 0, "shift_at": None, "limit": None}
    given = ["--synthetic-like", "Epilepsy", "--window", "16", "--hop", "4",
             "--version", "stable", "--scale", "full", "--series", "7",
             "--seed", "3", "--shift-at", "90", "--limit", "200"]
    stream = parser.parse_args(["stream", "demo", *given])
    adapt = parser.parse_args(["adapt", "demo", "--registry", "r", *given])
    assert {flag: getattr(stream, flag) for flag in REPLAY_FLAGS} \
        == {flag: getattr(adapt, flag) for flag in REPLAY_FLAGS}
    for command in (["stream", "demo"], ["adapt", "demo", "--registry", "r"]):
        with pytest.raises(SystemExit):  # the source group stays exclusive
            parser.parse_args([*command, "--dataset", "a", "--input", "b"])


@pytest.mark.parametrize("command", [["serve", "--registry", "r"],
                                     ["train", "Epilepsy", "--registry", "r"]])
def test_backend_flag_is_gone(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--backend", "numpy"])
