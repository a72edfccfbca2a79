"""The artifact writer: whole files appear whole or not at all, the append log
keeps every whole record, and every stage reruns to the bytes of a clean run
after a fault at any of its writes, renames or appends."""

from __future__ import annotations

from pathlib import Path

import pytest

import sqlbench
from sqlbench.artifacts import log_path, write_text, writing
from sqlbench.cli import main
from sqlbench.inference import Prediction, append_prediction, read_predictions, write_predictions
from sqlbench.stub import StubBehavior, StubServer

from conftest import answers_from_examples, write_config_with_url
from helpers import Faults, Killed


def test_only_the_writer_renames_or_names_a_temporary_file():
    src = Path(sqlbench.__file__).parent
    texts = {path.relative_to(src).as_posix(): path.read_text("utf-8")
             for path in sorted(src.rglob("*.py"))}
    offenders = [(name, needle) for name, text in texts.items() if name != "artifacts.py"
                 for needle in ("os.replace", ".writing", ".partial") if needle in text]
    assert not offenders
    assert sum(text.count("os.replace") for text in texts.values()) == 1


def test_a_whole_file_replaces_the_old_one_only_when_complete(tmp_path):
    out = tmp_path / "new_dir" / "out.jsonl"
    write_text(out, "old\n")
    log_path(out).write_text("a record\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with writing(out) as fp:
            fp.write("new\n")
            raise RuntimeError("cut midway")
    assert out.read_text() == "old\n" and log_path(out).is_file()
    write_text(out, "new\n")
    # the temporary file is reused and renamed; the log its records went to is retired
    assert out.read_text() == "new\n"
    assert [p.name for p in out.parent.iterdir()] == ["out.jsonl"]


def test_an_append_ends_a_torn_last_line_first(tmp_path):
    log = tmp_path / "log.jsonl.partial"
    records = [Prediction(index, "", f"SELECT {index}", 0.0, 1).to_json() for index in range(4)]
    log.write_text(records[0] + "\n" + records[1][:25], encoding="utf-8")
    append_prediction(log, Prediction.from_json(records[2]))
    assert sorted(read_predictions(log)) == [0, 2]
    # torn just before its newline, a line is a whole record the reader
    # already counts; ending it rather than cutting it keeps that record
    log.write_text(records[0] + "\n" + records[1], encoding="utf-8")
    assert sorted(read_predictions(log)) == [0, 1]
    append_prediction(log, Prediction.from_json(records[3]))
    assert sorted(read_predictions(log)) == [0, 1, 3]


STAGES = {
    "ingest": ["ingest"],
    "build-corpus": ["build-corpus", "--k", "0,1", "--random-shot"],
    "predict": ["predict", "--split", "dev", "--shots", "0"],
    "evaluate": ["evaluate", "--split", "dev", "--predictions", "PREDICTIONS"],
}


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _final_predictions(run_dir: Path) -> int:
    """Records with no error among the predictions file and its append log."""
    out = run_dir / "predictions" / "dev_shots0.jsonl"
    recorded = read_predictions(*(path for path in (out, log_path(out)) if path.is_file()))
    return sum(p.error is None for p in recorded.values())


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_fault_at_any_write_reruns_to_the_same_bytes(stage, scratch_config, tmp_path, bundle,
                                                       monkeypatch):
    """For each n, the stage's n-th write, rename or append fails, by an
    OSError or by a kill after a seeded prefix of its bytes; a rerun then
    leaves the bytes of a clean run and no temporary file, and predict
    requests only the records that were not final."""
    dev = bundle.splits["dev"]
    predictions = tmp_path / "predictions.jsonl"
    write_predictions(predictions, {
        ex.index: Prediction(ex.index, "", ex.gold_sql if ex.index % 3 else "SELECT 1", 0.0, 1)
        for ex in dev
    })
    argv = [str(predictions) if arg == "PREDICTIONS" else arg for arg in STAGES[stage]]
    with StubServer(StubBehavior(answers=answers_from_examples(dev))) as stub:
        config = write_config_with_url(scratch_config, stub.base_url)

        def run(output_dir: Path, faults: Faults) -> int | None:
            with monkeypatch.context() as patch:
                faults.install(patch)
                try:
                    return main([*argv, "--config", str(config), "--run-id", "t",
                                 "--output-dir", str(output_dir)])
                except Killed:
                    return None

        counted = Faults()
        assert run(tmp_path / "clean", counted) == 0
        clean = _files(tmp_path / "clean")
        assert clean and not [name for name in clean if name.endswith((".writing", ".partial"))]
        points = [(kind, n) for kind, calls in counted.counts.items()
                  for n in range(1, calls + 1)]
        assert len(points) >= 2
        for kind, n in points:
            for mode in ("oserror", "kill"):
                output_dir = tmp_path / f"{kind}{n}-{mode}"
                faults = Faults(kind, n, mode, seed=f"{stage}/{kind}/{n}/{mode}")
                assert run(output_dir, faults) == (2 if mode == "oserror" else None)
                final = _final_predictions(output_dir / "t")
                requests = stub.request_count
                assert run(output_dir, Faults()) == 0, (kind, n, mode)
                assert _files(output_dir) == clean, (kind, n, mode)
                if stage == "predict":
                    assert stub.request_count - requests == len(dev) - final, (kind, n, mode)


def test_a_failed_append_stops_the_batch(scratch_config, tmp_path, bundle, monkeypatch):
    """The first append fails: predict exits 2 having sent no more requests
    than it may have in flight, for one worker and for several."""
    dev = bundle.splits["dev"]
    behavior = StubBehavior(answers=answers_from_examples(dev), delay_s=0.2)
    for limit in (1, 4):
        with StubServer(behavior) as stub, monkeypatch.context() as patch:
            config = write_config_with_url(scratch_config, stub.base_url)
            text = config.read_text(encoding="utf-8")
            config.write_text(text.replace("concurrency_limit: 4", f"concurrency_limit: {limit}"),
                              encoding="utf-8")
            Faults("append", 1).install(patch)
            assert main([*STAGES["predict"], "--config", str(config), "--run-id", f"t{limit}",
                         "--output-dir", str(tmp_path)]) == 2
            assert 1 <= stub.request_count <= limit, limit
