"""The artifact writer: whole files appear whole or not at all, the append log
keeps every whole record, and every stage reruns to the bytes of a clean run
after a fault at any of its writes, renames or appends."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlbench
from sqlbench.artifacts import appending, log_path, write_text, writing
from sqlbench.cli import main
from sqlbench.inference import Prediction, append_prediction, read_predictions, write_predictions
from sqlbench.stub import StubBehavior, StubServer

from conftest import answers_from_examples, cli_child_env, write_config_with_url
from helpers import Faults, Killed


def test_only_the_writer_renames_or_names_a_temporary_file():
    src = Path(sqlbench.__file__).parent
    texts = {path.relative_to(src).as_posix(): path.read_text(encoding="utf-8")
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
    assert out.read_text(encoding="utf-8") == "old\n" and log_path(out).is_file()
    write_text(out, "new\n")
    # the temporary file is reused and renamed; the log its records went to is retired
    assert out.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in out.parent.iterdir()] == ["out.jsonl"]


def test_an_append_ends_a_torn_last_line_first(tmp_path):
    """Opening the log ends a torn last line once; the records appended
    while it is held open each take one line."""
    log = tmp_path / "log.jsonl.partial"
    records = [Prediction(index, "", f"SELECT {index}", 0.0, 1).to_json() for index in range(5)]
    log.write_text(records[0] + "\n" + records[1][:25], encoding="utf-8")
    with appending(log) as append:
        append_prediction(append, Prediction.from_json(records[2]))
        append_prediction(append, Prediction.from_json(records[3]))
    assert sorted(read_predictions(log)) == [0, 2, 3]
    assert log.read_text(encoding="utf-8") == "\n".join(
        [records[0], records[1][:25], records[2], records[3], ""])
    # torn just before its newline, a line is a whole record the reader
    # already counts; ending it rather than cutting it keeps that record
    log.write_text(records[0] + "\n" + records[1], encoding="utf-8")
    assert sorted(read_predictions(log)) == [0, 1]
    with appending(log) as append:
        append_prediction(append, Prediction.from_json(records[4]))
    assert sorted(read_predictions(log)) == [0, 1, 4]
    # a log opened with nothing appended still ends its torn line
    log.write_text(records[0] + "\n" + records[1][:25], encoding="utf-8")
    with appending(log):
        pass
    assert log.read_text(encoding="utf-8").endswith(records[1][:25] + "\n")


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


def test_build_corpus_killed_for_real_reruns_to_the_same_bytes(scratch_config, tmp_path):
    """A ``build-corpus`` child gets SIGKILL at a time hypothesis picks, from
    the appearance of its corpus directory to twice as long after it as a
    clean child took to make its last file; a rerun then leaves a clean run's
    bytes and no ``.writing`` file."""
    config = write_config_with_url(scratch_config, "http://127.0.0.1:9")
    argv = [sys.executable, "-m", "sqlbench.cli", *STAGES["build-corpus"],
            "--config", str(config), "--run-id", "t"]

    def start(output_dir: Path) -> tuple[subprocess.Popen, float]:
        """The child, and when its first write began (or it ended)."""
        proc = subprocess.Popen([*argv, "--output-dir", str(output_dir)], env=cli_child_env(),
                                cwd=str(tmp_path), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while (not (output_dir / "t" / "corpus").is_dir() and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.0005)
        return proc, time.monotonic()

    proc, began = start(tmp_path / "clean")
    corpus, listing, last = tmp_path / "clean" / "t" / "corpus", [], began
    while proc.poll() is None:
        if (now := sorted(os.listdir(corpus))) != listing:
            listing, last = now, time.monotonic()
        time.sleep(0.0005)
    assert proc.wait(timeout=60) == 0
    window = last - began
    clean = _files(tmp_path / "clean")
    assert clean and not [name for name in clean if name.endswith(".writing")]

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0, 2))
    def killed_then_rerun(fraction: float) -> None:
        output_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        proc, began = start(output_dir)
        time.sleep(max(0.0, began + fraction * window - time.monotonic()))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert main([*STAGES["build-corpus"], "--config", str(config), "--run-id", "t",
                     "--output-dir", str(output_dir)]) == 0
        rerun = _files(output_dir)
        assert not [name for name in rerun if name.endswith(".writing")], fraction
        assert rerun == clean, fraction

    killed_then_rerun()


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
