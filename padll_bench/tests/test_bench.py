"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q padll_bench/tests

Each test drives ``run.py`` in a subprocess at smoke size (about three
minutes in all on a 2-CPU machine).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import END_TO_END, child_pids  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import MODULES  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=CHECKOUT, script=BENCH / "run.py", timeout=300):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def temp_entries() -> set:
    return {name for name in os.listdir(tempfile.gettempdir()) if "padll" in name}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(MODULES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(MODULES))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_leaves_nothing(workload, trace):
    shm_before, temp_before = shm_entries(), temp_entries()
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # The run's own checks cover threads, sockets and child processes.
    assert "no padll-* threads left" not in proc.stdout
    assert shm_entries() <= shm_before
    assert temp_entries() <= temp_before
    assert not (CHECKOUT / ".bench_work").exists() or not any(
        (CHECKOUT / ".bench_work").iterdir()
    )


@pytest.fixture
def bench_copy(tmp_path):
    """A checkout whose benchmark files are copies and whose program is linked."""
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_no_process_outlives_the_run():
    """Descendants orphaned by the run become ours here; none may be left.

    The shard pool's shared memory starts a ``multiprocessing`` resource
    tracker, which would otherwise outlive the command.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_child_subreaper = 36
    assert libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0
    try:
        proc = run_bench("--workload", "sharded_1e6", "--seed", "0", "--seconds", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        left = child_pids()
    finally:
        libc.prctl(pr_set_child_subreaper, 0, 0, 0, 0)
        for pid in child_pids():
            os.kill(pid, 9)
            os.waitpid(pid, 0)
    assert left == []


def test_held_out_seed_is_pinned_and_passes():
    proc = run_bench("--workload", "sharded_1e6", "--seed", "7", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout
    assert "seed 7: digests checked against pinned values" in proc.stdout
    assert result_of(proc)["correct"] is True


def test_tampered_pinned_digest_fails(bench_copy):
    (bench_copy / "src").symlink_to(CHECKOUT / "src")
    pinned = bench_copy / BENCH.name / "pinned.py"
    text = pinned.read_text()
    import pinned as real

    digest = real.SHARDED[0]
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    pinned.write_text(text.replace(digest, tampered))
    proc = run_bench(
        "--workload", "sharded_1e6", "--seed", "0", "--seconds", "1",
        cwd=bench_copy, script=bench_copy / BENCH.name / "run.py",
    )
    assert proc.returncode != 0
    assert "FAILED digest pinned for seed 0" in proc.stdout
    assert result_of(proc)["correct"] is False


def test_fails_without_the_program(bench_copy):
    proc = run_bench(
        "--workload", "live_interpose", "--seed", "0", "--seconds", "1",
        cwd=bench_copy, script=bench_copy / BENCH.name / "run.py", timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sharded_digest_is_the_same_on_one_shard():
    sys.path.insert(0, str(CHECKOUT / "src"))
    import wl_sharded
    from pinned import SHARDED

    assert wl_sharded.run_pass(0, n_shards=1) == (SHARDED[0], [])
