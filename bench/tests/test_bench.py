"""Tests of the benchmark itself: every workload runs at a tiny size with
no failed operation, the traced run reports every layer metric
with repeatable work counts, and every output check rejects a planted
wrong answer.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH

import checks
import inputs
import spans
from aperiodica import cli

RUN = [sys.executable, str(BENCH / "run.py")]


def run_bench(*args, cwd=None):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def worker_record(workload, seed, trace):
    with open(BENCH / "out" / f"{workload}-s{seed}-t{trace}.worker.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_workload_runs_clean(workload, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "solve_s", "op_p50_ms", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0
    rounds = worker_record(workload, seed, 0)["rounds"]
    assert result["attempted"] == sum(len(r["ops"]) for r in rounds)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", workload, "--seed", "3", "--trace", "1", "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert list(metrics) == [name for name, _ in spans.LAYER_METRICS]
        counts.append(
            [metrics[k]["value"] for k in
             ("substitution.atlas_words", "modelset.points", "spectral.sturm_calls")]
        )
    assert counts[0] == counts[1]
    assert any(counts[0])


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_shared_memo_key_fails_loudly():
    plan = inputs.build("exclusion", 0, "tiny")
    first = next(op for op in plan.ops if op.memo_key is not None)
    clash = inputs.Op("copy", "cli", first.check, first.argv, first.info, first.memo_key)
    with pytest.raises(inputs.MemoKeyClash):
        inputs.check_memo_keys(plan.ops + [clash])


# --- planted wrong answers ---------------------------------------------------


@pytest.fixture
def produce(tmp_path, monkeypatch):
    """Run one operation of a tiny plan through the CLI and read it back."""
    monkeypatch.chdir(tmp_path)

    def run(workload, prefix):
        plan = inputs.build(workload, 0, "tiny")
        for name, payload in plan.files.items():
            (tmp_path / name).write_text(json.dumps(payload))
        op = next(op for op in plan.ops if op.label.startswith(prefix))
        assert cli.main(list(op.argv) + ["-o", "out.json"]) == 0
        checker = checks.Checker(plan)
        payload = json.loads((tmp_path / "out.json").read_text())
        assert checker.check(op, payload) == []
        return checker, op, payload

    return run


def rejects(checker, op, payload):
    return checker.check(op, payload) != []


def test_dropped_atlas_word_is_caught(produce):
    checker, op, payload = produce("exclusion", "atlas0")
    payload["words"] = payload["words"][1:]
    assert rejects(checker, op, payload)


def test_wrong_exclusion_pair_is_caught(produce):
    checker, op, payload = produce("exclusion", "exclude")
    pair = payload["first_excluding_pair"]
    payload["first_excluding_pair"] = 3 if pair is None else pair + 1
    assert rejects(checker, op, payload)


def test_missing_model_set_point_is_caught(produce):
    checker, op, payload = produce("modelset", "generate_paper")
    del payload["points"][len(payload["points"]) // 2]
    assert rejects(checker, op, payload)


def test_non_maximal_palindrome_is_caught(produce):
    checker, op, payload = produce("modelset", "palindromes_paper")
    row = next(r for r in payload["palindromes"] if r["length"] >= 3)
    row["length"] -= 2
    assert rejects(checker, op, payload)


def test_dropped_longest_palindrome_is_caught(produce):
    checker, op, payload = produce("modelset", "palindromes_sqrt")
    # self-consistent: the reported maximum follows the remaining rows
    payload["palindromes"] = payload["palindromes"][1:]
    payload["max_palindrome_length"] = payload["palindromes"][0]["length"]
    assert rejects(checker, op, payload)


def test_wrong_inversion_shift_is_caught(produce):
    checker, op, payload = produce("modelset", "symmetry_sym_golden1")
    payload["inversion_witness"]["m"] += 1
    assert rejects(checker, op, payload)


def test_shifted_eigenvalue_is_caught(produce):
    checker, op, payload = produce("spectrum", "spectrum_fib")
    payload["eigenvalues"][5] += 1e-6
    assert rejects(checker, op, payload)
