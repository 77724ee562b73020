"""The suite's process pool: bounded in size, and invisible in the report."""

import hashlib
import json
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

from braidfoq import Field, scalar, suite
from braidfoq.suite import RunConfig, report_to_text, run_suite

ROOT = Path(__file__).resolve().parents[1]


def test_workers_below_one_are_rejected():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=workers)


def test_pinned_field_report_is_identical_across_worker_counts():
    # the pooled runs send the pinned Field to the workers by pickling it
    config = RunConfig(seed=7, field=Field.cyclotomic(8))
    texts = [report_to_text(run_suite(replace(config, workers=w))) for w in (1, 2, 3)]
    assert texts[0] == texts[1] == texts[2]
    assert json.loads(texts[0])["passed"] is True


def test_seed_42_report_matches_recorded_hash_serial_and_pooled(monkeypatch):
    recorded_path = ROOT / "perfbench" / "expected.json"
    recorded = json.loads(recorded_path.read_text())["suite_seed42_sha256"]
    pooled = report_to_text(run_suite(RunConfig(seed=42, workers=2)))

    def no_pool(workers):
        raise AssertionError("a one-worker run must not start a pool")

    monkeypatch.setattr(suite, "_process_pool", no_pool)
    serial = report_to_text(run_suite(RunConfig(seed=42, workers=1)))
    assert hashlib.sha256(serial.encode()).hexdigest() == recorded
    assert pooled == serial


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_seed_42_pooled_report_is_the_serial_one_under_start_method(method):
    # the pool takes the platform's default start method: fork on Linux
    # before Python 3.14, forkserver from 3.14, spawn on macOS and Windows
    code = ("import multiprocessing, sys; "
            f"multiprocessing.set_start_method({method!r}); "
            "from braidfoq.suite import RunConfig, report_to_text, run_suite; "
            "sys.stdout.write(report_to_text(run_suite(RunConfig(seed=42, workers=2))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}, timeout=300, check=True)
    assert out.stdout == report_to_text(run_suite(RunConfig(seed=42, workers=1)))


def test_seed_7_pinned_field_report_matches_recorded_hash():
    # the field-pinned paths (every random instance over Q(zeta_8)), which
    # the seed-42 report does not take
    text = report_to_text(run_suite(RunConfig(seed=7, field=Field.cyclotomic(8))))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "59e02ea9709a5b89d3673b7fdb6c02ff0f2567fc262b3ae0e3b4543ffda0d033")


class _InProcessPool:
    """Stands in for the process pool: records its size and the submission
    order, and runs each submission at once in this process."""

    def __init__(self, sizes, submitted, workers):
        sizes.append(workers)
        self.submitted = submitted

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(fn)
        future = Future()
        future.set_result(fn(*args))
        return future


def test_pool_is_clamped_to_the_number_of_checks(monkeypatch):
    sizes, submitted = [], []
    monkeypatch.setattr(suite, "_process_pool",
                        lambda workers: _InProcessPool(sizes, submitted, workers))
    report = run_suite(RunConfig(seed=42, workers=10_000))
    assert sizes == [len(suite._CHECKS)] == [8]
    assert sorted(f.__name__ for f in submitted) == sorted(f.__name__ for f in suite._CHECKS)
    assert [c["name"] for c in report["checks"]] == [
        "triviality_equivalence", "irreducibility_agreement", "transform_coherence",
        "coassociativity", "well_definedness", "intertwiner_identity", "fusion_ring",
        "q_parameter"]


def test_importing_the_library_loads_no_pool_module():
    code = ("import sys, braidfoq, braidfoq.cli, braidfoq.suite; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _spy_on_kernel_builds(monkeypatch) -> list:
    """Empty the kernel cache and record each kernel compiled from now on."""
    monkeypatch.setattr(scalar, "_TABLE_CACHE", {})
    built = []
    compiled = scalar._compiled

    def spy(table, name, lines):
        built.append((table.order, name))
        return compiled(table, name, lines)

    monkeypatch.setattr(scalar, "_compiled", spy)
    return built


@pytest.mark.parametrize("field", [None, 8, 12], ids=["default", "cyclo8", "cyclo12"])
def test_kernels_built_before_forking_are_all_the_checks_compile(monkeypatch, field):
    config = RunConfig(seed=42, field=None if field is None else Field.cyclotomic(field))
    built = _spy_on_kernel_builds(monkeypatch)
    suite._build_kernels(config)
    assert built and len(built) == len(set(built))
    before = len(built)
    for check in suite._CHECKS:
        check(config)
    assert built[before:] == []


def test_nothing_is_built_before_a_pool_that_inherits_nothing(monkeypatch):
    import multiprocessing

    built = _spy_on_kernel_builds(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
    suite._before_fork(RunConfig(seed=42, workers=2))
    assert built == []


def test_importing_the_library_builds_no_kernel_and_no_certifier():
    code = ("import sys, braidfoq, braidfoq.suite, braidfoq.cli; "
            "from braidfoq import scalar; "
            "print(sorted((order, name) for order, table in scalar._TABLE_CACHE.items() "
            "for name in ('mul', 'fms', 'conj') if name in vars(table)), "
            "'braidfoq._certifier' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}, timeout=60, check=True)
    assert out.stdout.strip() == "[] False"
