"""Self-test of the benchmark's correctness gates.

Runs a tiny pass of each workload and checks that it is counted clean, then
runs it again with one output corrupted and checks that the corruption is
counted as a failed operation.  The corruptions are a tampered suite
report, a flipped welldef verdict, a corrupted certificate coefficient and
a flipped validation verdict.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.  It takes about a minute,
most of it two runs of the suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import Tally, run_round  # noqa: E402
from workloads import (CertifyWorkload, InstancesWorkload, Library,  # noqa: E402
                       SuiteWorkload)


def tamper_report(label, text):
    return text.replace('"seed": 42', '"seed": 43', 1)


def flip_verdict(label, out):
    report, verdicts, cert_text = out
    first = next(k for k, v in verdicts.items() if v == "in_ideal")
    return report, {**verdicts, first: "undecided_at_bound"}, cert_text


def corrupt_coefficient(label, out):
    """Add one to the first coefficient of the first nonempty certificate."""
    report, verdicts, _ = out
    records = []
    corrupted = False
    for record in report["relations"]:
        cert = record["certificate"]
        if not corrupted and cert.combination:
            entry = cert.combination[0]
            bad = dataclasses.replace(entry, coeff=entry.coeff + entry.coeff.field.one())
            cert = dataclasses.replace(cert, combination=(bad,) + cert.combination[1:])
            corrupted = True
        records.append({**record, "certificate": cert})
    payload = [{"relation": r["relation"], "certificate": r["certificate"].to_json()}
               for r in records]
    return ({**report, "relations": records}, verdicts,
            json.dumps(payload, indent=2, sort_keys=True))


def flip_validation(label, out):
    report, *rest = out
    return (dataclasses.replace(report, holds=not report.holds), *rest)


def tiny_pass(workload, seed, tamper=None) -> Tally:
    lib = Library()
    inputs = workload.setup(lib, seed)
    tally = Tally()
    run_round(workload, lib, inputs, tally, {}, tamper=tamper)
    return tally


def main() -> int:
    certify = CertifyWorkload(jobs=("welldef_e1_boson_b3_s",))
    instances = InstancesWorkload(per_plan_entry=1)
    cases = [
        ("suite, clean", SuiteWorkload(), 42, None, False),
        ("suite, tampered report", SuiteWorkload(), 42, tamper_report, True),
        ("certify, clean", certify, 0, None, False),
        ("certify, flipped verdict", certify, 0, flip_verdict, True),
        ("certify, corrupted certificate coefficient", certify, 0, corrupt_coefficient, True),
        ("instances, clean", instances, 7, None, False),
        ("instances, flipped validation verdict", instances, 7, flip_validation, True),
    ]
    bad = 0
    for title, workload, seed, tamper, expect_failures in cases:
        tally = tiny_pass(workload, seed, tamper)
        ratio = tally.failed / max(1, tally.attempted)
        ok = tally.attempted > 0 and (ratio > 0) == expect_failures
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {title}: fail_ratio {ratio:.3f} "
              f"({tally.failed}/{tally.attempted})")
        for message in tally.messages[:3]:
            print(f"     {message}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
