"""The reproducible property battery behind the `suite` command.

Every check is deterministic given the seed; reports never depend on the
worker count, wall-clock time, or platform, so identical inputs yield
byte-identical reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .freealg import DEFAULT_ROW_CAP, AlgebraElement, TensorElement, Word, _unreplayed, \
    apply_comult, coassociativity_check, expand_three_legs, well_definedness_check
from .fusion import FusionContext, IrrepLabel, fuse, q_parameter, ring_checks, \
    su_q2_reference_instance
from .graded import GradedSpace, OmegaData, f_matrix, irreducibility_test, \
    triviality_scan, validate
from .presentation import bosonisation_presentation, braided_presentation, intertwiner_check
from .sampling import mutate_one_entry, random_homogeneous_invertible, \
    random_valid_instance
from .scalar import Field, Matrix
from .transform import degree_shift, double_cover, reduce_to_degree_zero

__all__ = ["RunConfig", "fixture_e0", "fixture_e1", "fixture_e2", "run_suite"]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the battery; the seed is recorded in every report.

    ``field`` optionally pins the cyclotomic order of every randomized
    instance; the default mixes orders 4, 8, 12 and 24.  The checks run on
    ``min(workers, 8)`` processes, one check at a time each; at 1 they run
    in the calling process.  The report does not depend on ``workers``.
    """

    seed: int = 42
    degree_bound: int = 3
    row_cap: int = DEFAULT_ROW_CAP
    workers: int = 1
    field: Field | None = None

    def __post_init__(self):
        if self.degree_bound < 2:
            raise ValueError("degree_bound must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.field is not None and not self.field.exact:
            raise ValueError("the battery asserts exact identities; use an exact field")

    def orders(self, default: tuple[int, ...]) -> tuple[int, ...]:
        if self.field is None:
            return default
        return (self.field.order,)


# the cyclotomic order of the fixtures, and the orders each randomized check
# mixes unless RunConfig.field pins one; _build_kernels reads the same tuples
_FIXTURE_ORDER = 8
_TRIVIALITY_ORDERS = (8, 12, 24)
_SAMPLE_ORDERS = (4, 8, 12, 24)  # irreducibility and transforms
_COASSOCIATIVITY_ORDERS = (8, 12)


def fixture_e0() -> OmegaData:
    """Trivially graded 2x2 identity instance (c = 1)."""
    field = Field.cyclotomic(_FIXTURE_ORDER)
    space = GradedSpace(n=2, degrees=(0, 0), zeta=field.root(1), field=field)
    return OmegaData(space=space, omega=Matrix.identity(field, 2), d=0)


def fixture_e1() -> OmegaData:
    """Degrees (0,1), d = 1, zeta = zeta_8^6; the braided SU_q(2)-type case."""
    field = Field.cyclotomic(_FIXTURE_ORDER)
    z = field.root(1)
    zero, one = field.zero(), field.one()
    space = GradedSpace(n=2, degrees=(0, 1), zeta=z ** 6, field=field)
    return OmegaData(space=space,
                     omega=Matrix(field, [[zero, z ** 7], [one, zero]]), d=1)


def fixture_e2() -> OmegaData:
    """Degrees (0,2), d = 2, zeta = zeta_8 (c = zeta_8^2)."""
    field = Field.cyclotomic(_FIXTURE_ORDER)
    z = field.root(1)
    zero, one = field.zero(), field.one()
    space = GradedSpace(n=2, degrees=(0, 2), zeta=z, field=field)
    return OmegaData(space=space,
                     omega=Matrix(field, [[zero, z ** 6], [one, zero]]), d=2)


def _rng(config: RunConfig, name: str) -> random.Random:
    return random.Random(f"{config.seed}:{name}")


def _check_triviality(config: RunConfig) -> dict:
    rng = _rng(config, "triviality")
    instances = 0
    mutants_checked = 0
    failures: list[str] = []
    plan = [(n, order) for n in (2, 3, 4, 6) for order in config.orders(_TRIVIALITY_ORDERS)]
    while instances < 50:
        n, order = plan[instances % len(plan)]
        inst = random_valid_instance(rng, n=n, order=order)
        instances += 1
        if triviality_scan(inst):
            failures.append(f"valid instance {instances} violates the identity")
            continue
        mutant = mutate_one_entry(rng, inst)
        if (mutant is not None and not validate(mutant).holds
                and mutant.omega.rank() == mutant.space.n):
            # the identity presumes invertible omega-tilde, so singular
            # mutants are outside its scope
            mutants_checked += 1
            if not triviality_scan(mutant):
                failures.append(f"mutant of instance {instances} shows no violation")
    return {"name": "triviality_equivalence", "passed": not failures,
            "instances": instances, "broken_mutants_detected": mutants_checked,
            "failures": failures}


def _check_irreducibility(config: RunConfig) -> dict:
    rng = _rng(config, "irreducibility")
    disagreements = []
    valid_count = 0
    orders = config.orders(_SAMPLE_ORDERS)
    for i in range(100):
        inst = random_homogeneous_invertible(rng, order=orders[i % len(orders)])
        irreducible, _ = irreducibility_test(inst.space, inst.omega, inst.d)
        holds = validate(inst).holds
        valid_count += holds
        if irreducible != holds:
            disagreements.append(i)
    return {"name": "irreducibility_agreement", "passed": not disagreements,
            "samples": 100, "valid_among_samples": valid_count,
            "disagreements": disagreements}


def _check_transforms(config: RunConfig) -> dict:
    rng = _rng(config, "transforms")
    failures: list[str] = []
    orders = config.orders(_SAMPLE_ORDERS)
    for i in range(50):
        inst = random_valid_instance(rng, order=orders[i % len(orders)])
        s = rng.randrange(-3, 4)
        back = degree_shift(degree_shift(inst, s), -s)
        if back.omega != inst.omega or back.space.degrees != inst.space.degrees:
            failures.append(f"round trip failed at instance {i} (s={s})")
        t = rng.randrange(-2, 3)
        composed = degree_shift(degree_shift(inst, t), s)
        direct = degree_shift(inst, s + t)
        if composed.omega != direct.omega:
            failures.append(f"composition failed at instance {i} (s={s}, t={t})")
        # c' = zeta^(s*d) * c at the canonical midpoint shift
        even = inst if inst.d % 2 == 0 else double_cover(inst)
        c_before = validate(even).c
        mid = even.d // 2
        if mid != 0:
            shifted = degree_shift(even, mid)
            c_after = validate(shifted).c
            if c_after != even.space.zeta_pow(mid * even.d) * c_before:
                failures.append(f"midpoint c-law failed at instance {i}")
        trace = reduce_to_degree_zero(inst)
        final_report = validate(trace.final)
        if trace.final.d != 0 or not final_report.holds or not final_report.c.is_real():
            failures.append(f"reduction failed at instance {i}")
    e1 = fixture_e1()
    trace = reduce_to_degree_zero(e1)
    if [step[0] for step in trace.steps] != ["cover", "shift"] or trace.steps[1][1] != 1:
        failures.append("E1 route is not [cover, shift(1)]")
    if trace.parity_constraint != "k_minus_l_even":
        failures.append("E1 parity flag missing")
    return {"name": "transform_coherence", "passed": not failures,
            "instances": 50, "failures": failures}


def _check_coassociativity(config: RunConfig) -> dict:
    rng = _rng(config, "coassociativity")
    failures: list[str] = []
    fixtures = [("E0", fixture_e0()), ("E1", fixture_e1()), ("E2", fixture_e2())]
    for label, inst in fixtures:
        if not coassociativity_check(braided_presentation(inst)):
            failures.append(f"{label} braided")
        if not coassociativity_check(bosonisation_presentation(inst)):
            failures.append(f"{label} bosonisation")
    orders = config.orders(_COASSOCIATIVITY_ORDERS)
    for i in range(10):
        inst = random_valid_instance(rng, n=rng.choice([2, 3, 4]), order=rng.choice(orders))
        if not coassociativity_check(bosonisation_presentation(inst)):
            failures.append(f"random instance {i}")
    boson = bosonisation_presentation(fixture_e1())
    ctx = boson.context
    z_elem = AlgebraElement.monomial(ctx, Word(1, ()))
    cube = expand_three_legs(apply_comult(z_elem, boson), boson, 0)
    zw = Word(1, ())
    if cube != TensorElement(ctx, 3, {(zw, zw, zw): ctx.field.one()}):
        failures.append("triple expansion of z is not z x z x z")
    return {"name": "coassociativity", "passed": not failures, "failures": failures}


def _check_well_definedness(config: RunConfig) -> dict:
    boson = bosonisation_presentation(fixture_e1())
    report = well_definedness_check(boson, config.degree_bound, row_cap=config.row_cap)
    failures: list[str] = []
    unreplayed = set(_unreplayed(boson, report))
    for record in report["relations"]:
        if record["verdict"] != "in_ideal":
            failures.append(f"{record['relation']}: {record['verdict']}")
        elif record["relation"] in unreplayed:
            failures.append(f"{record['relation']}: certificate does not replay")
    return {"name": "well_definedness", "passed": not failures,
            "degree_bound": config.degree_bound,
            "verdicts": {r["relation"]: r["verdict"] for r in report["relations"]},
            "failures": failures}


def _check_intertwiner(config: RunConfig) -> dict:
    rng = _rng(config, "intertwiner")
    failures: list[str] = []
    for label, inst in (("E0", fixture_e0()), ("E1", fixture_e1()), ("E2", fixture_e2())):
        if not intertwiner_check(inst):
            failures.append(label)
        F = f_matrix(inst)
        nonzero = [(i, j) for i in range(F.rows) for j in range(F.cols)
                   if not F[i, j].is_zero()]
        i0, j0 = nonzero[rng.randrange(len(nonzero))]
        scale = inst.space.field.from_int(2)
        mutated = Matrix(F.field, [[F[i, j] if (i, j) != (i0, j0) else F[i, j] * scale
                                    for j in range(F.cols)] for i in range(F.rows)])
        if intertwiner_check(inst, f_override=mutated):
            failures.append(f"{label} mutation accepted")
    return {"name": "intertwiner_identity", "passed": not failures, "failures": failures}


def _check_fusion_ring(config: RunConfig) -> dict:
    failures: list[str] = []
    even = FusionContext(n=2, parity="even_d")
    examples = [
        ((1, 0), (1, 0), [(2, 0), (0, 0)]),
        ((2, 3), (1, -1), [(3, 2), (1, 2)]),
        ((0, 5), (4, 1), [(4, 6)]),
    ]
    for a, b, expected in examples:
        got = [(r.k, r.l) for r in fuse(IrrepLabel(*a), IrrepLabel(*b), even)]
        if got != expected:
            failures.append(f"fusion example {a} x {b} gave {got}")
    reports = {}
    for n in (2, 3):
        for parity in ("even_d", "odd_d"):
            rep = ring_checks(FusionContext(n=n, parity=parity), 5)
            reports[f"n{n}_{parity}"] = rep["passed"]
            if not rep["passed"]:
                failures.append(f"ring checks failed for n={n} {parity}: {rep['failures'][:3]}")
    return {"name": "fusion_ring", "passed": not failures,
            "ring_checks": reports, "failures": failures}


def _check_q_parameter(config: RunConfig) -> dict:
    failures: list[str] = []
    recovered = {}
    for q in (-1.0, -0.5, 0.3, 1.0):
        got = q_parameter(su_q2_reference_instance(q))["q"]
        recovered[str(q)] = got
        if abs(got - q) >= 1e-12:
            failures.append(f"oracle q={q} recovered as {got}")
    if q_parameter(fixture_e0())["q"] != -1.0:
        failures.append("E0 did not give q = -1")
    if q_parameter(fixture_e2())["q"] != 1.0:
        failures.append("E2 did not give q = +1")
    for label, inst in (("E1", fixture_e1()), ("E2", fixture_e2())):
        direct = q_parameter(inst)["q"]
        detour = q_parameter(double_cover(inst))["q"]
        if direct != detour:
            failures.append(f"{label} q disagrees across reduction routes")
    return {"name": "q_parameter", "passed": not failures,
            "oracle_recovered": recovered, "failures": failures}


_CHECKS = [
    _check_triviality,
    _check_irreducibility,
    _check_transforms,
    _check_coassociativity,
    _check_well_definedness,
    _check_intertwiner,
    _check_fusion_ring,
    _check_q_parameter,
]


# _CHECKS by serial cost, longest first (median CPU seconds of 30 runs at
# seed 42 on a shared 2-vCPU host, each in a process forked from one that
# ran _before_fork: 0.080, 0.073, 0.066, 0.064, 0.057, 0.035, 0.010, 0.006);
# a pool that takes them in this order finishes close to an even split of
# the total
_LONGEST_FIRST = [
    _check_coassociativity,
    _check_triviality,
    _check_irreducibility,
    _check_transforms,
    _check_well_definedness,
    _check_fusion_ring,
    _check_intertwiner,
    _check_q_parameter,
]


def _build_kernels(config: RunConfig) -> None:
    """Build mul, fms and conj for every cyclotomic order the checks reach:
    the fixtures' order, each randomized check's orders under ``config``,
    and the double cover (4N) of each."""
    orders = {_FIXTURE_ORDER}
    for default in (_TRIVIALITY_ORDERS, _SAMPLE_ORDERS, _COASSOCIATIVITY_ORDERS):
        orders.update(config.orders(default))
    for order in sorted(orders | {4 * order for order in orders}):
        kernel = Field.cyclotomic(order).kernel
        for name in ("mul", "fms", "conj"):
            getattr(kernel, name)


def _before_fork(config: RunConfig) -> None:
    """Under the ``fork`` start method, build in this process what each
    pool child would otherwise build again in every suite: the kernels and
    the certifier module.  A process builds each kernel once, so later
    suites fork children that inherit them all.  Under ``spawn`` or
    ``forkserver`` the children inherit nothing, and this does nothing."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        return
    _build_kernels(config)
    from . import _certifier  # noqa: F401  (imported for the children)


def _process_pool(workers: int):
    """A process pool with the platform's default start method.

    That is ``fork`` on Linux before Python 3.14, which is unsafe while
    other threads run, so a threaded caller should run the suite at one
    worker.  Imported here rather than at module level: the pool's modules
    add about 2.5 MB of resident memory (Python 3.11, Linux), which a
    one-worker run never needs.
    """
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_suite(config: RunConfig) -> dict:
    """Run the battery and return a JSON-safe, byte-stable report.

    At ``workers >= 2`` the checks run on ``min(workers, len(_CHECKS))``
    processes; the report lists them in ``_CHECKS`` order either way.
    """
    if config.workers == 1:
        checks = [check(config) for check in _CHECKS]
    else:
        _before_fork(config)
        with _process_pool(min(config.workers, len(_CHECKS))) as pool:
            futures = {check: pool.submit(check, config) for check in _LONGEST_FIRST}
            checks = [futures[check].result() for check in _CHECKS]
    report = {
        "suite": "braidfoq",
        "seed": config.seed,
        "degree_bound": config.degree_bound,
        "row_cap": config.row_cap,
        "field": None if config.field is None else config.field.to_json(),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return report


def report_to_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
