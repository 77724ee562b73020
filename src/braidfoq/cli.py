"""Command-line interface: every library operation behind JSON file I/O.

Exit codes: 0 success / property holds, 1 mathematical failure,
2 usage or I/O error, 3 undecided (membership bound hit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .freealg import DEFAULT_ROW_CAP, _unreplayed, coassociativity_check, \
    well_definedness_check
from .fusion import FusionContext, IrrepLabel, dim, fuse, q_parameter
from .graded import GradedSpace, OmegaData, f_matrix, irreducibility_test, solve_omega, \
    triviality_scan, validate
from .presentation import _intertwiner_holds, aof_presentation, bosonisation_presentation, \
    braided_presentation, deserialize_presentation, serialize_presentation, \
    t_form_presentation
from .scalar import Field, Matrix, Scalar
from .suite import RunConfig, report_to_text, run_suite
from .transform import degree_shift, double_cover, reduce_to_degree_zero

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class UsageError(Exception):
    """A malformed argument or environment setting (exit code 2)."""


def _int_arg(text: str, minimum: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    return _int_arg(text, 0)


def _positive_int(text: str) -> int:
    return _int_arg(text, 1)


def _matrix_size(text: str) -> int:
    return _int_arg(text, 2)


def _label_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected k,l, got {text!r}")
    return _nonnegative_int(parts[0]), _int_arg(parts[1])


def _row_cap(flag: int | None) -> int:
    """The membership row cap: BRAIDFOQ_ROW_CAP, else --row-cap, else the default."""
    env = os.environ.get("BRAIDFOQ_ROW_CAP")
    if env is not None:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"BRAIDFOQ_ROW_CAP {exc}") from None
    return flag or DEFAULT_ROW_CAP


def _write(text: str, out_path: str | None) -> None:
    """Print the text; with --out also write it there, newline-terminated."""
    print(text)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")


def _emit(report: dict, out_path: str | None) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True), out_path)


# what a malformed document or argument raises while it is parsed: the wrong
# shape inside the from_json readers, OverflowError for int() of an Infinity
# where an integer belongs, ZeroDivisionError for a zero denominator, and
# ValueError for a value the constructors reject; verdicts computed after
# parsing keep exit 1
_SCHEMA_ERRORS = (KeyError, IndexError, TypeError, AttributeError, OverflowError,
                  ZeroDivisionError, ValueError)


def _load_omega(path: str) -> OmegaData:
    with open(path) as handle:
        data = json.load(handle)
    try:
        return OmegaData.from_json(data)
    except _SCHEMA_ERRORS as exc:
        raise UsageError(f"{path} is not an instance document: {exc!r}") from None


def _load_presentation(path: str):
    with open(path) as handle:
        text = handle.read()
    try:
        return deserialize_presentation(text)
    except _SCHEMA_ERRORS as exc:
        raise UsageError(f"{path} is not a presentation document: {exc!r}") from None


def _parse_field(spec: str) -> Field:
    kind, _, value = spec.partition(":")
    try:
        if kind == "cyclo":
            return Field.cyclotomic(int(value))
        if kind == "float":
            return Field.approx(float(value) if value else 1e-10)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{spec!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown field spec {spec!r}; use cyclo:N or float:tol")


def _parse_scalar(text: str, field: Field) -> Scalar:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        return Scalar.from_json(data, field)
    if isinstance(data, (int, float)):
        # Fraction(data) rejects an infinite or NaN reading; an exact field
        # then reads the decimal text itself, not its nearest double
        value = Fraction(data)
        return field.from_rational(Fraction(text) if field.exact else value)
    if "/" in text:
        return field.from_rational(Fraction(text))
    raise ValueError(f"cannot parse scalar {text!r}")


def _cmd_validate(args) -> int:
    data = _load_omega(args.file)
    report = validate(data)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_solve(args) -> int:
    field = args.field
    with open(args.blocks) as handle:
        raw_blocks = json.load(handle)
    try:
        degrees = tuple(int(x) for x in args.degrees.split(","))
        try:
            zeta = field.root(int(args.zeta))
        except ValueError:
            zeta = _parse_scalar(args.zeta, field)
        space = GradedSpace(n=len(degrees), degrees=degrees, zeta=zeta, field=field)
        blocks = {int(k): Matrix.from_json(v, field) for k, v in raw_blocks.items()}
        c = _parse_scalar(args.c, field) if args.c else None
    except _SCHEMA_ERRORS as exc:
        raise UsageError(f"malformed solve input: {exc!r}") from None
    data = solve_omega(space, args.d, blocks, c)
    report = data.to_json()
    # report the chosen c (meaningful when --c was omitted)
    report["c"] = validate(data).c.to_json()
    _emit(report, args.out)
    return EXIT_OK


def _cmd_irreducible(args) -> int:
    data = _load_omega(args.file)
    irreducible, c = irreducibility_test(data.space, data.omega, data.d)
    _emit({"irreducible": irreducible,
           "c": None if c is None else c.to_json()}, args.out)
    return EXIT_OK if irreducible else EXIT_FAIL


def _cmd_trivrel(args) -> int:
    data = _load_omega(args.file)
    violations = triviality_scan(data)
    report = {"holds": not violations, "violation_count": len(violations)}
    if args.scan:
        report["violations"] = [
            {"indices": list(indices), "value": value.to_json()}
            for indices, value in violations]
    elif violations:
        indices, value = violations[0]
        report["first_violation"] = {"indices": list(indices), "value": value.to_json()}
    _emit(report, args.out)
    return EXIT_OK if not violations else EXIT_FAIL


def _cmd_shift(args) -> int:
    data = _load_omega(args.file)
    _emit(degree_shift(data, args.s).to_json(), args.out)
    return EXIT_OK


def _cmd_cover(args) -> int:
    data = _load_omega(args.file)
    _emit(double_cover(data).to_json(), args.out)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    data = _load_omega(args.file)
    _emit(reduce_to_degree_zero(data).to_json(), args.out)
    return EXIT_OK


def _cmd_present(args) -> int:
    data = _load_omega(args.file)
    builders = {
        "braided": braided_presentation,
        "boson": bosonisation_presentation,
        "tform": t_form_presentation,
    }
    if args.target == "aof":
        presentation = aof_presentation(f_matrix(data))
    else:
        presentation = builders[args.target](data)
    _write(serialize_presentation(presentation), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    presentation = _load_presentation(args.file)
    if args.check == "coassoc":
        passed = coassociativity_check(presentation)
        _emit({"check": "coassoc", "passed": passed}, args.out)
        return EXIT_OK if passed else EXIT_FAIL
    if args.check == "welldef":
        report = well_definedness_check(presentation, args.bound,
                                        row_cap=args.row_cap, workers=args.workers)
        unreplayed = _unreplayed(presentation, report)
        if unreplayed:
            raise ValueError(f"the certificate of {unreplayed[0]} does not replay")
        verdicts = {r["relation"]: r["verdict"] for r in report["relations"]}
        _emit({"check": "welldef", "bound": args.bound, "verdicts": verdicts,
               "all_in_ideal": report["all_in_ideal"]}, args.out)
        if args.emit_cert:
            payload = [{"relation": r["relation"],
                        "certificate": r["certificate"].to_json()}
                       for r in report["relations"]]
            with open(args.emit_cert, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        if report["all_in_ideal"]:
            return EXIT_OK
        if any(r["verdict"] == "undecided_at_bound" for r in report["relations"]):
            return EXIT_UNDECIDED
        return EXIT_FAIL
    if args.check == "intertwiner":
        meta, n = presentation.meta, presentation.context.n
        wanted = {f"invariance({j},{i})" for j in range(n) for i in range(n)}
        if (meta is None or presentation.name != "t_form" or meta.space.n != n
                or meta.space.field != presentation.context.field
                or not wanted.issubset(presentation.relation_labels)):
            raise UsageError("intertwiner check needs a t-form presentation with every "
                             "invariance(j,i) relation and instance metadata over its field")
        passed = _intertwiner_holds(presentation, meta.d, f_matrix(meta))
        _emit({"check": "intertwiner", "passed": passed}, args.out)
        return EXIT_OK if passed else EXIT_FAIL
    raise AssertionError(args.check)


def _cmd_fuse(args) -> int:
    ctx = FusionContext(n=args.n, parity="even_d" if args.parity == "even" else "odd_d")
    decomposition = fuse(IrrepLabel(*args.a), IrrepLabel(*args.b), ctx)
    _emit(decomposition.to_json(), args.out)
    return EXIT_OK


def _cmd_dims(args) -> int:
    ctx = FusionContext(n=args.n, parity="even_d")
    values = [dim(IrrepLabel(k, 0), ctx) for k in range(args.k + 1)]
    _emit({"n": args.n, "dims": values}, args.out)
    return EXIT_OK


def _cmd_qparam(args) -> int:
    data = _load_omega(args.file)
    result = q_parameter(data)
    _emit({"q": result["q"], "trace": result["trace"].to_json(),
           "sign_source": result["sign_source"].to_json()}, args.out)
    return EXIT_OK


def _cmd_suite(args) -> int:
    try:
        config = RunConfig(seed=args.seed, degree_bound=args.bound,
                           row_cap=args.row_cap, workers=args.workers,
                           field=args.field)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = run_suite(config)
    _write(report_to_text(report), args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidfoq",
        description="Exact computer algebra for braided free orthogonal quantum groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("validate", help="check the block condition of an instance")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="construct a valid instance from free blocks")
    p.add_argument("--degrees", required=True, help="comma-separated degree vector")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--blocks", required=True, help="JSON file {degree: matrix}")
    p.add_argument("--c", help="scalar c (JSON, integer, or p/q)")
    p.add_argument("--field", type=_parse_field, default="cyclo:8",
                   help="cyclo:N or float:tol")
    p.add_argument("--zeta", default="1", help="zeta as root exponent or scalar JSON")
    _common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("irreducible", help="irreducibility of the fundamental representation")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_irreducible)

    p = sub.add_parser("trivrel", help="scan the linear-independence identity")
    p.add_argument("file")
    p.add_argument("--scan", action="store_true", help="list every violating tuple")
    _common(p)
    p.set_defaults(func=_cmd_trivrel)

    p = sub.add_parser("shift", help="degree shift")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("cover", help="double cover of the circle")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("reduce", help="canonical reduction to degree zero")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("present", help="emit a universal presentation")
    p.add_argument("--target", choices=["braided", "boson", "tform", "aof"],
                   required=True)
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("verify", help="symbolic verification of a presentation")
    p.add_argument("--check", choices=["coassoc", "welldef", "intertwiner"],
                   required=True)
    p.add_argument("--bound", type=_nonnegative_int, default=3)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="accepted for compatibility; the certifier is single-threaded")
    p.add_argument("--row-cap", type=_positive_int, default=None, dest="row_cap")
    p.add_argument("--emit-cert", dest="emit_cert", help="dump certificates to this path")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuse", help="tensor-product decomposition of irreducibles")
    p.add_argument("--a", type=_label_pair, required=True, help="k,l")
    p.add_argument("--b", type=_label_pair, required=True, help="m,j")
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--n", type=_matrix_size, default=2)
    _common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("dims", help="dimension ladder")
    p.add_argument("--k", type=_nonnegative_int, required=True)
    p.add_argument("--n", type=_matrix_size, required=True)
    _common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("qparam", help="monoidal-equivalence q-parameter")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=_cmd_qparam)

    p = sub.add_parser("suite", help="run the reproducible property battery")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bound", type=_nonnegative_int, default=3)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="run the checks on up to min(WORKERS, 8) processes; "
                        "the report does not depend on it")
    p.add_argument("--row-cap", type=_positive_int, default=None, dest="row_cap")
    p.add_argument("--field", type=_parse_field,
                   help="pin the cyclotomic order of random instances (cyclo:N)")
    _common(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "row_cap"):
            args.row_cap = _row_cap(args.row_cap)
        return args.func(args)
    except (OSError, json.JSONDecodeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
