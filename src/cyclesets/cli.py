"""Command-line front end.

Exit codes: 0 on success, 1 on mathematical rejection (invalid table,
non-isomorphic pair, inadmissible spec), 2 on usage or IO errors.  Output is
strict JSON unless --pretty is given, which renders tables in cycle notation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import jsonio
from .arith import prime_power
from .classify import (
    classify_cyclic_prime_power,
    classify_pq,
    _group_order_type,
    _spec_family,
)
from .construct import (
    build_elementary_abelian,
    build_p2_level2,
    build_prime_power,
    compatible_bijections,
    trivial_cycle_set,
)
from .cycleset import (
    Solution,
    _involution_failure,
    _mpl_of_steps,
    _retraction_steps,
    are_isomorphic,
    from_solution,
    is_indecomposable,
    is_nondegenerate,
    is_square_free,
    to_solution,
)
from .errors import CycleSetError, FormatError, HypothesesError, InvalidCycleSet
from .oracle import (
    FULL_MODE_MAX, RESTRICTED_MODE_MAX, SearchConfig, brute_force_enumerate,
)
from .perm import Permutation, _inverse, format_cycles

#: lemma2 prints p - 1 tables of length p (0.2 s and 62 MB of RSS at 1009)
LEMMA2_MAX_P = 1009

#: build prints an n x n table (0.06 s and 31 MB of RSS at 1024, on a 2-core
#: AMD EPYC with Python 3.11.7, as below); the loaders of verify, retract,
#: solution and iso read no larger table
BUILD_MAX_N = 1024

#: classify at n = 169 (p = q = 13, or p^k = 13^2) takes under 0.1 s and
#: 22 MB of RSS, and classify_pq(17, 17) 0.06 s in process; the cap stands
#: for the --k route alone, where p^k = 3^5 ran 116.7 s before the default
#: budget stopped it
CLASSIFY_MAX_N = 169

#: each enumerate mode with its size cap; spec mode lists what classify --k
#: dedupes, and full mode at n = 6 takes 0.6 s, 525,398 expansions and
#: 59 MB of RSS to count (1.4 to 1.8 s and 150 MB to print its tables),
#: while n = 7 would need a Cayley table of (7!)^2 entries
_MODES = {
    "full": ("full-bruteforce", FULL_MODE_MAX),
    "regular-abelian": ("regular-abelian-restricted", RESTRICTED_MODE_MAX),
    "spec": ("spec-parameterized", CLASSIFY_MAX_N),
}


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _lemma2_prime(text: str) -> int:
    # checked before is_prime, whose trial division is slow for huge values
    value = _int(text)
    if value > LEMMA2_MAX_P:
        raise argparse.ArgumentTypeError(f"must be at most {LEMMA2_MAX_P}, got {value}")
    return value


def _check_size(command: str, cap: int, p: int, k: int = 1) -> None:
    # before is_prime, whose trial division is slow for huge values; p**k is
    # multiplied out only while it grows and stays within the cap (p < 2 is
    # left to the callee, which rejects it at once)
    n = p
    while k > 1 and 1 < n <= cap:
        n, k = n * p, k - 1
    if n > cap:
        raise FormatError(f"{command} is limited to tables of at most {cap} points")


def _read_text(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise FormatError(f"{source} is not valid UTF-8: {exc}") from None


def _read_json(path: str):
    return jsonio.load(_read_text(path))


def _read_cycleset(command: str, path: str):
    # the row count is capped before validate's cubic axiom check
    table = jsonio.table_from_dict(_read_json(path))
    _check_size(command, BUILD_MAX_N, len(table))
    return jsonio.validate(table)


def _require_input(args) -> str:
    if not args.input:
        raise FormatError("this subcommand requires --input/-i (path or '-')")
    return args.input


def _violations_payload(violations) -> list[dict]:
    out = []
    for v in violations:
        if v[0] == "row":
            out.append({"kind": "row", "x": v[1]})
        else:
            out.append({"kind": "axiom", "x": v[1], "y": v[2], "z": v[3]})
    return out


def _cmd_verify(args):
    X = _read_cycleset("verify", _require_input(args))
    # the load has checked the axiom, so by Rump's criterion the solution
    # braids once it is involutive with lambda^-1 rows equal to the table
    sol = to_solution(X)
    solution_ok = (
        _involution_failure(sol) is None and tuple(map(_inverse, sol.lam)) == X.table
    )
    group_order, group_type = _group_order_type(X)
    steps = _retraction_steps(X)
    payload = {
        "valid": True,
        "n": X.n,
        "square_free": is_square_free(X),
        "nondegenerate": is_nondegenerate(X),
        "indecomposable": is_indecomposable(X),
        "group_order": group_order,
        "group_type": group_type,
        "mpl": _mpl_of_steps(X, steps),
        "tower": [X.n] + [step.quotient.n for step in steps],
        "solution_checks": solution_ok,
    }
    return payload, 0


def _cmd_build(args):
    family = args.family
    if family is None:
        if not args.input:
            raise FormatError("build needs --family or an --input spec file")
        family = "prime-power"
    if family == "trivial":
        if args.m is None:
            raise FormatError("build --family trivial requires --m")
        _check_size("build", BUILD_MAX_N, args.m)
        X = trivial_cycle_set(args.m)
    elif family == "p2-level2":
        if args.p is None or args.t is None:
            raise FormatError("build --family p2-level2 requires --p and --t")
        _check_size("build", BUILD_MAX_N, args.p, 2)
        X = build_p2_level2(args.p, args.t)
    elif family == "elementary-abelian":
        if args.p is None:
            raise FormatError("build --family elementary-abelian requires --p")
        _check_size("build", BUILD_MAX_N, args.p, 2)
        X = build_elementary_abelian(args.p)
    else:  # prime-power, the last of argparse's choices
        spec = jsonio.spec_from_dict(_read_json(_require_input(args)))
        _check_size("build", BUILD_MAX_N, spec.p, spec.k)
        X = build_prime_power(spec)
    return jsonio.cycleset_to_dict(X), 0


def _cmd_retract(args):
    X = _read_cycleset("retract", _require_input(args))
    steps = _retraction_steps(X)
    payload = {
        "sizes": [X.n] + [step.quotient.n for step in steps],
        "mpl": _mpl_of_steps(X, steps),
        "steps": [
            {
                "projection": list(step.projection),
                "quotient": jsonio.cycleset_to_dict(step.quotient),
            }
            for step in steps
        ],
    }
    return payload, 0


def _cmd_solution(args):
    if args.invert:
        lam, rho = jsonio.solution_tables_from_dict(_read_json(_require_input(args)))
        _check_size("solution", BUILD_MAX_N, max(len(lam), len(rho)))
        return jsonio.cycleset_to_dict(from_solution(Solution(lam, rho))), 0
    X = _read_cycleset("solution", _require_input(args))
    return jsonio.solution_to_dict(to_solution(X)), 0


def _cmd_iso(args):
    if args.left == args.right == "-":
        raise FormatError("only one of the two tables can come from standard input")
    left = _read_cycleset("iso", args.left)
    right = _read_cycleset("iso", args.right)
    witness = are_isomorphic(left, right)
    if witness is None:
        return {"isomorphic": False}, 1
    return {"isomorphic": True, "witness": list(witness)}, 0


def _cmd_classify(args):
    if args.q is not None and args.k is not None:
        raise FormatError("classify takes --q or --k, not both")
    if args.q is not None:
        # a huge factor is over the cap even where a factor below 2 (which
        # is_prime rejects at once) makes the product small
        _check_size("classify", CLASSIFY_MAX_N, max(args.p, args.q, args.p * args.q))
        report = classify_pq(args.p, args.q, args.budget)
    elif args.k is not None:
        _check_size("classify", CLASSIFY_MAX_N, args.p, args.k)
        report = classify_cyclic_prime_power(args.p, args.k, args.budget)
    else:
        raise FormatError("classify requires --p together with --q or --k")
    return jsonio.report_to_dict(report), 0


def _cmd_enumerate(args):
    mode, cap = _MODES[args.mode]
    _check_size(f"enumerate --mode {args.mode}", cap, args.n)
    if args.mode != "spec":
        structures = brute_force_enumerate(args.n, SearchConfig(args.budget, mode))
    elif args.n == 1:
        structures = [trivial_cycle_set(1)]
    elif pk := prime_power(args.n):
        structures = sorted(_spec_family(*pk, args.budget), key=lambda X: X.table)
    else:
        raise HypothesesError(f"{mode} mode requires a prime-power size")
    payload = {"n": args.n, "mode": mode, "count": len(structures)}
    if not args.count:
        payload["structures"] = [jsonio.cycleset_to_dict(X) for X in structures]
    return payload, 0


def _cmd_lemma2(args):
    functions = compatible_bijections(args.p)
    return {"p": args.p, "functions": [list(f) for f in functions]}, 0


def _render_table(payload) -> str:
    n = payload["n"]
    lines = [f"cycle set on {n} points"]
    for x, row in enumerate(payload["table"]):
        lines.append(f"  sigma[{x}] = {format_cycles(Permutation(row))}")
    return "\n".join(lines)


def _render_report(payload) -> str:
    lines = [
        f"size {payload['size']}, constraint {payload['constraint']}, "
        f"{len(payload['classes'])} classes"
    ]
    if payload["templates_searched"]:
        lines.append("templates: " + ", ".join(payload["templates_searched"]))
    for idx, entry in enumerate(payload["classes"]):
        lines.append(
            f"class {idx}: mpl={entry['mpl']} group={entry['group_type']}"
            f"({entry['group_order']}) raw_count={entry['raw_count']}"
            + (f" f={entry['f_invariant']}" if entry["f_invariant"] else "")
        )
        lines.append("  " + _render_table(entry["witness"]).replace("\n", "\n  "))
    return "\n".join(lines)


def _render_pretty(payload) -> str:
    if isinstance(payload, dict) and "table" in payload and "n" in payload:
        return _render_table(payload)
    if isinstance(payload, dict) and "classes" in payload:
        return _render_report(payload)
    return jsonio.dumps(payload, pretty=True)


def _emit(payload, args) -> None:
    text = _render_pretty(payload) if args.pretty else jsonio.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed stdout fails here, not at exit


def _build_parser() -> argparse.ArgumentParser:
    budget = SearchConfig.max_candidates
    # only the subcommands that read one payload take --input
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", "-i", help="input path, or '-' for stdin")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", help="output path (default: stdout)")
    common.add_argument("--pretty", action="store_true",
                        help="human-readable rendering instead of strict JSON")

    parser = argparse.ArgumentParser(
        prog="cycleset",
        description="Construct, verify and classify finite cycle sets "
        "(involutive set-theoretic Yang-Baxter solutions).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[reads, common],
                   help="validate a table and report its invariants",
                   ).set_defaults(run=_cmd_verify)

    p_build = sub.add_parser("build", parents=[reads, common],
                             help="build a table from a named family or a spec file")
    p_build.set_defaults(run=_cmd_build)
    p_build.add_argument("--family",
                         choices=["trivial", "p2-level2", "elementary-abelian",
                                  "prime-power"])
    p_build.add_argument("--m", type=_positive_int, help="size for the trivial family")
    p_build.add_argument("--p", type=int)
    p_build.add_argument("--t", type=int)

    sub.add_parser("retract", parents=[reads, common],
                   help="print the retraction tower of a table",
                   ).set_defaults(run=_cmd_retract)

    p_sol = sub.add_parser("solution", parents=[reads, common],
                           help="convert a table to lambda/rho form and back")
    p_sol.set_defaults(run=_cmd_solution)
    p_sol.add_argument("--invert", action="store_true",
                       help="read a solution payload and emit its table")

    p_iso = sub.add_parser("iso", parents=[common],
                           help="test two tables for isomorphism")
    p_iso.set_defaults(run=_cmd_iso)
    p_iso.add_argument("left", help="first table (path or '-')")
    p_iso.add_argument("right", help="second table (path or '-')")

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classification report at size p*q or p^k")
    p_cls.set_defaults(run=_cmd_classify)
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument("--q", type=int)
    p_cls.add_argument("--k", type=int)
    p_cls.add_argument("--budget", type=_positive_int, default=budget)

    p_enum = sub.add_parser("enumerate", parents=[common],
                            help="enumerate cycle sets of a given size")
    p_enum.set_defaults(run=_cmd_enumerate)
    p_enum.add_argument("n", type=_positive_int)
    p_enum.add_argument("--mode", choices=sorted(_MODES), default="regular-abelian")
    p_enum.add_argument("--budget", type=_positive_int, default=budget)
    p_enum.add_argument("--count", action="store_true",
                        help="emit only the count, not the structures")

    p_lem = sub.add_parser("lemma2", parents=[common],
                           help="list the admissible digit bijections for a prime")
    p_lem.set_defaults(run=_cmd_lemma2)
    p_lem.add_argument("--p", type=_lemma2_prime, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.run(args)
    except (FormatError, OSError) as exc:
        return _io_error(exc)
    except InvalidCycleSet as exc:
        payload = {"valid": False, "violations": _violations_payload(exc.violations)}
        code = 1
    except (CycleSetError, ValueError) as exc:
        payload, code = {"error": str(exc)}, 1
    try:
        _emit(payload, args)
    except OSError as exc:  # a closed stdout, or an unwritable --output
        return _io_error(exc)
    return code


def _io_error(exc: Exception) -> int:
    if isinstance(exc, BrokenPipeError):
        # the reader is gone: send what is still buffered for stdout, and
        # the interpreter's flush at exit, to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
    print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
