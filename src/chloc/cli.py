"""Command-line front end.

Subcommands::

    chloc chain analyze A1 .. AN
    chloc ifunction A1 .. AN --k-max K [--verify-pf] [--limit]
    chloc classes (hodge|general|identity|tautrel) --job FILE [--q-max Q]

Exit codes: 0 when every check passes, 1 for usage or input/schema errors,
2 when the computation completed but reported a mathematical failure
(non-convergence, a failed identity, a failed Picard-Fuchs coefficient).

Reports are byte-deterministic for identical inputs.  The environment
variable ``CHLOC_Q_MAX`` overrides the default series truncation order for
``classes`` jobs (a ``--q-max`` flag or a ``q_max`` entry in the job file
takes precedence).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from random import Random

from .chains import chain_solve, grading_element, is_calabi_yau, weight_sequence
from .charclasses import KClass, euler_identity_check
from .classexpr import parse_class_expr
from .ifunction import i_coefficient, nonequivariant_limit, picard_fuchs_check
from .localize import LocInput, crosscheck_factors, hodge_product, localization_product
from .rings import Ring
from .sampling import sample_kclass, sample_weight
from .series import NotConvergentError


class JobError(ValueError):
    """Schema violation in a job file, carrying the JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"schema error at {path}: {message}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tuple_str(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# -- chain analyze --------------------------------------------------------------


def _cmd_chain_analyze(args) -> int:
    chain = chain_solve(args.exponents)
    lines = [
        f"chain: {chain.polynomial_str()}",
        f"exponents: {_tuple_str(chain.exponents)}",
        f"weights: {_tuple_str(chain.weights)}",
        f"degree: {chain.degree}",
        f"charges: {_tuple_str(chain.charges)}",
        f"calabi_yau: {_flag(is_calabi_yau(chain))}",
        f"aut_order: {math.prod(chain.exponents)}",
        f"grading_element: {grading_element(chain)}",
        f"q_weights: {_tuple_str(weight_sequence(chain))}",
    ]
    print("\n".join(lines))
    return 0


# -- ifunction -------------------------------------------------------------------


def _cmd_ifunction(args) -> int:
    chain = chain_solve(args.exponents)
    if not is_calabi_yau(chain):
        raise ValueError(
            f"chain {_tuple_str(chain.exponents)} is not Calabi-Yau "
            f"(degree {chain.degree} != weight sum {sum(chain.weights)})"
        )
    if args.k_max < 1:
        raise ValueError("--k-max must be a positive integer")
    lines = [
        f"chain: {_tuple_str(chain.exponents)}  degree {chain.degree}"
        f"  weights {_tuple_str(chain.weights)}"
    ]
    for k in range(1, args.k_max + 1):
        ic = i_coefficient(chain, k)
        kind = "broad" if ic.is_broad else "narrow"
        lines.append(f"I_{k} = {ic.value}  [sector {ic.sector}, {kind}]")
        if args.limit:
            lines.append(f"limit I_{k} = {nonequivariant_limit(ic)}")
    status = 0
    if args.verify_pf:
        report = picard_fuchs_check(chain, args.k_max + chain.degree)
        for item in report.items:
            if item.ok:
                lines.append(f"pf t^{item.m}: pass")
            else:
                lines.append(f"pf t^{item.m}: FAIL  residual {item.residual}")
        good = sum(1 for item in report.items if item.ok)
        lines.append(f"pf: {good}/{len(report.items)} pass")
        if good != len(report.items):
            status = 2
    print("\n".join(lines))
    return status


# -- classes: job file handling -----------------------------------------------------


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise JobError(path, message)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise JobError("$", f"cannot read job file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError("$", f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "job document must be an object")
    return doc


def _build_ring(doc: dict, q_max_flag: int | None) -> Ring:
    _require("chow" in doc, "chow", "missing section")
    chow = doc["chow"]
    _require(isinstance(chow, dict), "chow", "must be an object")
    gens = chow.get("generators")
    _require(isinstance(gens, list), "chow.generators", "must be a list")
    pairs = []
    for i, g in enumerate(gens):
        p = f"chow.generators[{i}]"
        _require(isinstance(g, dict), p, "must be an object")
        _require(isinstance(g.get("name"), str), f"{p}.name", "must be a string")
        _require(
            _is_int(g.get("degree")) and g["degree"] > 0,
            f"{p}.degree",
            "must be a positive integer",
        )
        pairs.append((g["name"], g["degree"]))
    trunc = chow.get("truncation")
    _require(
        _is_int(trunc) and trunc >= 0,
        "chow.truncation",
        "must be a non-negative integer",
    )
    if q_max_flag is not None:
        q_max = q_max_flag
    elif "q_max" in chow:
        q_max = chow["q_max"]
        _require(
            _is_int(q_max) and q_max >= 0, "chow.q_max", "must be a non-negative integer"
        )
    elif os.environ.get("CHLOC_Q_MAX"):
        try:
            q_max = int(os.environ["CHLOC_Q_MAX"])
        except ValueError:
            q_max = -1
        _require(q_max >= 0, "$", "CHLOC_Q_MAX must be a non-negative integer")
    else:
        q_max = None
    try:
        return Ring(pairs, trunc, q_max)
    except ValueError as exc:
        raise JobError("chow", str(exc)) from exc


def _build_classes(doc: dict, ring: Ring) -> dict[str, KClass]:
    out: dict[str, KClass] = {}
    entries = doc.get("classes", [])
    _require(isinstance(entries, list), "classes", "must be a list")
    for i, entry in enumerate(entries):
        p = f"classes[{i}]"
        _require(isinstance(entry, dict), p, "must be an object")
        name = entry.get("name")
        _require(isinstance(name, str) and bool(name), f"{p}.name", "must be a string")
        _require(name not in out, f"{p}.name", f"duplicate class name {name!r}")
        rank = entry.get("rank")
        _require(_is_int(rank), f"{p}.rank", "must be an integer")
        ch_map = entry.get("ch", {})
        _require(isinstance(ch_map, dict), f"{p}.ch", "must be an object")
        ch = [ring.zero() for _ in range(ring.truncation)]
        for key, expr in ch_map.items():
            kp = f"{p}.ch.{key}"
            _require(key.isdigit() and int(key) >= 1, kp, "key must be a degree >= 1")
            l = int(key)
            _require(l <= ring.truncation, kp, "degree exceeds the truncation order")
            _require(isinstance(expr, str), kp, "must be a class-expression string")
            try:
                ch[l - 1] = parse_class_expr(expr, ring)
            except ValueError as exc:
                raise JobError(kp, str(exc)) from exc
        try:
            out[name] = KClass(ring, rank, ch)
        except ValueError as exc:
            raise JobError(p, str(exc)) from exc
    return out


def _resolve_class(name, classes: dict[str, KClass], ring: Ring, path: str) -> KClass:
    if name is None:
        return KClass.zero(ring)
    _require(isinstance(name, str), path, "must be a class name")
    _require(name in classes, path, f"unresolved class name {name!r}")
    return classes[name]


def _weight(value, path: str) -> int:
    _require(_is_int(value) and value != 0, path, "must be a nonzero integer")
    return value


def _weighted_list(doc, classes, ring, path) -> list[tuple[KClass, int]]:
    _require(isinstance(doc, list), path, "must be a list")
    out = []
    for i, item in enumerate(doc):
        p = f"{path}[{i}]"
        _require(isinstance(item, dict), p, "must be an object")
        _require(item.get("class") is not None, f"{p}.class", "missing class name")
        x = _resolve_class(item["class"], classes, ring, f"{p}.class")
        out.append((x, _weight(item.get("weight"), f"{p}.weight")))
    return out


def _sampled(job: dict, ring: Ring) -> list[tuple[KClass, int]]:
    """``job.count`` weighted classes drawn from ``Random(job.seed)``."""
    _require(_is_int(job.get("seed")), "job.seed", "must be an integer")
    count = job.get("count")
    _require(_is_int(count) and count > 0, "job.count", "must be a positive integer")
    rng = Random(job["seed"])
    return [(sample_kclass(rng, ring), sample_weight(rng)) for _ in range(count)]


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _series_lines(result) -> list[str]:
    lines = [f"series: {result.series}", f"convergent: {_flag(result.convergent)}"]
    lines += [f"relation {e} {c}" for e, c in result.relations]
    if result.convergent:
        lines.append(f"limit = {result.limit}")
    return lines


def _classes_identity(job: dict, ring: Ring, classes: dict, chain) -> tuple[list[str], int]:
    if "pairs" in job:
        pairs = _weighted_list(job["pairs"], classes, ring, "job.pairs")
        _require(bool(pairs), "job.pairs", "must name at least one pair")
        items = [(f"{pair['class']}@{w}", x, w) for (x, w), pair in zip(pairs, job["pairs"])]
    else:
        items = [(f"sample[{i}]@{w}", x, w) for i, (x, w) in enumerate(_sampled(job, ring))]
    lines, good = [], 0
    for label, x, w in items:
        check = euler_identity_check(x, w)
        if check.equal:
            good += 1
            lines.append(f"identity {label}: equal")
        else:
            lines.append(f"identity {label}: DIFFER  {check.difference}")
    lines.append(f"identity: {good}/{len(items)} equal")
    return lines, 0 if good == len(items) else 2


def _classes_hodge(job: dict, ring: Ring, classes: dict, chain) -> tuple[list[str], int]:
    hodge = _resolve_class(job.get("hodge"), classes, ring, "job.hodge")
    if chain is not None and "pushed_names" in job:
        names = job["pushed_names"]
        _require(isinstance(names, list), "job.pushed_names", "must be a list of names")
        pushed_cls = [
            _resolve_class(nm, classes, ring, f"job.pushed_names[{i}]")
            for i, nm in enumerate(names)
        ]
        try:
            inp = LocInput.for_chain(ring, hodge, pushed_cls, chain)
        except ValueError as exc:
            raise JobError("job", str(exc)) from exc
    else:
        pushed = _weighted_list(job.get("pushed", []), classes, ring, "job.pushed")
        hw = _weight(job.get("hodge_weight"), "job.hodge_weight")
        try:
            inp = LocInput(ring=ring, hodge=hodge, hodge_weight=hw, pushed=tuple(pushed))
        except ValueError as exc:
            raise JobError("job", str(exc)) from exc
    result = hodge_product(inp)
    return _series_lines(result), 0 if result.convergent else 2


def _classes_general(job: dict, ring: Ring, classes: dict, chain) -> tuple[list[str], int]:
    hodge = _resolve_class(job.get("hodge"), classes, ring, "job.hodge")
    hw = _weight(job.get("hodge_weight"), "job.hodge_weight")
    v, t, n = (_weighted_list(job.get(key, []), classes, ring, f"job.{key}") for key in "vtn")
    try:
        result = localization_product(hodge, hw, v, t, n)
    except ValueError as exc:
        raise JobError("job", str(exc)) from exc
    return _series_lines(result), 0 if result.convergent else 2


def _classes_tautrel(job: dict, ring: Ring, classes: dict, chain) -> tuple[list[str], int]:
    if "factors" in job:
        factors = _weighted_list(job["factors"], classes, ring, "job.factors")
        _require(bool(factors), "job.factors", "must name at least one factor")
    else:
        factors = _sampled(job, ring)
    report = crosscheck_factors(ring, factors)
    lines = [
        f"euler_convergent: {_flag(report.euler_convergent)}",
        f"hirzebruch_convergent: {_flag(report.hirzebruch_convergent)}",
    ]
    for side, series in (("euler", report.side_euler), ("hirzebruch", report.side_hirzebruch)):
        lines += [f"relation {side} {e} {c}" for e, c in series.negative_part()]
    if report.limits_equal is None:
        lines.append("limits_equal: n/a")
    else:
        lines += [f"limits_equal: {_flag(report.limits_equal)}", f"limit = {report.limit_euler}"]
    lines += [
        f"span euler_in_hirzebruch: {_flag(report.span_euler_in_hirzebruch)}",
        f"span hirzebruch_in_euler: {_flag(report.span_hirzebruch_in_euler)}",
        f"tautrel: {'pass' if report.passed else 'FAIL'}",
    ]
    return lines, 0 if report.passed else 2


# mode -> handler(job, ring, classes, chain) -> (report lines, exit status)
_CLASS_MODES = {
    "hodge": _classes_hodge,
    "general": _classes_general,
    "identity": _classes_identity,
    "tautrel": _classes_tautrel,
}


def _cmd_classes(args) -> int:
    doc = _load_job(args.job)
    ring = _build_ring(doc, args.q_max)
    classes = _build_classes(doc, ring)
    chain = None
    if "chain" in doc:
        _require(isinstance(doc["chain"], list), "chain", "must be a list of integers")
        for i, a in enumerate(doc["chain"]):
            _require(_is_int(a), f"chain[{i}]", "must be an integer")
        try:
            chain = chain_solve(doc["chain"])
        except ValueError as exc:
            raise JobError("chain", str(exc)) from exc
    job = doc.get("job", {})
    _require(isinstance(job, dict), "job", "must be an object")
    lines, status = _CLASS_MODES[args.mode](job, ring, classes, chain)
    header = [
        f"mode: {args.mode}",
        f"q_max: {ring.q_max}",
        "job: " + json.dumps(job, sort_keys=True, separators=(", ", ": ")),
    ]
    print("\n".join(header + lines))
    return status


# -- entry point -------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    chain_p = sub.add_parser("chain", help="chain polynomial combinatorics")
    chain_sub = chain_p.add_subparsers(dest="subcommand", required=True)
    analyze = chain_sub.add_parser("analyze", help="solve and describe a chain")
    analyze.add_argument("exponents", nargs="+", type=int)
    analyze.set_defaults(func=_cmd_chain_analyze)

    ifun = sub.add_parser("ifunction", help="equivariant small I-function")
    ifun.add_argument("exponents", nargs="+", type=int)
    ifun.add_argument("--k-max", type=int, required=True)
    ifun.add_argument("--verify-pf", action="store_true")
    ifun.add_argument("--limit", action="store_true")
    ifun.set_defaults(func=_cmd_ifunction)

    classes = sub.add_parser("classes", help="characteristic-class jobs")
    classes.add_argument("mode", choices=list(_CLASS_MODES))
    classes.add_argument("--job", required=True)
    classes.add_argument("--q-max", type=_non_negative_int, default=None)
    classes.set_defaults(func=_cmd_classes)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except JobError as exc:
        print(f"chloc: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, ArithmeticError, NotConvergentError) as exc:
        print(f"chloc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
