"""Show that every check of the benchmark fails on a wrong answer.

    python3 bench/selftest.py

For each workload it runs one case, confirms that its check passes, then
perturbs one coefficient of the result and confirms that the check reports
a failure.  It does the same for each independent check in bench/checks.py.
Exits 0 when every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import chloc  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bump_series(s: chloc.QSeries) -> chloc.QSeries:
    """s with one added to the Chow coefficient of its lowest q-power."""
    coeffs = {e: s.coefficient(e) for e in s.exponents()}
    e0 = min(coeffs)
    coeffs[e0] = coeffs[e0] + s.ring.one()
    return chloc.QSeries(s.ring, coeffs, s.q_max)


def bump_ratfunc(f: chloc.RatFunc) -> chloc.RatFunc:
    """f with one added to one numerator coefficient."""
    terms = dict(f.num.items())
    mono = next(iter(terms))
    terms[mono] += 1
    return chloc.RatFunc(chloc.BivarPoly(terms), f.den)


def find_case(wl, predicate):
    for case in wl.cases:
        if predicate(case):
            return case
    raise LookupError(f"{wl.name}: no case for the self-test")


def main() -> int:
    trials = []  # (label, message from the unperturbed check, message from the perturbed one)

    wl = workloads.Identity(1)
    for case in (wl.cases[1], find_case(wl, lambda c: c[3] is not None)):
        result = wl.run(case)
        bad = dataclasses.replace(result, lhs=bump_series(result.lhs))
        trials.append((f"identity {case[0]}", wl.check(case, result), wl.check(case, bad)))

    wl = workloads.Localize(1)
    case = find_case(wl, lambda c: c[1] == "chain")
    spec, hp = wl.run(case)
    bad = (dataclasses.replace(spec, series=bump_series(spec.series)), hp)
    trials.append((f"localize {case[0]}", wl.check(case, (spec, hp)), wl.check(case, bad)))
    for case in (c for c in wl.cases if c[1] == "cross"):
        report = wl.run(case)
        if report.euler_convergent:
            bad = dataclasses.replace(report, limit_hirzebruch=report.limit_hirzebruch + 1)
            trials.append((f"localize {case[0]}", wl.check(case, report), wl.check(case, bad)))
            break

    wl = workloads.PicardFuchs(1)
    case = min(wl.cases, key=lambda c: c[1])
    report, group, spots = wl.run(case)
    items = list(report.items)
    items[-1] = dataclasses.replace(items[-1], ok=False)
    bad_report = dataclasses.replace(report, items=tuple(items))
    ic, limit, b_ranges = spots[0]
    bad_spot = (dataclasses.replace(ic, value=bump_ratfunc(ic.value)), limit, b_ranges)
    ok = wl.check(case, (report, group, spots))
    trials.append((f"pf {case[0]} report", ok, wl.check(case, (bad_report, group, spots))))
    trials.append((f"pf {case[0]} I_{ic.k}", ok,
                   wl.check(case, (report, group, [bad_spot] + spots[1:]))))

    wl = workloads.Cli(1)
    try:
        case = find_case(wl, lambda c: "job_hodge_divergent.json" in c[0][-1])
        code, stdout, stderr = wl.run(case)
        bad = stdout.replace(b"relation -1 1", b"relation -1 2")
        trials.append(("cli hodge, a repeated call", wl.check(case, (code, stdout, stderr)),
                       wl.check(case, (code, bad, stderr))))
        case = find_case(wl, lambda c: c[0][0] == "chain")
        code, stdout, stderr = wl.run(case)
        ok = wl.check(case, (code, stdout, stderr))
        wl.first_stdout.clear()
        bad = re.sub(rb"aut_order: (\d+)", lambda m: b"aut_order: %d" % (int(m[1]) + 1), stdout)
        trials.append(("cli chain analyze, a first call", ok, wl.check(case, (code, bad, stderr))))
    finally:
        wl.close()

    ring = chloc.Ring([("a", 1), ("b", 1)], 3)
    roots = workloads.seeded_roots(Random(1), ring, 3)
    series = chloc.equivariant_euler(chloc.sum_of_roots(ring, roots), 2)
    trials.append(("e_kq of roots", checks.check_euler_of_roots(series, roots, 2),
                   checks.check_euler_of_roots(bump_series(series), roots, 2)))
    line = chloc.Ring([("x", 1)], 4)
    bundle = chloc.line_bundle(line.generator("x") * 2)
    t = Fraction(-3, 2)
    td, hz = chloc.todd(bundle), chloc.hirzebruch_class(t, bundle)
    ok = checks.check_line_bundle_classes(td, hz, 2, t)
    trials.append(("Todd of a line bundle", ok,
                   checks.check_line_bundle_classes(td + line.generator("x"), hz, 2, t)))
    trials.append(("Hirzebruch of a line bundle", ok,
                   checks.check_line_bundle_classes(td, hz + line.one(), 2, t)))
    a = (2, 2, 3)
    chain = chloc.chain_solve(a)
    ic = chloc.i_coefficient(chain, 7)
    b_ranges = [chloc.b_range(chain, j, 7) for j in (1, 2, 3)]
    limit = chloc.nonequivariant_limit(ic)
    trials.append(("b_range", checks.check_i_coefficient(a, ic, limit, b_ranges),
                   checks.check_i_coefficient(a, ic, limit, b_ranges[:-1] + [b_ranges[-1][1:]])))
    values = [chloc.i_coefficient(chain, k).value for k in (1, 2, 3)]
    trials.append(("I_1..I_3 of (2,2,3)", checks.check_i_223(values),
                   checks.check_i_223([values[0], bump_ratfunc(values[1]), values[2]])))
    group = chloc.symmetry_group(chain)
    trials.append(("symmetry group", checks.check_symmetry_group(a, group),
                   checks.check_symmetry_group(a, group[:-1] + group[:1])))

    tracer = spans.Tracer()
    tracer.install()
    try:
        chloc.picard_fuchs_check(chain, 4)
    finally:
        tracer.uninstall()
    counts = tracer.round_metrics()
    for workload, name in (("identity", "series.invert.calls"), ("pf", "rings.mul.calls")):
        bumped = dict(counts, **{name: (1, "count")})
        trials.append((f"{workload} unused layers",
                       "; ".join(spans.unused_layer_problems(workload, counts)),
                       "; ".join(spans.unused_layer_problems(workload, bumped))))

    failed = 0
    for label, clean, perturbed in trials:
        if clean:
            print(f"FAIL {label}: the unperturbed result fails its check: {clean}")
        elif not perturbed:
            print(f"FAIL {label}: the perturbed result passes its check")
        else:
            print(f"ok   {label}: caught: {perturbed}")
            continue
        failed += 1
    print(f"{len(trials) - failed}/{len(trials)} perturbations caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
