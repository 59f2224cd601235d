"""The three benchmark workloads: their instance lists, the calls each instance
makes into ``cubicfano``, and the checks on every answer.

Importing this module imports ``cubicfano``; ``run.py`` times that import as
part of set-up.

Every workload is a fixed list of instances, chosen by sample seed.  Within
one workload the cost of an instance spans more than thirty-fold (a group-law
instance takes 0.03-12 s, a rational one 0.01-18 s), so a seeded draw of the
few instances that fit in one run would move every metric by more than its
bound.  The run's ``--seed`` fixes only the order of the pass; the sampling
stream of ``verify_group_axioms`` is seeded by the instance.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cubicfano.fano import FanoSurface
from cubicfano.fourfold import certify_fourfold, fiber_scan, random_general_fourfold
from cubicfano.gf import field
from cubicfano.pencil import HyperellipticModel, discriminant, zeta
from cubicfano.rationality import (
    decide_over_finite_field,
    decide_over_rationals,
    obstruction_confirmed_by_residues,
)
from cubicfano.threefold import compute_Z, random_general_threefold
from cubicfano.torsor import torsor_group, verify_group_axioms

# exception classes that are documented refusals; everything else raised by
# an instance is an internal error
TYPED_REFUSALS = frozenset({"NotGeneral", "NotSupportedError", "NeedsDifferentPrime", "ResampleRequired"})

RATIONAL_HEIGHT = 4


class CheckFailed(Exception):
    """The program returned an answer that the benchmark's check rejects."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Instance:
    workload: str
    kind: str
    q: int | None  # field size; None over Q
    seed: object  # sample seed, or the name of a frozen example
    run: Callable[[], None]

    def label(self) -> dict:
        return {"workload": self.workload, "kind": self.kind, "q": self.q, "seed": self.seed}


# ---------------------------------------------------------------------------
# census: threefolds at q = 3, 5, 7, 9, 11 and fourfolds at q = 3
# ---------------------------------------------------------------------------

CENSUS_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1))
CENSUS_TINY_FIELDS = ((3, 1), (5, 1))
CENSUS_SEEDS = range(4)
CENSUS_WARMUP_SEED = 4


def census_threefold(p: int, k: int, seed: int) -> None:
    nf = random_general_threefold(field(p, k), random.Random(seed))
    Z = compute_Z(nf)
    check(Z.total_multiplicity == 4, f"Z has length {Z.total_multiplicity}")
    h = zeta(HyperellipticModel(discriminant(nf))).h
    n_torsor = len(FanoSurface(nf, 1).torsor_set)
    check(n_torsor == h, f"#T(F_q) = {n_torsor} but h = {h}")
    verdict = decide_over_finite_field(nf)
    check(verdict.kind == "Rational" and verdict.witness is not None, f"F_q verdict {verdict.kind}")


def census_fourfold(seed: int) -> None:
    nx = random_general_fourfold(field(3), random.Random(seed))
    certify_fourfold(nx)
    for report in fiber_scan(nx):
        if report.transverse and report.general:
            check(report.equal is True, f"fiber over {report.dual}: #T != h")


def census(seeds, fields) -> list[Instance]:
    out = []
    for seed in seeds:
        for p, k in fields:
            out.append(Instance("census", "threefold", p**k, seed,
                                lambda p=p, k=k, s=seed: census_threefold(p, k, s)))
        out.append(Instance("census", "fourfold", 3, seed, lambda s=seed: census_fourfold(s)))
    return out


# ---------------------------------------------------------------------------
# group-law: torsor group law at q = 3
# ---------------------------------------------------------------------------

# refusals (1, 6), and from no escalation (4) to nine in ten sums escalated
# (2); seeds that take 4-10 s (0, 3, 7, 9) are left out so that two passes
# fit in one run
GROUP_SEEDS = (1, 2, 4, 5, 6, 28)
GROUP_TINY_SEEDS = (4,)
GROUP_WARMUP_SEED = 29


def group_law(seed: int) -> None:
    nf = random_general_threefold(field(3), random.Random(seed))
    group = torsor_group(nf)
    group.letters
    report = verify_group_axioms(nf, random.Random(seed))
    check(report.all_passed, f"group law report fails: {report.to_report()}")


def group(seeds) -> list[Instance]:
    return [Instance("group-law", "torsor", 3, seed, lambda s=seed: group_law(s)) for seed in seeds]


# ---------------------------------------------------------------------------
# rational: the semidecision over Q at height 4
# ---------------------------------------------------------------------------

# the four frozen examples of the rationality tests, with the verdict fields
# the tests pin down
NODE_EXAMPLE = {
    (1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): -1,
    (0, 1, 0, 2, 0): 1, (0, 1, 0, 0, 2): -1,
    (2, 0, 0, 0, 1): 1, (2, 0, 1, 0, 0): -2, (0, 2, 0, 1, 0): -2,
}
LINE_EXAMPLE = {
    (0, 1, 0, 0, 2): 3, (0, 1, 0, 2, 0): 2, (0, 1, 1, 1, 0): 1, (0, 1, 2, 0, 0): 1,
    (0, 2, 0, 0, 1): 2, (0, 2, 0, 1, 0): -1, (0, 2, 1, 0, 0): 1, (0, 3, 0, 0, 0): -1,
    (1, 0, 0, 0, 2): 1, (1, 0, 0, 2, 0): 1, (1, 0, 2, 0, 0): 1,
    (1, 2, 0, 0, 0): -3, (2, 0, 0, 0, 1): -1, (2, 1, 0, 0, 0): -1, (3, 0, 0, 0, 0): -1,
}
DEFINITE_PENCIL_EXAMPLE = {
    (3, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): 1, (1, 0, 0, 0, 2): 1,
    (0, 3, 0, 0, 0): 1, (0, 1, 1, 1, 0): 1, (0, 1, 0, 0, 2): -1,
}
UNKNOWN_EXAMPLE = {
    (0, 1, 0, 0, 2): 2, (0, 1, 0, 2, 0): -2, (0, 1, 1, 1, 0): 2, (0, 1, 2, 0, 0): 2,
    (0, 2, 0, 1, 0): 2, (1, 0, 0, 0, 2): -1, (1, 0, 0, 1, 1): 1, (1, 0, 0, 2, 0): 1,
    (1, 0, 1, 0, 1): 2, (1, 0, 1, 1, 0): 2, (1, 1, 0, 0, 1): 1, (1, 1, 0, 1, 0): -1,
    (1, 1, 1, 0, 0): -1, (1, 2, 0, 0, 0): 2, (2, 0, 0, 0, 1): 1, (2, 0, 0, 1, 0): 2,
    (2, 0, 1, 0, 0): 1, (2, 1, 0, 0, 0): -1, (3, 0, 0, 0, 0): -1,
}
FROZEN = {
    "NODE": (NODE_EXAMPLE, {"kind": "Rational", "witness.type": "node", "witness.point": [0, 0, 1, 1, 1]}),
    "LINE": (LINE_EXAMPLE, {"kind": "Rational", "witness.type": "line_disjoint_from_plane",
                            "witness.rows": [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]}),
    "DEFINITE_PENCIL": (DEFINITE_PENCIL_EXAMPLE, {"kind": "Irrational", "certificate.pencil_member": [1, 0],
                                                  "certificate.place": "real",
                                                  "certificate.diagonal": [1, 1, 1, 1]}),
    "UNKNOWN": (UNKNOWN_EXAMPLE, {"kind": "Unknown", "bounds.pencil_members_scanned": 24,
                                  "bounds.good_prime": 5}),
}
# early exits (Rational 0, 2, 4, 5; Irrational 13, 22) and full scans
# (Unknown 3, 17, 28, 34, of 0.8-2 s each); scans of 3-18 s (seeds 1, 6,
# 12, 20) are left out so that two passes fit in one run
RATIONAL_SEEDS = (0, 2, 3, 4, 5, 13, 17, 22, 28, 34)
RATIONAL_TINY_SEEDS = (0, 13)
RATIONAL_WARMUP_SEED = 7
RATIONAL_TINY_WARMUP_SEED = 2

QUADRIC_MONOMIALS = [e for e in itertools.product(range(3), repeat=5) if sum(e) == 2]


def random_integer_cubic(seed: int) -> dict:
    """x0*Q0 + x1*Q1 with every quadric coefficient uniform in [-2, 2]."""
    rng = random.Random(seed)
    terms: dict = {}
    for i in (0, 1):
        for e in QUADRIC_MONOMIALS:
            c = rng.randint(-2, 2)
            if c:
                key = tuple(v + (j == i) for j, v in enumerate(e))
                terms[key] = terms.get(key, 0) + c
    return {e: c for e, c in terms.items() if c}


def evaluate(terms: dict, point) -> int:
    total = 0
    for e, c in terms.items():
        term = c
        for x, k in zip(point, e):
            term *= x**k
        total += term
    return total


def partial(terms: dict, i: int) -> dict:
    out: dict = {}
    for e, c in terms.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, 0) + c * e[i]
    return out


def pencil_member_gram(terms: dict, s: int, t: int) -> list[list[Fraction]]:
    """Gram matrix of the residual quadric of the member [s, t], in (u, x2, x3, x4).

    Putting x0 = s*u, x1 = t*u into the cubic gives u times this quadric.
    """
    gram = [[Fraction(0)] * 4 for _ in range(4)]
    for (e0, e1, *rest), c in terms.items():
        idx = [0] * (e0 + e1 - 1) + [i for i, k in enumerate(rest, 1) for _ in range(k)]
        i, j = idx
        coeff = Fraction(c * s**e0 * t**e1)
        gram[i][j] += coeff / 2
        gram[j][i] += coeff / 2
    return gram


def determinant(rows) -> Fraction:
    a = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def is_square(x: Fraction) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def check_verdict(terms: dict, verdict) -> None:
    """Recheck a verdict on the integer cubic, independently of its search.

    The plane is the standard one, so normalization keeps the coordinates
    and witness rows can be evaluated on the input cubic directly.
    """
    if verdict.kind == "Rational":
        w = verdict.witness
        if w["type"] == "node":
            pt = w["point"]
            check(evaluate(terms, pt) == 0, "node witness off the cubic")
            check(all(evaluate(partial(terms, i), pt) == 0 for i in range(5)), "node witness is smooth")
        else:
            a, b = w["rows"]
            on_line = (a, b, [x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)])
            check(all(evaluate(terms, v) == 0 for v in on_line), "line witness off the cubic")
    elif verdict.kind == "Irrational":
        cert = verdict.certificate
        diagonal = cert["diagonal"]
        gram = pencil_member_gram(terms, *cert["pencil_member"])
        det = determinant(gram)
        check(det != 0, "the certified pencil member is singular")
        # the diagonal must be a diagonalization of this member: same
        # discriminant, that is the same sign and equal up to a rational square
        ratio = det * math.prod(diagonal)
        check(ratio > 0 and is_square(ratio), "diagonal is not a form of the certified pencil member")
        if cert["place"] == "real":
            minors = [determinant([row[:k] for row in gram[:k]]) for k in range(1, 5)]
            definite = all(m > 0 for m in minors) or all((-1) ** k * m > 0 for k, m in enumerate(minors, 1))
            check(definite, "the certified pencil member is not definite")
        check(obstruction_confirmed_by_residues(tuple(diagonal), cert["place"]),
              "obstruction fails the residue recheck")
    else:
        check(verdict.witness is None and verdict.certificate is None, "Unknown verdict carries evidence")


def rational_random(seed: int) -> None:
    terms = random_integer_cubic(seed)
    check_verdict(terms, decide_over_rationals(terms, height_bound=RATIONAL_HEIGHT))


def rational_frozen(name: str) -> None:
    terms, expected = FROZEN[name]
    verdict = decide_over_rationals(terms, height_bound=RATIONAL_HEIGHT)
    check_verdict(terms, verdict)
    report = verdict.to_report()
    for path, value in expected.items():
        got = report
        for key in path.split("."):
            got = got[key]
        check(got == value, f"{name}: {path} = {got!r}, the tests pin {value!r}")


def rational(seeds, frozen=True) -> list[Instance]:
    out = []
    if frozen:
        out += [Instance("rational", "frozen", None, name, lambda n=name: rational_frozen(n)) for name in FROZEN]
    out += [Instance("rational", "random", None, s, lambda s=s: rational_random(s)) for s in seeds]
    return out


# ---------------------------------------------------------------------------
# the lists a run uses
# ---------------------------------------------------------------------------


def measured(workload: str, run_seed: int, tiny: bool) -> list[Instance]:
    """The pass of one run, in the order ``run_seed`` fixes."""
    if workload == "census":
        out = census([0], CENSUS_TINY_FIELDS) if tiny else census(CENSUS_SEEDS, CENSUS_FIELDS)
    elif workload == "group-law":
        out = group(GROUP_TINY_SEEDS if tiny else GROUP_SEEDS)
    else:
        out = rational(RATIONAL_TINY_SEEDS if tiny else RATIONAL_SEEDS)
    random.Random(run_seed).shuffle(out)
    return out


def warmups(workload: str, tiny: bool) -> list[Instance]:
    """One untimed instance of each kind, from a seed outside the measured list."""
    if workload == "census":
        return census([CENSUS_WARMUP_SEED], CENSUS_TINY_FIELDS if tiny else CENSUS_FIELDS)
    if workload == "group-law":
        return group([GROUP_WARMUP_SEED])
    return rational([RATIONAL_TINY_WARMUP_SEED if tiny else RATIONAL_WARMUP_SEED], frozen=False)
