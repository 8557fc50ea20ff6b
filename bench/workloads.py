"""The benchmark's workloads: seeded job lists and the reference each
job's output is checked against.

A reference comes from the known link type of the generated input (the
braid it closes), the benchmark's own arc derivation from the PD code,
and the closed-form class counts; never from foxcolor itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable

import gen

VERIFY_PRIMES = (3, 5, 7, 11)
VERIFY_SEED = "101"


@dataclass(frozen=True)
class Target:
    name: str
    crossings: int
    torsion: tuple[int, ...]  # invariant factors other than 1 and the trailing 0
    pd: str
    n_arcs: int
    relations: tuple[tuple[int, int, int], ...]

    def nullity(self, p: int) -> int:
        return 1 + sum(1 for t in self.torsion if t % p == 0)

    def is_coloring(self, values, m: int) -> bool:
        return (len(values) == self.n_arcs and all(0 <= v < m for v in values)
                and all((values[i] + values[k] - 2 * values[j]) % m == 0
                        for i, k, j in self.relations))


def make_target(name: str, strands: int, word, torsion) -> Target:
    quads = gen.closure_pd(strands, word)
    n_arcs, rels = gen.arcs_and_relations(quads)
    return Target(name, len(quads), tuple(torsion), gen.pd_text(quads), n_arcs, tuple(rels))


def grown(name: str, crossings: int, rng: random.Random) -> Target:
    strands, word, torsion = gen.BRAIDS[name]
    strands, word = gen.grow(strands, word, crossings, rng)
    return make_target(f"{name}~{len(word)}", strands, word, torsion)


def torus_sum(k: int, q: int) -> Target:
    return make_target(f"T(2,{q})^#{k}", *gen.torus_sum(k, q))


def ladder(lo: int, hi: int, n: int) -> list[int]:
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def closed_form(kind: str, p: int, n: int) -> tuple[int, int]:
    """(class count, orbit size) for an odd prime p and nullity n."""
    if n < 2:
        return 0, 0
    if kind == "aut":
        return (p ** (n - 1) - 1) // (p - 1), p * (p - 1)
    return (p ** (n - 1) - 1) // 2, 2 * p


# A check takes the parsed --json output and returns None, or what is wrong.
Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    check: Check

    def verdict(self, rc: int, out: str) -> str | None:
        """None if the job exited 0 and its stdout meets the reference."""
        if rc != 0:
            return f"{self.label}: exit code {rc}"
        try:
            return self.check(json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{self.label}: malformed output ({exc!r})"


def check_analyze(t: Target, m: int) -> Check:
    """For a composite m, which has no "nullity" key in the output."""
    factors = [1] * (t.n_arcs - len(t.torsion) - 1) + list(t.torsion) + [0]
    colorings = m * prod(gcd(f, m) for f in t.torsion)
    expected = {"target": "<pd>", "crossings": t.crossings, "arcs": t.n_arcs,
                "invariant_factors": factors, "determinant": prod(t.torsion),
                "mod": m, "colorings": colorings, "nontrivial": colorings - m}

    def check(got):
        return None if got == expected else f"analyze {t.name}: {got} != {expected}"
    return check


def _affine_images(values, kind: str, m: int):
    lams = [1, m - 1] if kind == "inn" else [u for u in range(1, m) if gcd(u, m) == 1]
    for lam in lams:
        for mu in range(m):
            yield tuple((lam * v + mu) % m for v in values)


def check_classes(t: Target, q: int, kind: str) -> Check:
    n = t.nullity(q)
    count, size = closed_form(kind, q, n)

    def check(got):
        head = {k: got.get(k) for k in ("target", "mod", "group", "nontrivial", "class_count")}
        want = {"target": "<pd>", "mod": q, "group": kind, "nontrivial": q ** n - q,
                "class_count": count}
        if head != want or len(got["orbits"]) != count:
            return f"classes {kind} {t.name}: {head} != {want}"
        reps = [tuple(o["representative"]) for o in got["orbits"]]
        if any(o["size"] != size for o in got["orbits"]):
            return f"classes {kind} {t.name}: orbit sizes are not all {size}"
        if reps != sorted(set(reps)):
            return f"classes {kind} {t.name}: representatives not strictly increasing"
        for rep in reps:
            if not t.is_coloring(rep, q) or len(set(rep)) < 2:
                return f"classes {kind} {t.name}: {rep} is not a non-trivial coloring"
            if min(_affine_images(rep, kind, q)) != rep:
                return f"classes {kind} {t.name}: {rep} is not least in its orbit"
        return None
    return check


def check_enumerate_all(t: Target, q: int) -> Check:
    n = t.nullity(q)

    def check(got):
        cols = [tuple(c) for c in got["colorings"]]
        if (got["count"], len(cols), len(set(cols))) != (q ** n,) * 3 or got["nontrivial_only"]:
            return f"enumerate {t.name}: {got['count']} colorings, {len(set(cols))} distinct, want {q ** n}"
        bad = next((c for c in cols if not t.is_coloring(c, q)), None)
        return None if bad is None else f"enumerate {t.name}: {bad} breaks a crossing equation"
    return check


def check_verify(t: Target, primes) -> Check:
    expected = []
    for p in primes:
        n = t.nullity(p)
        aut, aut_size = closed_form("aut", p, n)
        inn, inn_size = closed_form("inn", p, n)
        expected.append({"knot": "<pd>", "p": p, "nullity": n,
                         "aut_classes": aut, "inn_classes": inn,
                         "predicted_aut": aut, "predicted_inn": inn,
                         "orbit_sizes": [aut_size] * aut, "inn_orbit_sizes": [inn_size] * inn,
                         "invariant_across_moves": True, "failures": []})
    expected = {"target": "<pd>", "reports": expected}

    def check(got):
        return None if got == expected else f"verify {t.name}: {got} != {expected}"
    return check


def analyze_large(rng: random.Random) -> list[Job]:
    """Crossing-count axis: one large Smith form per job."""
    jobs = []
    for i, size in enumerate(ladder(80, 320, 15)):
        t = grown(("9_40", "7_1", "6_3")[i % 3], size, rng)
        jobs.append(Job(f"analyze {t.name}", ("analyze", t.pd, "--mod", "15", "--json"),
                        check_analyze(t, 15)))
    return jobs


def classes_nullity(rng: random.Random) -> list[Job]:
    """Nullity axis: kernel enumeration and orbit partition dominate."""
    jobs = []
    for k, q in ((3, 3), (4, 3), (5, 3), (6, 3), (3, 5), (4, 5), (3, 7)):
        t = torus_sum(k, q)
        mod = ("--mod", str(q))
        for kind in ("aut", "inn"):
            jobs.append(Job(f"classes {kind} {t.name}",
                            ("classes", t.pd, *mod, "--group", kind, "--json"),
                            check_classes(t, q, kind)))
        jobs.append(Job(f"enumerate {t.name}", ("enumerate", t.pd, *mod, "--all", "--json"),
                        check_enumerate_all(t, q)))
    rng.shuffle(jobs)  # the sums are fixed inputs; the seed sets their order
    return jobs


def verify_sweep(rng: random.Random) -> list[Job]:
    """Primes x variants axis: many small Smith forms, kernel walks, moves."""
    targets = [grown(("9_40", "6_1", "7_1", "5_1")[i % 4], size, rng)
               for i, size in enumerate(ladder(30, 75, 9))]
    jobs = [Job(f"verify {t.name}",
                ("verify", t.pd, "--primes", ",".join(map(str, VERIFY_PRIMES)),
                 "--moves", "3", "--seed", VERIFY_SEED, "--json"),
                check_verify(t, VERIFY_PRIMES))
            for t in targets]
    for k in (3, 4):
        t = torus_sum(k, 3)
        jobs.append(Job(f"verify {t.name}",
                        ("verify", t.pd, "--primes", "3", "--moves", "3", "--seed", VERIFY_SEED,
                         "--json"),
                        check_verify(t, (3,))))
    return jobs


WORKLOADS = {
    "analyze_large": analyze_large,
    "classes_nullity": classes_nullity,
    "verify_sweep": verify_sweep,
}

# the tail percentile of job time reported per workload; each is the
# highest of 50/75/90/95/99 with at least ten job samples beyond it in a
# run of BENCHMARK.json's length at the commit that defined the workload
TAIL_PERCENTILE = {"analyze_large": 75, "classes_nullity": 90, "verify_sweep": 75}


def inputs_digest(jobs) -> str:
    """sha256 over every job's argument list, in order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update("\0".join(job.argv).encode() + b"\n")
    return h.hexdigest()


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
