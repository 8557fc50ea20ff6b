"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import random
import sys
from math import prod
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TABLE_DETERMINANTS = {"3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9, "6_2": 11,
                      "6_3": 13, "7_1": 7, "9_40": 75}

# sha256 of the job arguments at the default seed; a change here changes
# what every later measurement means
DEFAULT_SEED_DIGESTS = {
    "analyze_large": "510e8914987a1c43e3349e76f202e15ebd4ebff5c6ab5b89473d911ef0101b13",
    "classes_nullity": "38a291da6db164f369519efab59ca405609a11628cb04c241152e7c6fe40822a",
    "verify_sweep": "3b4e22c6f0dbd648fbc2e9fd73ec336490207116ab6345770ded1a33c7427fb4",
}


def test_braids_reproduce_catalog_determinants():
    assert set(gen.BRAIDS) == set(TABLE_DETERMINANTS)
    for name, (strands, word, torsion) in gen.BRAIDS.items():
        assert gen.determinant(gen.closure_pd(strands, word)) == TABLE_DETERMINANTS[name]
        assert prod(torsion) == TABLE_DETERMINANTS[name]


def test_growth_keeps_the_determinant():
    rng = random.Random(5)
    for name, (strands, word, _) in gen.BRAIDS.items():
        s, w = gen.grow(strands, word, 40, rng)
        assert len(w) in (40, 41)
        assert gen.determinant(gen.closure_pd(s, w)) == TABLE_DETERMINANTS[name]
    for k, q in ((2, 3), (3, 3), (2, 5)):
        s, w, torsion = gen.torus_sum(k, q)
        s, w = gen.grow(s, w, len(w) + 6, rng)
        assert gen.determinant(gen.closure_pd(s, w)) == q ** k == prod(torsion)


def test_default_seed_inputs_are_pinned():
    for name in workloads.WORKLOADS:
        assert workloads.inputs_digest(workloads.jobs_for(name, 1)) == DEFAULT_SEED_DIGESTS[name]
        assert workloads.inputs_digest(workloads.jobs_for(name, 2)) != DEFAULT_SEED_DIGESTS[name]


def _span(name, parent, *intervals):
    s = spans.Span(name, parent, 0)
    s.intervals.extend(intervals)
    return s


def test_self_time_on_a_synthetic_tree():
    root = _span("cli.main", None, (0.0, 10.0))
    a = _span("coloring.profile", root, (1.0, 4.0))
    a1 = _span("linalg.snf", a, (2.0, 3.0))
    g = _span("linalg.kernel", root, (5.0, 6.0), (7.0, 8.0))  # a generator's two steps
    g1 = _span("orbits.group", g, (5.25, 5.75))
    tree = [root, a, a1, g, g1]
    own = spans.self_times(tree)
    assert [own[id(s)] for s in tree] == [5.0, 2.0, 1.0, 1.5, 0.5]
    assert spans.accounting(tree) == (10.0, 10.0)


def _jobs_on(target):
    """classes aut, classes inn and enumerate --all jobs of one torus sum."""
    jobs = [j for j in workloads.classes_nullity(random.Random(0)) if j.label.endswith(target)]
    return sorted(jobs, key=lambda j: j.label)


def _cli_job(argv):
    import foxcolor.cli as cli
    return run.call_cli(cli, argv)


def test_tracer_accounts_for_a_real_job_and_restores_bindings():
    import foxcolor.cli
    import foxcolor.coloring as col
    import foxcolor.orbits as orb
    original = col.profile
    job = _jobs_on("T(2,3)^#3")[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert orb.profile is col.profile is not original
        rc, _, out = run.call_cli(foxcolor.cli, job.argv)
    finally:
        tracer.uninstall()
    tracer.finish_job(0)
    assert orb.profile is col.profile is original
    assert rc == 0 and job.verdict(rc, out) is None
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "diagram.parse", "linalg.snf", "linalg.kernel",
            "coloring.enumerate", "orbits.partition"} <= names
    total_self, root = spans.accounting(tracer.spans)
    assert abs(total_self - root) < 1e-9
    m = spans.layer_metrics(tracer.spans)
    assert m["linalg.kernel_vectors"] == 3 ** 4 == m["orbits.partition_colorings"] + 3


def test_checks_reject_wrong_output():
    for job in _jobs_on("T(2,3)^#3"):
        rc, _, out = _cli_job(job.argv)
        assert job.verdict(rc, out) is None
        payload = json.loads(out)
        if "orbits" in payload:
            payload["orbits"][0]["representative"][0] += 1
        else:
            payload["colorings"][-1][0] = (payload["colorings"][-1][0] + 1) % payload["mod"]
        assert job.verdict(0, json.dumps(payload)) is not None
        assert job.verdict(3, out) is not None
    analyze = workloads.analyze_large(random.Random(0))[0]
    rc, _, out = _cli_job(analyze.argv)
    assert analyze.verdict(rc, out) is None
    assert analyze.verdict(rc, out.replace('"determinant": 75', '"determinant": 76')) is not None


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(spans.layer_metrics([])) + ["cli.output_bytes", "trace.overhead_ratio"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_tail_percentile_counts_samples_beyond():
    assert run.percentile(list(range(1, 101)), 90) == (90, 10)
    assert run.percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)
