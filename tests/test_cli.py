import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import foxcolor
from foxcolor import cli, orbits
from foxcolor.cli import main
from foxcolor.coloring import Colorings, enumerate_colorings
from foxcolor.diagram import build_diagram, catalog, parse_pd

TREFOIL = "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]"
# sha256 of stdout before the crossing-free unknot went through the
# Smith form of its 0x1 coloring matrix, when it was a special case
UNKNOT_SHA256 = {
    ("analyze", "unknot", "--json"):
        "890c98614ac94d3bec9e554573c756ba738a01071e2171c85cfd3f895a42dfee",
    ("analyze", "unknot", "--mod", "9"):
        "6dc48baa1e0d7fb662a458638cf370a2e79df278a430ec06d7b7f2247028ea8c",
    ("classes", "unknot", "--mod", "5", "--json"):
        "86df3735bb7acf04b1f922d5f9e910971d3c76138480ed118fcf746624c5b7e5",
    ("enumerate", "unknot", "--mod", "7", "--all", "--json"):
        "3adc2232fdaa3eb40225cdab45c22b457292388ec33b09b1d778c9306a19ceed",
    ("verify", "unknot", "--primes", "3,5,7", "--json"):
        "6c40a6f0c8cfc6b8028ad32f52eddf029bcdab057f8301142a8567d4181bc84b",
    ("enumerate", "unknot", "--mod", "7"):
        "70212fb94ff42449fe322949570995df73e88e52b8d519265f89b63f12679f28",
    ("classes", "unknot", "--mod", "7"):
        "24e2b06fee07722b71276e792b85f30e1c48e1a9db451684ed0bdb295a75bc81",
    ("verify", "unknot", "--primes", "5"):
        "628415f89be075bd717fa6ed64493676644da71fe9abd108e7890d443fbfd980",
}

# the Borromean rings of LINKS in test_oracle_differential.py
BORROMEAN = "[[2,5,4,1],[5,3,7,6],[6,9,8,4],[9,7,11,10],[10,12,1,8],[12,11,3,2]]"
# the enumerate-and-partition path: kernel walk, non-trivial filter,
# orbit images and the JSON writer
COLORING_PATH_SHA256 = {
    ("classes", "9_40", "--mod", "5", "--json"):
        "a6d17f4eed9eec8742d9b7abd4f553a5733dec7fd8f871a3cee54cdcdba1aaa3",
    ("classes", "9_40", "--mod", "15", "--group", "inn", "--json"):
        "33b33a49f79edcfce400aef4be6a0cddea5c216844ae6b1620b4d3b8b49b1ae0",
    ("classes", "6_1", "--mod", "9", "--json"):
        "614d3948ddcbdf680779a0b63082d08cc12450dee93f0310c4b668e08f89a923",
    ("enumerate", "9_40", "--mod", "10", "--json"):
        "e300ac698a10fe0dd3a0460e8abc514b16a17458b3256d1fb7e43e6f23dc74bc",
    ("enumerate", "6_1", "--mod", "9", "--all", "--json"):
        "86ba6d7f23e2c2e1ed45d83a47acdbfe49348a22ca48248aad0579bff893e0e7",
    ("classes", BORROMEAN, "--mod", "6"):
        "82f56e2bc3ab09448d63b47d976d7e20685732dd3cd82e69f9c3ac62c6e1f6cd",
    ("classes", BORROMEAN, "--mod", "6", "--json"):
        "38e4d0c2be471504be49f1aa1810aa21ba5ee000f787db72e8813ec2c81ef09c",
    ("enumerate", BORROMEAN, "--mod", "6"):
        "a4712bb06695e6f75b1c9c6e044398e9df5c4252527d65ca3d39359f5201035b",
    ("enumerate", BORROMEAN, "--mod", "6", "--json"):
        "6cee271ee7873ad8bbbb8808164e72ba8261b9a28536b86ca2ec86c0c48de1d8",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_trefoil_mod3(self, capsys):
        code, out, _ = run(capsys, "analyze", "3_1", "--mod", "3")
        assert code == 0
        assert "determinant       3" in out
        assert "nullity mod 3     2" in out
        assert "9 (6 non-trivial)" in out

    def test_pd_literal_with_surrounding_whitespace(self, capsys):
        for target in (" " + TREFOIL, TREFOIL + "\n", "\t" + TREFOIL + " "):
            code, out, _ = run(capsys, "analyze", target)
            assert code == 0, repr(target)
            assert "determinant       3" in out
        _, expected, _ = run(capsys, "analyze", "3_1")
        for target in (" 3_1", "3_1\n"):
            code, out, _ = run(capsys, "analyze", target)
            assert code == 0, repr(target)
            assert out == expected
        for target in (" nope", " 3_x"):
            code, _, err = run(capsys, "analyze", target)
            assert code == 1, repr(target)
            assert "unknown catalog name" in err

    def test_figure8_determinant(self, capsys):
        code, out, _ = run(capsys, "analyze", "4_1")
        assert code == 0
        assert "determinant       5" in out

    def test_pd_literal_target(self, capsys):
        code, out, _ = run(capsys, "analyze", TREFOIL)
        assert code == 0
        assert "determinant       3" in out

    def test_invalid_pd_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "[[1,4,2,5],[3,6,4,1]]")
        assert code == 1
        for label in ("2", "3", "5", "6"):
            assert label in err

    def test_bool_label_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "[[true,2,2,1]]")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_deeply_nested_pd_exit_1(self, capsys):
        for pd in ("[" * 100_000, "[" * 5_000 + "]" * 5_000):
            code, out, err = run(capsys, "analyze", pd)
            assert code == 1
            assert out == ""
            assert "nested too deeply" in err
            assert "Traceback" not in err

    def test_label_gap_error_names_input_labels(self, capsys):
        for pd, label in (("[[1,2,3,7]]", "7"),
                          ("[[1,2,3,99999999999999999999999999999]]",
                           "99999999999999999999999999999")):
            code, out, err = run(capsys, "analyze", pd)
            assert code == 1
            assert out == ""
            assert f"offending labels: [1, 2, 3, {label}]" in err

    def test_large_prime_modulus(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "3_1", "--mod", "1000000000000000003", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["nullity"] == 1

    def test_large_composite_modulus(self, capsys):
        code, out, _ = run(capsys, "analyze", "3_1", "--mod", str(10 ** 30), "--json")
        assert code == 0
        assert "nullity" not in json.loads(out)

    def test_undecidable_modulus_exit_1(self, capsys):
        # 3317044064679887385961981 has no factor up to 41 and is past the
        # bound where Miller-Rabin with those bases is proven exact
        code, out, err = run(capsys, "analyze", "3_1", "--mod", "3317044064679887385961981")
        assert code == 1
        assert out == ""
        assert "prime" in err

    @pytest.mark.parametrize("mod, message", [
        ("1", "--mod must be at least 2"), ("-5", "--mod must be at least 2"),
        ("3317044064679887385961981", "cannot decide whether 3317044064679887385961981 is prime")])
    def test_mod_checked_before_smith_form(self, capsys, monkeypatch, mod, message):
        # on a large diagram the Smith form takes seconds: a bad --mod exits first
        def unreached(*args, **kwargs):
            raise AssertionError("profile ran")

        monkeypatch.setattr(cli.col, "profile", unreached)
        code, out, err = run(capsys, "analyze", "3_1", "--mod", mod)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("mod", ["1", "0"])
    def test_enumerate_mod_checked_before_smith_form(self, capsys, monkeypatch, mod):
        def unreached(*args, **kwargs):
            raise AssertionError("profile ran")

        monkeypatch.setattr(cli.col, "profile", unreached)
        code, out, err = run(capsys, "enumerate", "3_1", "--mod", mod)
        assert code == 1
        assert out == ""
        assert err == "error: modulus must be at least 2\n"

    def test_nonplanar_pd_exit_1(self, capsys):
        code, out, err = run(capsys, "analyze", "[[1,2,1,2]]")
        assert code == 1
        assert out == ""
        assert "planar" in err
        assert "Traceback" not in err

    def test_unknown_name_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "8_19")
        assert code == 1
        assert "8_19" in err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "3_1", "--badflag"])
        assert exc.value.code == 1

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "9_40", "--mod", "5", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["determinant"] == 75
        assert blob["nullity"] == 3
        assert blob["colorings"] == 125
        assert blob["nontrivial"] == 120

    def test_stdin_target(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(TREFOIL))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert "determinant       3" in out

    def test_file_target(self, capsys, tmp_path):
        path = tmp_path / "knot.pd"
        path.write_text(TREFOIL)
        code, out, _ = run(capsys, "analyze", f"@{path}")
        assert code == 0
        assert "determinant       3" in out


class TestClasses:
    def test_940_aut(self, capsys):
        code, out, _ = run(capsys, "classes", "9_40", "--mod", "5", "--group", "aut")
        assert code == 0
        assert "classes: 6" in out
        assert out.count("  20    ") == 6

    def test_figure8_inn(self, capsys):
        code, out, _ = run(capsys, "classes", "4_1", "--mod", "5", "--group", "inn")
        assert code == 0
        assert "classes: 2" in out

    def test_no_colorings(self, capsys):
        code, out, _ = run(capsys, "classes", "3_1", "--mod", "5", "--group", "aut")
        assert code == 0
        assert "classes: 0" in out

    def test_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "classes", "9_40", "--mod", "5", "--budget", "10")
        assert code == 2
        assert "budget" in err

    def test_negative_budget_exit_1(self, capsys):
        code, out, err = run(capsys, "classes", "3_1", "--mod", "3", "--budget", "-1")
        assert code == 1
        assert out == ""
        assert "--budget" in err

    def test_budget_before_group(self, capsys, monkeypatch):
        # the budget error comes before build_group is called at all
        calls = []
        build_group = orbits.build_group

        def recording_build_group(kind, m):
            calls.append((kind, m))
            return build_group(kind, m)

        monkeypatch.setattr(orbits, "build_group", recording_build_group)
        code, out, err = run(capsys, "classes", "3_1", "--mod", "401", "--budget", "1")
        assert code == 2
        assert out == ""
        assert "budget" in err
        assert calls == []
        code, _, _ = run(capsys, "classes", "3_1", "--mod", "401", "--group", "inn")
        assert code == 0
        assert calls == [("inn", 401)]

    def test_no_colorings_build_no_table(self, capsys, monkeypatch):
        # the group of 3001 * 3000 maps is never listed when nothing is partitioned:
        # reading its byte tables fails at once, and nothing is cached on it
        groups = []
        build_group = orbits.build_group

        def recording_build_group(kind, m):
            groups.append(build_group(kind, m))
            return groups[-1]

        def no_tables(group):
            raise AssertionError(f"tables of a group of {group.size} built")

        monkeypatch.setattr(orbits, "build_group", recording_build_group)
        monkeypatch.setattr(orbits.GroupSpec, "byte_tables", property(no_tables))
        code, out, _ = run(capsys, "classes", "3_1", "--mod", "3001")
        assert code == 0
        assert "classes: 0" in out
        [group] = groups
        assert (len(group.lams), len(group.mus)) == (3000, 3001)
        assert group.size == 3001 * 3000
        assert vars(group).keys() == {"kind", "modulus", "lams", "mus"}

    def test_bad_modulus_before_budget(self, capsys):
        # m = 2 has no group; that input error wins over the enumeration budget
        code, _, err = run(capsys, "classes", "9_40", "--mod", "2", "--budget", "1")
        assert code == 1
        assert "modulus" in err


class TestEnumerate:
    def test_nontrivial(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3_1", "--mod", "3")
        assert code == 0
        assert "non-trivial colorings: 6" in out

    def test_all_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3_1", "--mod", "3", "--all", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["count"] == 9
        assert len(blob["colorings"]) == 9

    def test_negative_budget_exit_1(self, capsys):
        code, out, err = run(capsys, "enumerate", "3_1", "--mod", "3", "--budget", "-1")
        assert code == 1
        assert out == ""
        assert "--budget" in err

    @pytest.mark.parametrize("verb, args", [
        ("enumerate", ("--mod", "7")),
        ("classes", ("--mod", "7")),
        ("verify", ("--primes", "5")),
    ], ids=("enumerate", "classes", "verify"))
    def test_unknot_obeys_budget(self, capsys, verb, args):
        # the unknot has as many colorings as the trefoil here (7 mod 7,
        # 5 mod 5), and exceeds a budget below that count the same way
        code, out, err = run(capsys, verb, "unknot", *args, "--budget", "3")
        assert (code, out) == (2, "")
        assert run(capsys, verb, "3_1", *args, "--budget", "3") == (2, "", err)
        code, out, _ = run(capsys, verb, "unknot", *args, "--budget", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == UNKNOT_SHA256[(verb, "unknot", *args)]


class TestVerify:
    def test_figure8(self, capsys):
        code, out, _ = run(capsys, "verify", "4_1", "--primes", "5", "--moves", "3")
        assert code == 0
        assert "PASS" in out
        assert "aut 1 (predicted 1)" in out
        assert "inn 2 (predicted 2)" in out

    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "verify", "3_1", "--primes", "3", "--moves", "2")
        assert code == 0
        assert "PASS" in out

    def test_unknot_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", "unknot", "--primes", "3")
        assert code == 0
        assert "PASS" in out

    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "verify", "3_1", "--primes", "4")
        assert code == 1
        assert "odd prime" in err

    def test_empty_primes_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "3_1", "--primes", "")
        assert code == 1
        assert out == ""
        assert "--primes" in err

    @pytest.mark.parametrize("primes", ["3,3", "3,5,03", " 3 , 5,3"])
    def test_repeated_prime_exit_1(self, capsys, monkeypatch, primes):
        def unreached(*args, **kwargs):
            raise AssertionError("verify_counts ran")

        monkeypatch.setattr(cli.orb, "verify_counts", unreached)
        code, out, err = run(capsys, "verify", "3_1", "--primes", primes)
        assert code == 1
        assert out == ""
        assert "--primes repeats 3" in err

    def test_negative_moves_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "3_1", "--primes", "3", "--moves", "-2")
        assert code == 1
        assert out == ""
        assert "--moves" in err

    def test_negative_budget_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "3_1", "--primes", "3", "--budget", "-1")
        assert code == 1
        assert out == ""
        assert "--budget" in err

    def test_large_prime_exceeds_budget(self, capsys):
        code, out, err = run(capsys, "verify", "3_1", "--primes", "1000000000000000003")
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_seeded_output_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "4_1", "--primes", "5", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "4_1", "--primes", "5", "--seed", "9")
        assert out1 == out2

    def test_failed_verification_exit_3(self, capsys, monkeypatch):
        import dataclasses
        import foxcolor.cli as cli
        real = cli.orb.verify_counts

        def broken(*args, **kwargs):
            return tuple(dataclasses.replace(report, failures=("injected mismatch",))
                         for report in real(*args, **kwargs))

        monkeypatch.setattr(cli.orb, "verify_counts", broken)
        code, out, _ = run(capsys, "verify", "4_1", "--primes", "5")
        assert code == 3
        assert "FAIL" in out and "injected mismatch" in out


class TestCatalogVerb:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "9_40" in out and "75" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        entries = {e["name"]: e for e in json.loads(out)["catalog"]}
        assert entries["3_1"]["determinant"] == 3
        assert entries["9_40"]["crossings"] == 9


class TestMoves:
    def test_sites_applied(self, capsys):
        code, out, _ = run(capsys, "moves", "3_1", "--site", "R1_insert:1",
                           "--site", "R2_insert:2:3")
        assert code == 0
        assert "crossings: 6" in out

    def test_emits_parseable_diagram(self, capsys):
        code, out, _ = run(capsys, "moves", "3_1", "--random", "3", "--seed", "4", "--json")
        assert code == 0
        blob = json.loads(out)
        pd = parse_pd(json.dumps(blob["crossings"]))
        assert pd.n_crossings >= 3

    def test_negative_random_exit_1(self, capsys):
        code, out, err = run(capsys, "moves", "3_1", "--random", "-1")
        assert code == 1
        assert out == ""
        assert "--random" in err

    def test_bad_site_exit_1(self, capsys):
        code, _, err = run(capsys, "moves", "3_1", "--site", "R9:1")
        assert code == 1
        assert "R9" in err

    def test_inapplicable_site_exit_1(self, capsys):
        code, _, err = run(capsys, "moves", "3_1", "--site", "R1_delete:2")
        assert code == 1
        assert "kink" in err

    @pytest.mark.parametrize("target, site, message", [
        ("3_1", "R1_insert:1:99", "R1_insert takes 1 edge, not 2"),
        ("4_1", "R2_insert:1:4:7", "R2_insert takes 2 edges, not 3"),
        ("4_1", "R2_insert:1:4:over", "only R1_insert takes 'over', not R2_insert"),
        ("3_1", "R3:1:over", "only R1_insert takes 'over', not R3"),
        ("3_1", "R1_insert", "R1_insert needs an edge"),
        ("3_1", "R2_insert:1", "R2_insert needs (over_edge, under_edge)"),
    ])
    def test_site_with_what_its_kind_cannot_use_exit_1(self, capsys, target, site, message):
        code, out, err = run(capsys, "moves", target, "--site", site)
        assert code == 1
        assert out == ""
        assert message in err


class TestJsonRoundTrip:
    """Every verb's --json output is json.dumps(payload, indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("argv", [
        ("analyze", "9_40", "--mod", "5", "--json"),
        ("classes", "4_1", "--mod", "5", "--group", "inn", "--json"),
        ("enumerate", "3_1", "--mod", "3", "--json"),
        ("verify", "4_1", "--primes", "5", "--json"),
        ("catalog", "--json"),
        ("moves", "3_1", "--site", "R1_insert:1", "--json"),
        ("enumerate", "4_1", "--mod", "5", "--all", "--json"),
        ("classes", "3_1", "--mod", "9", "--json"),
        ("analyze", "9_40", "--json"),
        ("analyze", "unknot", "--mod", "3", "--json"),
        ("classes", "9_40", "--mod", "15", "--group", "inn", "--json"),
        ("classes", "3_1", "--mod", "5", "--json"),
        ("verify", "9_40", "--primes", "3,5", "--json"),
        ("moves", "4_1", "--random", "3", "--json"),
    ])
    def test_byte_identical_regeneration(self, capsys, monkeypatch, argv):
        # compared with the payload the verb built, not with re-parsed output,
        # so a value the writer changed (a bool written as an int) shows too
        payloads = []
        emit = cli._emit_json

        def recording_emit(payload):
            payloads.append(payload)
            emit(payload)

        monkeypatch.setattr(cli, "_emit_json", recording_emit)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        [payload] = payloads
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """The --json writer against json.dumps(indent=2, sort_keys=True), byte for byte."""

    @pytest.mark.parametrize("obj", [
        {}, [], (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]], [{}]],
        [1, True, 2, False], [True, False], [1, None, 0], None, True, 0, -1, 2 ** 64 + 1,
        [-1, -(2 ** 70), 2 ** 64, 0], (3, 1, 2), [1.5, 2], {"b": [1, [2, [3, []]]], "a": -7},
        "", 'quote " backslash \\ tab \t nl \n nul \x00 bell \x07',
        ["caf\u00e9", "\u03bb x", "\U0001f600", "\u2028"],
        {"z": None, "\u00e9": "\x1f", "": 0, "a b": [True]},
        {"orbits": [{"size": 6, "representative": [0, 0, 1]}], "target": "<pd>"},
        # lists of int rows, written a row at a time, and the lists that must not be
        {"colorings": [[0, 0, 0], [2, 1, 0]]}, [[5], (-(2 ** 70), 3)], ([1, 2],),
        [[1, 2], []], [[1], [True]], [[1], [0.5]], [[1], 2], [[[1]], [2]], [[1], {}],
        # int rows whose entries are negative, above 2^64, alone, or one repeated value
        [[-1, -2, 0], [-(2 ** 70), 5]], [[2 ** 64 + 1, 2 ** 65], [2 ** 64 + 1]], [[7]],
        [[0], [1], [0]], [[3, 3, 3], [3, 3]], {"colorings": [[4, 4], [4, 4]]},
        # lists of records, written a record at a time, and the lists that must not be
        [{"size": 1, "representative": [0, 1, 2]}], [{"a": 1}, {"b": 1}],
        [{"a": 1, "b": 2}, {"a": 1}], [{"a": True}], [{"a": 1}, {"a": False}],
        [{"a": [1, True]}], [{"a": 0.5}], [{"a": None}], [{"a": []}],
        [{"a": 1, "b": [2]}, {"a": 3, "b": []}], [{"a": (1, 2)}, {"a": [3]}],
        [{"z": -1, "a": [-(2 ** 70), 2 ** 64 + 1]}, {"z": 2 ** 65, "a": (0, -3)},
         {"z": -1, "a": [7]}],
        [{"a": {"b": 1}}], [{"a": 1, "b": {}}], [{}], [{}, {}], [{"a": 1}, {}], [{"a": [[1]]}],
        [{"a": 1}, [1]], [{"a": "x"}], ({"size": 3, "representative": (0, 2, 1)},),
        {"orbits": [{"size": 6, "representative": (0, 0, 1)},
                    {"size": 6, "representative": (0, 1, 1)}], "class_count": 2},
        [[{"a": 1}, {"a": 2}]], [{"a": 1, "b": [2, 2], "c": 1}, {"a": 1, "b": [2, 2], "c": 1}],
    ])
    def test_edge_cases(self, capsys, obj):
        cli._emit_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("rows", [
        [], [(0,)], [(0, 0, 0), (2, 1, 0)], [(7,), (7,)], [(3, 3, 3), (3, 3)],
        [(-1, -(2 ** 70), 0), (2 ** 64 + 1, 5)],
    ])
    def test_trusted_int_rows(self, capsys, rows):
        # the walk's rows skip the type scan and must still give json.dumps' bytes
        obj = {"colorings": cli._IntRows(rows), "count": len(rows)}
        cli._emit_json(obj)
        expected = json.dumps({"colorings": rows, "count": len(rows)}, indent=2, sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("records", [
        [], [{"size": 6, "representative": (0,)}],
        [{"size": 6, "representative": (0, 0, 1)}, {"size": 6, "representative": (0, 1, 1)}],
        [{"size": 2 ** 65, "representative": (-1, -(2 ** 70), 0)},
         {"size": -3, "representative": (2 ** 64 + 1, 5)}],
    ])
    def test_trusted_records(self, capsys, records):
        # the partition's representatives skip the type scan and must still
        # give json.dumps' bytes
        obj = {"class_count": len(records), "orbits": cli._IntRecords(records)}
        cli._emit_json(obj)
        expected = json.dumps({"class_count": len(records), "orbits": records},
                              indent=2, sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("m, kind", [(15, orbits.AUT), (300, orbits.INN)])
    def test_classes_representatives_are_trusted(self, capsys, monkeypatch, m, kind):
        def no_scan(rows):
            raise AssertionError("the representatives were scanned")

        nontrivial = enumerate_colorings(build_diagram(catalog("9_40")), m, nontrivial_only=True)
        part = orbits.orbit_partition(nontrivial, orbits.build_group(kind, m))
        monkeypatch.setattr(cli, "_are_int_rows", no_scan)
        code, out, _ = run(capsys, "classes", "9_40", "--mod", str(m), "--group", kind, "--json")
        assert code == 0
        assert json.loads(out)["orbits"] == [{"size": size, "representative": list(rep)}
                                             for rep, size in part.orbits]
        assert len(part.orbits) > 1

    def test_moves_crossings_are_scanned(self, capsys, monkeypatch):
        # crossings are rows the writer did not build, and are still checked
        scanned = []
        are_int_rows = cli._are_int_rows

        def recording(rows):
            scanned.append(rows)
            return are_int_rows(rows)

        monkeypatch.setattr(cli, "_are_int_rows", recording)
        code, out, _ = run(capsys, "moves", "3_1", "--site", "R1_insert:1", "--json")
        assert code == 0
        assert json.loads(out)["crossings"] in [list(map(list, rows)) for rows in scanned]

    def test_enumerate_rows_are_trusted(self, capsys, monkeypatch):
        def no_scan(rows):
            raise AssertionError("the walk's rows were scanned")

        monkeypatch.setattr(cli, "_are_int_rows", no_scan)
        code, out, _ = run(capsys, "enumerate", "4_1", "--mod", "5", "--all", "--json")
        assert code == 0
        walk = enumerate_colorings(build_diagram(catalog("4_1")), 5)
        assert json.loads(out)["colorings"] == [list(c.values) for c in walk]
        assert len(walk) == 25


class TestCollectorPause:
    """main runs a verb with the cyclic collector paused and leaves it as it found it."""

    @pytest.mark.parametrize("argv, expected", [
        (["analyze", "3_1", "--mod", "3"], 0),
        (["analyze", "[[1,2,3]]"], 1),
        (["classes", "no_such_knot", "--mod", "3"], 1),
        (["classes", "9_40", "--mod", "5", "--budget", "10"], 2),
    ])
    def test_enabled_state_restored(self, capsys, argv, expected):
        assert gc.isenabled()
        assert main(argv) == expected
        assert gc.isenabled()

    def test_enabled_state_restored_after_usage_error(self, capsys):
        assert gc.isenabled()
        with pytest.raises(SystemExit) as exc:
            main(["classes", "9_40", "--mod", "5", "--group", "sym"])
        assert exc.value.code == 1
        assert gc.isenabled()

    @pytest.mark.parametrize("argv, expected", [
        (["analyze", "3_1", "--mod", "3"], 0),
        (["analyze", "[[1,2,3]]"], 1),
    ])
    def test_disabled_state_kept(self, capsys, argv, expected):
        gc.disable()
        try:
            assert main(argv) == expected
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_verb_runs_paused(self, capsys, monkeypatch):
        seen = []

        def recording_catalog(args):
            seen.append(gc.isenabled())
            return cli.EXIT_OK

        # the cached parser holds the verbs it was built with
        monkeypatch.setattr(cli, "cmd_catalog", recording_catalog)
        cli.build_parser.cache_clear()
        try:
            assert main(["catalog"]) == 0
        finally:
            cli.build_parser.cache_clear()
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("argv, expected", [
        (["analyze", "9_40", "--mod", "5", "--json"], 0),
        (["classes", "9_40", "--mod", "5"], 0),
        (["classes", "9_40", "--mod", "300", "--json"], 0),
        (["enumerate", "6_1", "--mod", "9", "--all", "--json"], 0),
        (["verify", "4_1", "--primes", "3,5,7", "--moves", "2", "--seed", "7", "--json"], 0),
        (["moves", "9_40", "--random", "50", "--seed", "7", "--json"], 0),
        (["catalog", "--json"], 0),
        (["analyze", "[[1,2,3]]"], 1),
        (["classes", "no_such_knot", "--mod", "3"], 1),
        (["classes", "9_40", "--mod", "5", "--budget", "10"], 2),
    ])
    def test_no_cyclic_garbage(self, argv, expected):
        # with the collector paused, a cycle a verb built would be held
        # until the next collection; no verb may build one
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(["catalog"])  # builds the parser, whose cycles are not a verb's
        gc.collect()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert gc.collect() == 0
        assert code == expected


@pytest.mark.parametrize("argv", list(UNKNOT_SHA256))
def test_unknot_stdout_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == UNKNOT_SHA256[argv]


@pytest.mark.parametrize("argv", list(COLORING_PATH_SHA256))
def test_coloring_path_stdout_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COLORING_PATH_SHA256[argv]


# sha256 of stdout before enumerate_colorings returned a Colorings: 9_40 at
# m = 5 and 15, the Borromean rings' 2-byte lanes at 256, tuples at 263
WORDS_PATH_TARGETS = {5: "9_40", 15: "9_40", 256: BORROMEAN, 263: "[[2,4,3,1],[3,4,2,1]]"}
WORDS_PATH_SHA256 = {
    (5, "classes", "--json"): "a6d17f4eed9eec8742d9b7abd4f553a5733dec7fd8f871a3cee54cdcdba1aaa3",
    (5, "classes", "--group", "inn"):
        "a6b3435f75e5bbc54cb4f54356fdeebd2b2b7ba30bcf0a4a124e27f7e8fec971",
    (5, "enumerate", "--json"): "48ddf69da201154489a370d50734ca1d94ff8e5ea00ea914bcde6a812179dde2",
    (5, "enumerate"): "3a2b527052921aaf3d577257406554dd8cfac2dea3de252d713b052e7f9622ee",
    (5, "enumerate", "--all", "--json"):
        "7d900938bbeb7305af2bd38600d44d9e416ce35677bd9e35c631a09feeab3097",
    (15, "classes", "--json"): "e635553974c3e40dd96f72744c8f6af9f7f9d9c178fed607305ba4ea94177d74",
    (15, "classes", "--group", "inn"):
        "5ce10a326886acd7c7f38650bc50a96d73da2118f2aef34a1dda7c11ffa709d2",
    (15, "enumerate", "--json"): "0bdf8c6ccece875f279512aba9a565ca8d5227f0a303c8e5513169e043f3388b",
    (15, "enumerate"): "c32fc964b6a7c0d4559a91cc2b87aa804236f506abe33892ad36d081033e9d62",
    (15, "enumerate", "--all", "--json"):
        "a99d861a253f492031fbdf0a7bc9e2b47b94fb20d65a2eb6252083a711f3c23a",
    (256, "classes", "--json"): "15fedc2a3bdde626e94beba58de96af9d862e0aa63e74c687544bd4181e0188c",
    (256, "classes", "--group", "inn"):
        "d58249c39729b881d547562597ac7bbb85edea31b3886d894fcde5a3becde5db",
    (256, "enumerate", "--json"): "07780fa1675f8c24b87fc39b3c3c5e2d9aafd93fc658a1dfbff0f1a153ff6841",
    (256, "enumerate"): "60030d05c12cfc496c52cf3455e15151dfe2cefa19f74658ea07fc49a9dd676f",
    (256, "enumerate", "--all", "--json"):
        "15d305f02373e7648fe40618afbc5178c4a9656a7e9a8ca1180e3caa64805659",
    (263, "classes", "--json"): "e131b258fd64b978f34de8c0647e439fa717da762bb72dca6dac6ee856d55493",
    (263, "classes", "--group", "inn"):
        "f1d34786fa8a4f71c8944c40888b1c466f3c242e69e938b1397e88c3fc032746",
    (263, "enumerate", "--json"): "ae0bcbab746c8a6982f4a3af31ef9d4324fa818691c6d56145a60f10e4d7f65a",
    (263, "enumerate"): "41e15a2844dbcdf08828509c2a9f1d18e982c890a90a611cf97a85e69ff7dd74",
    (263, "enumerate", "--all", "--json"):
        "1acba4cdcaa08c4722e116a6830a11126fe5603bc4e46a7b4fa30fc70ed054f4",
}


@pytest.mark.parametrize("key", list(WORDS_PATH_SHA256),
                         ids=[" ".join(map(str, key)) for key in WORDS_PATH_SHA256])
def test_verbs_build_no_coloring(capsys, monkeypatch, key):
    # classes and enumerate read the walk's words; reading an item of the
    # Colorings, the one way to build a Coloring from it, fails here
    def no_item(*args):
        raise AssertionError("a Coloring was built")

    monkeypatch.setattr(Colorings, "__getitem__", no_item)
    monkeypatch.setattr(Colorings, "__iter__", no_item)
    m, verb, *flags = key
    code, out, _ = run(capsys, verb, WORDS_PATH_TARGETS[m], "--mod", str(m), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WORDS_PATH_SHA256[key]


def test_usage_error_leaves_parser_reusable(capsys):
    # main keeps one parser per process; a failed parse must not change it
    argv = ["classes", "9_40", "--mod", "5", "--group", "inn"]
    with pytest.raises(SystemExit) as exc:
        main(["classes", "9_40", "--mod", "5", "--group", "sym"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, _ = run(capsys, *argv)
    src = str(Path(foxcolor.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "foxcolor.cli", *argv], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert code == fresh.returncode == 0
    assert out == fresh.stdout
    assert "classes: 12" in out


def test_cli_import_leaves_numpy_unloaded():
    # keeps numpy, or any runtime dependency, out of the command line (~0.1 s to import)
    src = str(Path(foxcolor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    check = "import sys, foxcolor.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env, timeout=60).returncode == 0
