"""Command-line interface.

Verbs: analyze, classes, enumerate, verify, catalog, moves.  Targets are
catalog names, literal PD codes, @file, or "-" for stdin.  Every verb
takes --json for machine-readable output; exit codes are 0 success,
1 input error, 2 enumeration budget exceeded, 3 verification failure.

The --json text is json.dumps(payload, indent=2, sort_keys=True) byte for
byte.  A verb with one large list (enumerate's words, classes' orbits,
moves' crossings) names it and its shape, rows of ints or orbit records,
and the writer joins that list's text as the verb built it.

main runs a verb with the cyclic garbage collector paused and restores
its state on every exit: no verb builds a reference cycle, so a
collection would free nothing and only rescan the colorings that trip
its threshold.  The parser's own cycles are made before the pause.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import diagram as dia
from . import coloring as col
from . import orbits as orb

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


class _IntText(dict):
    """Each int's text, built on first lookup."""

    def __missing__(self, v):
        self[v] = text = int.__repr__(v)
        return text


def _int_rows(rows, sep: str):
    """The text of each row of plain ints, its entries joined by sep: one
    join per row, in C, of strings built on first lookup."""
    return map(sep.join, map(map, repeat(_IntText().__getitem__), rows))


def _items_json(bodies, out: list, indent: str, start: str, end: str) -> None:
    """Append a non-empty list whose items are start + body + end, in one join."""
    inner = "\n" + indent + "  "
    out += ("[" + inner + start, (end + "," + inner + start).join(bodies), end + "\n" + indent + "]")


def _rows_json(rows, out: list, indent: str) -> None:
    """Append a non-empty list of non-empty rows of plain ints: the words
    of a kernel walk (bytes, or int tuples above m = 256) or a diagram's
    crossings, each written as a list."""
    deeper = indent + "    "
    _items_json(_int_rows(rows, ",\n" + deeper), out, indent, "[\n" + deeper,
                "\n" + indent + "  ]")


def _orbits_json(orbits, out: list, indent: str) -> None:
    """Append a non-empty list of an orbit partition's (representative,
    size) pairs, each written as {"representative": [...], "size": n}."""
    deeper = indent + "    "
    bodies = map(f'{{}}\n{deeper}],\n{deeper}"size": {{}}'.format,
                 _int_rows(map(itemgetter(0), orbits), ",\n" + deeper + "  "),
                 map(itemgetter(1), orbits))
    _items_json(bodies, out, indent, f'{{\n{deeper}"representative": [\n{deeper}  ',
                "\n" + indent + "  }")


def _json_parts(obj, out: list, indent: str, key=None, shape=None) -> None:
    """Append the text of json.dumps(obj, indent=2, sort_keys=True) to out.

    With an indent, json.dumps runs its pure-Python encoder on every
    value.  Here containers are laid out in that same form and each
    scalar is one C call: dict keys, which must be strings, through
    encode_basestring_ascii (what json.dumps does with a str), values of
    type exactly int (not bool) through int.__repr__, anything else
    through json.dumps; a list of plain ints is one join.  The value of
    key in the dict obj, if it is a non-empty list, is written by shape.
    """
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{\n" + inner
        for k in sorted(obj):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            value = obj[k]
            (shape if k == key and value else _json_parts)(value, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        if set(map(type, obj)) == {int}:
            out += ("[\n" + inner, (",\n" + inner).join(map(int.__repr__, obj)),
                    "\n" + indent + "]")
            return
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _json_parts(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


def _emit_json(payload, key: str | None = None, shape=None) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline.

    A verb names its one large list, payload[key], and that list's shape:
    _rows_json for rows of plain ints (enumerate's words, moves'
    crossings) or _orbits_json for classes' orbits.  The list is written
    as it stands, one join of its items' texts, with no scan of their
    types and no list or dict built per item.
    """
    out: list[str] = []
    _json_parts(payload, out, "", key, shape)
    out.append("\n")
    sys.stdout.write("".join(out))


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _resolve_code(target: str) -> tuple[str, dia.PdCode]:
    """Target as catalog name, PD text, @file, or '-' (stdin)."""
    if target == "-":
        return "<stdin>", dia.parse_pd(sys.stdin.read())
    if target.startswith("@"):
        with open(target[1:], encoding="utf-8") as fh:
            return target[1:], dia.parse_pd(fh.read())
    stripped = target.strip()
    if stripped in dia.catalog_names():
        return stripped, dia.catalog(stripped)
    if stripped.startswith("["):
        return "<pd>", dia.parse_pd(target)
    raise dia.PdError(f"unknown catalog name {target!r} "
                      f"(known: {', '.join(dia.catalog_names())})")


def _resolve_target(target: str) -> tuple[str, dia.PlanarDiagram]:
    label, pd = _resolve_code(target)
    return label, dia.build_diagram(pd)


def _parse_site(spec: str) -> dia.MoveSite:
    parts = spec.split(":")
    kind = parts[0]
    if kind not in dia.MOVE_KINDS:
        raise dia.MoveError(f"unknown move kind {kind!r} (use one of {', '.join(dia.MOVE_KINDS)})")
    over = False
    if parts and parts[-1] == "over":
        over = True
        parts = parts[:-1]
    try:
        edges = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise dia.MoveError(f"bad move site {spec!r}; expected KIND:EDGE[:EDGE][:over]") from None
    return dia.MoveSite(kind, edges, over=over)


def cmd_analyze(args) -> int:
    label, d = _resolve_target(args.target)
    m = args.mod
    if m is not None and m < 2:  # both --mod checks come before the Smith form
        return _fail("--mod must be at least 2", EXIT_INPUT)
    prime = m is not None and col.is_odd_prime(m)
    pr = col.profile(d)
    payload = {
        "target": label,
        "crossings": d.n_crossings,
        "arcs": d.n_arcs,
        "invariant_factors": list(pr.invariant_factors),
        "determinant": pr.determinant,
    }
    if m is not None:
        payload["mod"] = m
        payload["colorings"] = total = pr.count(m)
        payload["nontrivial"] = total - m
        if prime:
            payload["nullity"] = pr.nullity(m)
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(f"target            {label}")
    print(f"crossings         {d.n_crossings}")
    print(f"arcs              {d.n_arcs}")
    print(f"invariant factors {', '.join(map(str, pr.invariant_factors))}")
    print(f"determinant       {pr.determinant}")
    if args.mod is not None:
        if "nullity" in payload:
            print(f"nullity mod {args.mod}     {payload['nullity']}")
        print(f"colorings mod {args.mod}   {payload['colorings']} ({payload['nontrivial']} non-trivial)")
    return EXIT_OK


def _arc_header(d: dia.PlanarDiagram) -> str:
    return " ".join(f"{i}:{lbl}" for i, lbl in enumerate(d.arc_labels()))


def cmd_classes(args) -> int:
    label, d = _resolve_target(args.target)
    if args.budget < 0:
        return _fail("--budget must be at least 0", EXIT_INPUT)
    orb.check_group(args.group, args.mod)  # input errors first, then the budget, then the group
    # the orbits are sorted by representative, so the walk's order does not show
    nontrivial = col.enumerate_colorings(d, args.mod, True, args.budget, ordered=False)
    group = orb.build_group(args.group, args.mod)
    part = orb.orbit_partition(nontrivial.words, group)
    payload = {
        "target": label,
        "mod": args.mod,
        "group": group.kind,
        "nontrivial": len(nontrivial),
        "class_count": part.class_count,
        "orbits": part.orbits,
    }
    if args.json:
        _emit_json(payload, "orbits", _orbits_json)
        return EXIT_OK
    print(f"{label}  mod {args.mod}  group {group.kind}")
    print(f"non-trivial colorings: {len(nontrivial)}")
    print(f"classes: {part.class_count}")
    if part.orbits:
        print(f"arcs: {_arc_header(d)}")
        print("class  size  representative")
        rows = _int_rows(map(itemgetter(0), part.orbits), " ")
        sys.stdout.write("".join(map("{:<5}  {:<4}  {}\n".format, count(1),
                                     map(itemgetter(1), part.orbits), rows)))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    label, d = _resolve_target(args.target)
    if args.budget < 0:
        return _fail("--budget must be at least 0", EXIT_INPUT)
    if args.mod < 2:  # before the Smith form
        return _fail("modulus must be at least 2", EXIT_INPUT)
    colorings = col.enumerate_colorings(d, args.mod, nontrivial_only=not args.all,
                                        budget=args.budget)
    payload = {
        "target": label,
        "mod": args.mod,
        "nontrivial_only": not args.all,
        "count": len(colorings),
        "colorings": colorings.words,
    }
    if args.json:
        _emit_json(payload, "colorings", _rows_json)
        return EXIT_OK
    print(f"{label}  mod {args.mod}  {'all' if args.all else 'non-trivial'} colorings: {len(colorings)}")
    if colorings:
        print(f"arcs: {_arc_header(d)}")
        sys.stdout.write("\n".join(chain(_int_rows(colorings.words, " "), [""])))
    return EXIT_OK


def cmd_verify(args) -> int:
    label, d = _resolve_target(args.target)
    try:
        primes = [int(p) for p in args.primes.split(",") if p.strip()]
    except ValueError:
        return _fail(f"bad --primes list {args.primes!r}", EXIT_INPUT)
    if not primes:
        return _fail("--primes names no prime", EXIT_INPUT)
    repeats = [p for i, p in enumerate(primes) if p in primes[:i]]
    if repeats:
        return _fail(f"--primes repeats {repeats[0]}", EXIT_INPUT)
    if args.moves < 0:
        return _fail("--moves must be at least 0", EXIT_INPUT)
    if args.budget < 0:
        return _fail("--budget must be at least 0", EXIT_INPUT)
    reports = orb.verify_counts(d, primes, label=label, variants=args.moves,
                                seed=args.seed, budget=args.budget)
    if args.json:
        _emit_json({"target": label, "reports": [r.to_json_dict() for r in reports]})
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {label} p={r.p}: nullity {r.nullity}, "
                  f"aut {r.aut_classes} (predicted {r.predicted_aut}), "
                  f"inn {r.inn_classes} (predicted {r.predicted_inn}), "
                  f"stable across {args.moves} variants: {r.invariant_across_moves}")
            for f in r.failures:
                print(f"  {f}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def cmd_catalog(args) -> int:
    entries = []
    for name in dia.catalog_names():
        d = dia.build_diagram(dia.catalog(name))
        pr = col.profile(d)
        entries.append({"name": name, "crossings": d.n_crossings,
                        "determinant": pr.determinant})
    if args.json:
        _emit_json({"catalog": entries})
        return EXIT_OK
    print("name    crossings  determinant")
    for e in entries:
        print(f"{e['name']:<7} {e['crossings']:<10} {e['determinant']}")
    return EXIT_OK


def cmd_moves(args) -> int:
    _, pd = _resolve_code(args.target)
    if args.random < 0:
        return _fail("--random must be at least 0", EXIT_INPUT)
    applied = []
    for spec in args.site or []:
        pd = dia.apply_move_pd(pd, _parse_site(spec))
        applied.append(spec)
    if args.random:
        import random
        rng = random.Random(args.seed)
        for _ in range(args.random):
            site = dia.random_move_site_pd(pd, rng)
            pd = dia.apply_move_pd(pd, site)
            applied.append(f"{site.kind}:{','.join(map(str, site.edges))}")
    if args.json:
        _emit_json(pd.to_json_dict(), "crossings", _rows_json)
        return EXIT_OK
    print(f"applied: {'; '.join(applied) if applied else '(none)'}")
    print(f"crossings: {pd.n_crossings}  arcs: {dia.build_diagram(pd).n_arcs}")
    print(f"pd: {pd}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="foxcolor",
        description="Exact coloring invariants of knot diagrams and "
                    "equivalence classes of colorings.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_target(p):
        p.add_argument("target", help="catalog name, PD code, @file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="invariant factors, determinant, nullity, counts")
    add_target(p)
    p.add_argument("--mod", type=int, default=None, help="also report mod-M coloring data")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classes", help="equivalence classes of non-trivial colorings")
    add_target(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--group", choices=[orb.AUT, orb.INN], default=orb.AUT)
    p.add_argument("--budget", type=int, default=col.ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("enumerate", help="list colorings")
    add_target(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include trivial colorings")
    p.add_argument("--budget", type=int, default=col.ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check class counts against the closed forms")
    add_target(p)
    p.add_argument("--primes", default="3,5,7,11", help="comma-separated odd primes")
    p.add_argument("--moves", type=int, default=3, help="number of move-derived variants")
    p.add_argument("--seed", type=int, default=orb.DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=col.ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list embedded diagrams")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("moves", help="apply Reidemeister moves to a diagram")
    add_target(p)
    p.add_argument("--site", action="append",
                   help="move site KIND:EDGE[:EDGE][:over], repeatable")
    p.add_argument("--random", type=int, default=0, help="apply N random R1/R2 insertions")
    p.add_argument("--seed", type=int, default=orb.DEFAULT_SEED)
    p.set_defaults(func=cmd_moves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except col.EnumerationBudgetError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except (dia.PdError, dia.MoveError, KeyError, ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
