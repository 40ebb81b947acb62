"""Command-line front end: family enumeration, bijection application,
and the verification suites.

Exit codes: 0 all passed, 1 a verification or transport contract failed
or a ``verify`` row was inconclusive, 2 usage or domain error, or a size
past a capacity cap.
Output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from qtcomb import bijections
from qtcomb.families import (
    FamilySpec,
    FamilySpecError,
    generate,
    qt_enumerator,
)
from qtcomb.paths import (
    DecoratedLabelledPath,
    DomainError,
    InvalidPathError,
    PolyominoWord,
)
from qtcomb.qt import CapacityError
from qtcomb.suites import IDENTITY_CLAMPS, IDENTITY_NAMES, SUITES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` on a bad command line, so that ``main``
    reports it as one ``error:`` line; subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def _write(out, text):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{out}: cannot write: {exc.strerror or exc}") from exc


def _poly_csv(poly):
    lines = ["q_exp,t_exp,coeff"]
    lines += [f"{a},{b},{c}" for a, b, c in poly.csv_rows()]
    return "\n".join(lines) + "\n"


def _spec_from_args(args):
    content = None
    if args.content:
        try:
            content = tuple(int(x) for x in args.content.split(","))
        except ValueError as exc:
            raise UsageError(
                f"--content must be comma-separated integers, got {args.content!r}"
            ) from exc
    try:
        return FamilySpec(
            family=args.family,
            m=args.m,
            n=args.n,
            k=args.k,
            r=args.r,
            content=content,
            ghost=args.ghost,
        )
    except FamilySpecError as exc:
        raise UsageError(str(exc)) from exc


def cmd_enum(args):
    spec = _spec_from_args(args)
    if args.qt and args.count:
        raise UsageError("enum --qt does not take --count")
    try:
        return _enum(spec, args)
    except RecursionError as exc:
        # the searches recurse once per row; a family this deep fails
        # before its first member
        raise CapacityError(f"{spec.family} is too deep to generate: {exc}") from exc


def _enum(spec, args):
    if args.qt:
        _write(args.out, _poly_csv(qt_enumerator(spec)))
        return 0
    if args.count:
        total = sum(1 for _ in generate(spec))
        _write(args.out, f"{total}\n")
        return 0
    lines = []
    for member in generate(spec):
        if isinstance(member, PolyominoWord):
            lines.append(json.dumps(member.to_json(), sort_keys=True))
        else:
            lines.append(json.dumps(member.to_json(spec.family), sort_keys=True))
    _write(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _load_object(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and the int-digits limit are
        # ValueErrors; nesting past the recursion limit is a RecursionError
        raise UsageError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(
            f"{path}: expected a JSON object, got {type(obj).__name__}"
        )
    try:
        if "letters" in obj:
            return PolyominoWord.from_json(obj)
        return DecoratedLabelledPath.from_json(obj)
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:
        raise UsageError(f"{path}: malformed object: {exc}") from exc


def _stats(obj):
    out = {"dinv": obj.dinv(), "area": obj.area()}
    if isinstance(obj, DecoratedLabelledPath) and obj.labels is not None:
        try:
            out["zero_composition"] = list(obj.zero_composition())
        except DomainError:
            pass
        try:
            out["big_car_composition"] = list(obj.big_car_composition())
        except DomainError:
            pass
        if set(obj.labels) <= {1, 2} and obj.size:
            try:
                out["ndinv"] = bijections.ndinv(obj)
            except DomainError:
                pass
    return out


#: The maps of ``biject``: name -> (function, input kind, sizes,
#: contract).  The function takes the object, then --k, --n and --m when
#: ``sizes`` is True, and gives the image and a summary or None.  The
#: contract, (dinv kept, area kept), is checked on the image.
_MAPS = {
    "eta": (
        lambda w: (bijections.eta(w), None), "polyomino word", False, (False, True)
    ),
    "eta-inv": (
        lambda p: (bijections.eta_inverse(p), None), "path", False, (False, True)
    ),
    "psi": (
        lambda w: (bijections.psi(w), None), "polyomino word", False, (True, True)
    ),
    "psi-inv": (
        lambda p: (bijections.psi_inverse(p), None), "path", False, (True, True)
    ),
    "phi": (
        lambda p: (
            bijections.phi(bijections.DominoSequence.from_path(p)).to_path(),
            None,
        ),
        "path",
        False,
        (False, False),
    ),
    "ehh": (
        lambda p, *knm: (bijections.ehh_forward(p, *knm), None),
        "path",
        True,
        (True, True),
    ),
    "ehh-inv": (
        lambda p, *knm: (bijections.ehh_inverse(p, *knm), None),
        "path",
        True,
        (True, True),
    ),
    "pld-step": (
        lambda p: (bijections.pld_recursive_step(p), None),
        "path",
        False,
        (False, False),
    ),
    "shuffle-step": (
        lambda p, *knm: bijections.shuffle_recursion_step(p, *knm),
        "path",
        True,
        (False, False),
    ),
}


def cmd_biject(args):
    fn, takes, sized, (keep_dinv, keep_area) = _MAPS[args.map]
    for flag in ("m", "n", "k"):
        if getattr(args, flag) is not None and not sized:
            raise UsageError(f"biject --map {args.map} does not take --{flag}")
    obj = _load_object(args.infile)
    kind = "polyomino word" if isinstance(obj, PolyominoWord) else "path"
    if kind != takes:
        raise UsageError(f"--map {args.map} takes a {takes}, got a {kind}")
    if sized:
        image, summary = fn(obj, args.k or 0, args.n or 0, args.m or 0)
    else:
        image, summary = fn(obj)
    before, after = _stats(obj), _stats(image)
    report = {
        "map": args.map,
        "input": obj.to_json() if isinstance(obj, PolyominoWord) else obj.to_json(""),
        "output": image.to_json()
        if isinstance(image, PolyominoWord)
        else image.to_json(""),
        "stats_before": before,
        "stats_after": after,
    }
    if summary is not None:
        report["summary"] = summary
    _write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    if keep_dinv and before["dinv"] != after["dinv"]:
        print("transport contract violated: dinv changed", file=sys.stderr)
        return 1
    if keep_area and before["area"] != after["area"]:
        print("transport contract violated: area changed", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args):
    for flag, value, readers in (
        ("--name", args.name, ("identities", "all")),
        ("--max", args.max, (set(SUITES) | {"all"}) - {"examples", "engine"}),
    ):
        if value is not None and args.suite not in readers:
            raise UsageError(f"verify {args.suite} does not take {flag}")
    if args.max is not None and args.max < 0:
        raise UsageError(f"--max must be >= 0, got {args.max}")
    max_size = 5 if args.max is None else args.max
    if args.suite == "all":
        names = [n for n in SUITES if n != "delta-ehh"]
    else:
        names = [args.suite]
    reports = []
    for name in names:
        suite = SUITES[name]
        if name == "identities":
            idnames = (args.name,) if args.name else None
            reports += suite(names=idnames, max_size=max_size)
        elif name in ("examples", "engine"):
            reports += suite()
        else:
            reports += suite(max_size=max_size)
    if not reports:
        given = "".join(
            f" {flag} {value}"
            for flag, value in (("--name", args.name), ("--max", args.max))
            if value is not None
        )
        raise UsageError(f"no checks ran: verify {args.suite}{given}")
    rows = sorted(r.row() for r in reports)
    if args.format == "json":
        text = (
            json.dumps(
                [
                    {
                        "suite": s,
                        "instance": i,
                        "status": st,
                        "witness": w,
                    }
                    for s, i, st, w in rows
                ],
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        lines = ["suite,instance,status,witness"]
        lines += [
            ",".join('"%s"' % str(x).replace('"', "'") for x in row)
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    _write(args.out, text)
    clamped = [
        f"{name} to {cap}"
        for name, cap in IDENTITY_CLAMPS.items()
        if "identities" in names and args.name in (None, name) and max_size > cap
    ]
    if clamped:
        note = f"note: --max {max_size} is clamped: {', '.join(clamped)}"
        print(note, file=sys.stderr)
    passed = sum(r.status == "pass" for r in reports)
    inconclusive = sum(r.status == "inconclusive" for r in reports)
    total = sum(r.seconds for r in reports)
    print(
        f"{passed}/{len(reports)} checks passed"
        + (f", {inconclusive} inconclusive" if inconclusive else "")
        + f" ({total:.1f}s)",
        file=sys.stderr,
    )
    return 0 if passed == len(reports) else 1


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write output to this file")
    parser = _Parser(
        prog="qtcomb",
        description="exact q,t-combinatorics of lattice paths and polyominoes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enum", help="stream family members or enumerators", parents=[common]
    )
    p_enum.add_argument("--family", required=True)
    p_enum.add_argument("--m", type=int, default=0)
    p_enum.add_argument("--n", type=int, default=0)
    p_enum.add_argument("--k", type=int, default=0)
    p_enum.add_argument("--r", type=int, default=None)
    p_enum.add_argument("--content", help="comma-separated partition")
    p_enum.add_argument("--ghost", action="store_true")
    p_enum.add_argument("--count", action="store_true")
    p_enum.add_argument("--qt", action="store_true", help="emit the enumerator CSV")
    p_enum.set_defaults(func=cmd_enum)

    p_biject = sub.add_parser(
        "biject", help="apply a named map to a JSON object", parents=[common]
    )
    p_biject.add_argument("--map", required=True, choices=sorted(_MAPS))
    p_biject.add_argument("--in", dest="infile", required=True)
    p_biject.add_argument("--m", type=int)
    p_biject.add_argument("--n", type=int)
    p_biject.add_argument("--k", type=int)
    p_biject.set_defaults(func=cmd_biject)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite", parents=[common]
    )
    p_verify.add_argument(
        "suite", choices=sorted(SUITES) + ["all"], help="suite name"
    )
    p_verify.add_argument(
        "--format", choices=("json", "csv"), default="csv", help="report format"
    )
    p_verify.add_argument("--max", type=int, help="size bound (default 5)")
    p_verify.add_argument(
        "--name",
        choices=IDENTITY_NAMES,
        help="identity name for the identities suite",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # only --help exits here: argparse errors raise UsageError
        return exc.code
    except (
        UsageError,
        FamilySpecError,
        DomainError,
        InvalidPathError,
        CapacityError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
