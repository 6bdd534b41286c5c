"""Command-line front end.

Subcommands: conway, invariants, equiv, oracle-check, enumerate, selftest.
Exit codes: 0 success, 1 computational mismatch or internal inconsistency,
2 bad input (parse error, zero parameter, unrealizable orientation).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from typing import Optional

from . import classify, diagrams, polynomials, sequences
from .errors import InternalConsistencyError, PretzelInputError
from .sequences import EnhancedSequence
from .zpoly import ZPoly


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_conway(args) -> int:
    seq = EnhancedSequence.parse(args.sequence)
    methods = (("statesum", polynomials.statesum_conway),
               ("twistreduce", polynomials.twistreduce_conway),
               ("seifert", diagrams.oracle_conway))
    if args.method != "all":
        methods = tuple(m for m in methods if m[0] == args.method)
    results = {name: fn(seq) for name, fn in methods}
    values = list(results.values())
    agree = all(v == values[0] for v in values)
    payload = {
        "sequence": str(seq),
        "conway": {name: poly.to_pairs() for name, poly in results.items()},
        "agree": agree,
    }
    _emit(payload, args.json,
          [f"{name}: {poly}" if args.method == "all" else str(poly)
           for name, poly in results.items()])
    if not agree:
        print("error: engines disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_invariants(args) -> int:
    seq = EnhancedSequence.parse(args.sequence)
    rep = classify.invariants(seq)
    payload = {
        "sequence": str(seq),
        "mu": rep.mu,
        "linking": [list(row) for row in rep.linking],
        "conway": rep.conway.to_pairs(),
        "a_lower": rep.a_lower,
        "a_upper": rep.a_upper,
        "component_conways": [c.to_pairs() for c in rep.component_conways],
        "a_upper_corrected": rep.a_upper_corrected,
        "twist_surplus": rep.twist_surplus,
        "even_key": str(rep.even_key) if rep.even_key is not None else None,
    }
    lines = [
        f"sequence: {seq}",
        f"components: {rep.mu}",
        f"linking: {rep.linking}",
        f"conway: {rep.conway}",
        f"a_{rep.mu - 1}: {rep.a_lower}",
        f"a_{rep.mu + 1}: {rep.a_upper}",
        f"component conways: {[str(c) for c in rep.component_conways]}",
        f"corrected upper coefficient: {rep.a_upper_corrected}",
        f"twist surplus: {rep.twist_surplus}",
        f"even key: {rep.even_key}",
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_equiv(args) -> int:
    a = EnhancedSequence.parse(args.a)
    b = EnhancedSequence.parse(args.b)
    if args.relation == "delta":
        verdict = classify.delta_equivalent(a, b)
        cert: Optional[tuple] = None
        kind = "linking"
    else:
        result = classify.self_delta_equivalent(a, b)
        verdict, cert, kind = result.equivalent, result.certificate, result.kind
    payload = {"a": str(a), "b": str(b), "relation": args.relation,
               "equivalent": verdict, "kind": kind,
               "certificate": _jsonable(cert)}
    lines = [str(verdict).lower()]
    if cert is not None:
        lines.append(f"certificate ({kind}): {cert}")
    _emit(payload, args.json, lines)
    return 0


def _jsonable(obj):
    if obj is None or isinstance(obj, (int, str, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return str(obj)


def _cmd_oracle_check(args) -> int:
    seq = EnhancedSequence.parse(args.sequence)
    checks = diagrams.skein_checks(seq)
    ok = all(flag for _, flag in checks)
    payload = {"sequence": str(seq),
               "checks": [{"region": i, "ok": flag} for i, flag in checks],
               "ok": ok}
    lines = [f"region {i}: {'ok' if flag else 'MISMATCH'}" for i, flag in checks]
    lines.append("all skein checks passed" if ok else "skein check FAILED")
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    table = classify.enumerate_classes(args.max_u, args.max_twist,
                                       components=args.components)
    text = table.to_json() if args.format == "json" else table.to_csv()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PretzelInputError(f"cannot write {args.out}: {exc.strerror}") from exc
    if not args.json:
        print(f"{len(table.rows)} sequences in {len(table.classes)} classes",
              file=sys.stderr)
    return 0


def _selftest_suites():
    from .sequences import INF, Entry, R, S

    def seq(*pairs, base=False):
        return EnhancedSequence.of(*pairs, base=base)

    def pascal() -> bool:
        z = ZPoly.term(1, 1)
        for p in range(-20, 21):
            if polynomials.phi_poly(-p) != -polynomials.phi_poly(p):
                return False
            if polynomials.psi_poly(-p - 1) != polynomials.psi_poly(p):
                return False
            if polynomials.phi_poly(p) + z * polynomials.psi_poly(p) != \
                    polynomials.phi_poly(p + 1):
                return False
            if polynomials.psi_poly(p - 1) + z * polynomials.phi_poly(p) != \
                    polynomials.psi_poly(p):
                return False
        return True

    def calibration() -> bool:
        probes = [
            (seq((1, S), (1, S)), ZPoly((0, -1))),
            (seq((1, R), (1, R)), ZPoly((0, 1))),
            (seq((1, S), (1, S), (1, S)), ZPoly((1, 0, 1))),
        ]
        for p in range(-4, 5):
            probes.append((seq((2 * p, S), (0, S), base=True), ZPoly((0, -p))))
        return all(diagrams.oracle_conway(s) == want for s, want in probes)

    def worked_link_values() -> bool:
        k1 = seq((6, R), (-6, R), (1, R), (1, R))
        k2 = seq((4, S), (4, R), (1, R), (1, R), (1, R))
        w1 = ZPoly((0, 0, 0, -9, 0, -24, 0, -22, 0, -8, 0, -1))
        w2 = ZPoly((0, 0, 0, -9, 0, -4))
        for s, w in ((k1, w1), (k2, w2)):
            for engine in (polynomials.statesum_conway,
                           polynomials.twistreduce_conway,
                           diagrams.oracle_conway):
                if engine(s) != w:
                    return False
        return True

    def engine_agreement() -> bool:
        values = [k for k in range(-2, 3) if k != 0]
        for u in range(1, 4):
            for ks in itertools.product(values, repeat=u):
                for s in sequences.enumerate_enhancements(ks):
                    a = polynomials.statesum_conway(s)
                    b = polynomials.twistreduce_conway(s)
                    c = diagrams.oracle_conway(s)
                    if not (a == b == c):
                        return False
        return True

    def base_rules() -> bool:
        alphabet = [Entry(0, S), Entry(INF, S), Entry(1, S),
                    Entry(INF, R), Entry(1, R), Entry(0, R)]
        for u in range(1, 5):
            for combo in itertools.product(alphabet, repeat=u):
                s = EnhancedSequence(combo, base=True)
                try:
                    sequences.orientation_data(s)
                except PretzelInputError:
                    continue
                if polynomials.base_conway(s) != diagrams.oracle_conway(s):
                    return False
        return True

    return [("pascal-identities", pascal),
            ("calibration-fixtures", calibration),
            ("worked-examples", worked_link_values),
            ("engine-agreement", engine_agreement),
            ("base-rules-vs-oracle", base_rules)]


def _cmd_selftest(args) -> int:
    failures = 0
    results = []
    for name, suite in _selftest_suites():
        try:
            ok = suite()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            results.append({"suite": name, "ok": False, "error": repr(exc)})
            print(f"FAIL {name}: {exc!r}")
            failures += 1
            continue
        results.append({"suite": name, "ok": ok})
        print(("PASS" if ok else "FAIL"), name)
        failures += 0 if ok else 1
    if args.json:
        print(json.dumps({"results": results, "failures": failures}, indent=2))
    return 0 if failures == 0 else 1


# Characters of a rejected option value that its error message quotes.
QUOTED_PREFIX = 20


def _ascii_int(text: str) -> int:
    """An integer option: an optional sign and ASCII digits only (int()
    alone also takes every other Unicode decimal digit).  Digits past
    int()'s conversion limit (sys.get_int_max_str_digits) are rejected
    too, and a message quotes at most QUOTED_PREFIX characters."""
    quoted = repr(text[:QUOTED_PREFIX]) + ("..." if len(text) > QUOTED_PREFIX else "")
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {quoted}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"integer too long: {quoted} ({len(text)} characters)") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretzellinks",
        description="Conway polynomials and self-delta classification of "
                    "pretzel links")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conway", help="Conway polynomial of a pretzel link")
    p.add_argument("sequence")
    p.add_argument("--method", default="statesum",
                   choices=["statesum", "twistreduce", "seifert", "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_conway)

    p = sub.add_parser("invariants", help="full invariant report")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("equiv", help="decide an equivalence relation")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--relation", default="self-delta",
                   choices=["self-delta", "delta"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("oracle-check", help="skein spot checks on the diagram")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("enumerate", help="classify all sequences in bounds")
    p.add_argument("--max-u", type=_ascii_int, required=True)
    p.add_argument("--max-twist", type=_ascii_int, required=True)
    p.add_argument("--components", type=_ascii_int, default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("selftest", help="calibration fixtures and identities")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PretzelInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
