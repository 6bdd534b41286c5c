"""The four benchmark workloads: how one item runs and how it is checked.

An item runner calls public functions of pretzellinks through their module
attributes at call time (never through names bound at import), so the
traced run's wrappers see every call.  It returns a plain value that the
untraced and traced runs can compare.  A checker returns a list of failure
messages; it runs after the timed phase and may call a second path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import inputs


def _seq(pl, text):
    return pl.EnhancedSequence.parse(text)


# ---------------------------------------------------------------------------
# sweep, wide, deep: engines on one sequence


def run_sweep(pl, text):
    seq = _seq(pl, text)
    return (pl.polynomials.statesum_conway(seq).coeffs,
            pl.polynomials.twistreduce_conway(seq).coeffs,
            pl.diagrams.oracle_conway(seq).coeffs)


def run_wide(pl, text):
    seq = _seq(pl, text)
    return (pl.polynomials.statesum_conway(seq).coeffs,
            pl.polynomials.twistreduce_conway(seq).coeffs)


def run_deep(pl, text):
    seq = _seq(pl, text)
    return (pl.diagrams.oracle_conway(seq).coeffs,
            pl.polynomials.twistreduce_conway(seq).coeffs)


def check_engines(pl, text, out, oracle: bool = False):
    """All engine results equal; with oracle, also against oracle_conway."""
    fails = []
    if any(v != out[0] for v in out[1:]):
        fails.append(f"engines disagree on {text}: {out}")
    elif oracle and pl.diagrams.oracle_conway(_seq(pl, text)).coeffs != out[0]:
        fails.append(f"oracle disagrees with the resolution engines on {text}")
    return fails


# ---------------------------------------------------------------------------
# classify: one query is four CLI calls in-process


def query_argvs(a: str, b: str):
    # "--" keeps sequences that start with "-" from reading as options.
    return (["invariants", "--json", "--", a],
            ["invariants", "--json", "--", b],
            ["equiv", "--relation", "self-delta", "--json", "--", a, b],
            ["equiv", "--relation", "delta", "--json", "--", a, b])


def run_query(pl, item):
    a, b, _ = item
    outs = []
    for argv in query_argvs(a, b):
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = pl.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        outs.append((code, buf.getvalue()))
    return tuple(outs)


def _linking_values(inv):
    return sorted(v for row in inv["linking"] for v in row)


def check_query(pl, item, out):
    """Answers against a second path: statesum_conway for each Conway
    polynomial, the invariant reports for the verdicts, and isotopy for the
    dihedral variants."""
    a, b, variant = item
    if any(code != 0 for code, _ in out):
        return [f"query {a} | {b}: exit codes {[code for code, _ in out]}"]
    inv_a, inv_b, self_delta, delta = (json.loads(text) for _, text in out)
    fails = []
    for text, inv in ((a, inv_a), (b, inv_b)):
        want = pl.polynomials.statesum_conway(_seq(pl, text)).to_pairs()
        if inv["conway"] != want:
            fails.append(f"invariants conway of {text} is not the state sum")
        if inv["mu"] != inputs.components(inputs.parse_text(text)[0]):
            fails.append(f"invariants mu of {text} is wrong")
    mu = inv_a["mu"]
    if mu == 1:
        expect = True
    elif mu == 2:
        expect = ((inv_a["a_lower"], inv_a["a_upper_corrected"])
                  == (inv_b["a_lower"], inv_b["a_upper_corrected"]))
    else:
        expect = ((inv_a["even_key"], inv_a["twist_surplus"])
                  == (inv_b["even_key"], inv_b["twist_surplus"]))
    if self_delta["equivalent"] is not expect:
        fails.append(f"self-delta verdict on {a} | {b} contradicts the invariants")
    if variant and not (self_delta["equivalent"] and delta["equivalent"]
                        and inv_a["conway"] == inv_b["conway"]):
        fails.append(f"isotopic pair {a} | {b} not recognised")
    if delta["equivalent"] and _linking_values(inv_a) != _linking_values(inv_b):
        fails.append(f"delta verdict on {a} | {b} ignores the linking numbers")
    return fails


# ---------------------------------------------------------------------------
# enumeration phase


def run_enumerate(pl, bounds):
    return pl.classify.enumerate_classes(*bounds)


def check_enumerate(pl, table, digest: str, seed: int, sample: int):
    """CSV digest against the seed commit, and an oracle re-check of a
    seeded sample of rows."""
    fails = []
    got = hashlib.sha256(table.to_csv().encode()).hexdigest()
    if got != digest:
        fails.append(f"class table digest {got} != {digest}")
    rng = random.Random(f"rows/{seed}")
    for row in rng.sample(table.rows, min(sample, len(table.rows))):
        nabla = pl.diagrams.oracle_conway(_seq(pl, row.sequence))
        if (str(nabla), nabla.coefficient(1), nabla.coefficient(3)) != (row.conway, row.a1, row.a3):
            fails.append(f"row {row.sequence} disagrees with the oracle")
    return fails


WORKLOADS = {
    "sweep": dict(inputs=inputs.sweep, run=run_sweep, check=check_engines),
    "wide": dict(inputs=inputs.wide, run=run_wide, check=check_engines),
    "deep": dict(inputs=inputs.deep, run=run_deep, check=check_engines),
    "classify": dict(inputs=inputs.queries, run=run_query, check=check_query),
}
