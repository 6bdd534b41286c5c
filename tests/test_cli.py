import functools
import hashlib
import itertools
import json
import random

import pytest

from pretzellinks import polynomials
from pretzellinks.cli import main
from pretzellinks.sequences import (
    EnhancedSequence,
    Entry,
    dihedral_words,
    enumerate_enhancements,
    is_realizable,
)
from pretzellinks.zpoly import ZPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_conway_all_methods_agree(capsys):
    code, out, _ = run(capsys, "conway", "6r,-6r,1r,1r", "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.split(": ", 1)[1] == "-9z^3 - 24z^5 - 22z^7 - 8z^9 - z^11"


def test_conway_single_method(capsys):
    code, out, _ = run(capsys, "conway", "1s,1s", "--method", "seifert")
    assert code == 0 and out.strip() == "-z"


def test_conway_rejects_unrealizable(capsys):
    code, _, err = run(capsys, "conway", "2r,3r,4r")
    assert code == 2 and "oriented" in err


def test_conway_rejects_garbage(capsys):
    assert run(capsys, "conway", "2x,3y")[0] == 2
    assert run(capsys, "conway", "0s,1r")[0] == 2
    assert run(capsys, "conway", "1s,,1s")[0] == 2
    assert run(capsys, "conway", "\uff13s,\uff13s")[0] == 2


def test_equiv_fixture(capsys):
    code, out, _ = run(capsys, "equiv", "4s,5r,6r,-2r,-3r",
                       "6r,2s,7r,4s,-5r,-1r", "--relation", "self-delta")
    assert code == 0
    assert out.splitlines()[0] == "true"


@functools.cache
def word_pool():
    """The realizable words with u <= 4 and |k| <= 3, by length u."""
    values = [k for k in range(-3, 4) if k]
    return {u: [s for ks in itertools.product(values, repeat=u)
                for s in enumerate_enhancements(ks)] for u in range(1, 5)}


def equiv_pairs(n, seed):
    """n seeded same-length pairs of realizable words with u <= 4 and |k| <= 3.

    In turn: a random pair; a word and one of its rotations or reflections;
    such an image with its odd values moved among the odd slots (same even
    key and surplus); such an image with one entry changed (a +-2 entry
    read as its twin of the other type, or an odd entry shifted by 2).
    """
    pool = word_pool()
    words = [s for u in sorted(pool) for s in pool[u]]
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        a = rng.choice(words)
        b = EnhancedSequence(rng.choice(list(dihedral_words(a.entries))))
        if i % 4 == 0:
            b = rng.choice(pool[len(a)])
        elif i % 4 == 2:
            odd = [j for j, e in enumerate(b) if e.is_odd]
            ks = [e.k for e in b]
            for j, k in zip(odd, rng.sample([ks[j] for j in odd], len(odd))):
                ks[j] = k
            c = EnhancedSequence.of(*zip(ks, (e.eps for e in b)))
            b = c if is_realizable(c) else b
        elif i % 4 == 3:
            j = rng.randrange(len(b))
            e = b[j]
            k, eps = ((-e.k, e.eps.flipped) if e.is_even
                      else (e.k + 2 if e.k < 3 else 1, e.eps))
            c = EnhancedSequence(b.entries[:j] + (Entry(k, eps),) + b.entries[j + 1:])
            b = c if is_realizable(c) else b
        pairs.append((str(a), str(b)))
    return pairs


def test_equiv_self_delta_json_is_byte_identical(capsys):
    # SHA-256 of every exit code and JSON answer, in order.  It was taken
    # before class_key and self_delta_equivalent shared one class invariant,
    # so it shows every verdict, kind and certificate unchanged by that.
    digest = hashlib.sha256()
    for a, b in equiv_pairs(1200, 1903):
        code = main(["equiv", "--relation", "self-delta", "--json", "--", a, b])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "e904e6eddbea3c42e0d8ac5df073a7dbed75b63f9447e61773719a7f447ed74e")


def test_equiv_delta_json_is_byte_identical(capsys):
    # SHA-256 of every exit code and JSON answer, in order.  It was taken
    # while delta_equivalent still read linking numbers off built diagrams,
    # so it shows every verdict unchanged by reading them off the word.
    digest = hashlib.sha256()
    for a, b in equiv_pairs(1200, 1903):
        code = main(["equiv", "--relation", "delta", "--json", "--", a, b])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "73b05a623359eea10a7f7fced91e50faf822dee826bdaec3e4253dc638b5296b")


def test_equiv_delta(capsys):
    code, out, _ = run(capsys, "equiv", "2s,3r,3r", "4s,1r,1r",
                       "--relation", "delta")
    assert code == 0 and out.splitlines()[0] == "true"


def test_equiv_delta_rejects_unrealizable(capsys):
    code, out, err = run(capsys, "equiv", "2s,3s", "2s,3s", "--relation", "delta")
    assert code == 2 and out == ""
    assert err == "error: bottom-bridge orientations are inconsistent for 2s,3s\n"


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "conway", "4s,4r,1r,1r,1r", "--json")
    assert code == 0
    payload = json.loads(out)
    seq = EnhancedSequence.parse(payload["sequence"])
    assert str(seq) == "4s,4r,1r,1r,1r"
    poly = ZPoly.from_pairs(payload["conway"]["statesum"])
    assert poly == ZPoly((0, 0, 0, -9, 0, -4))
    assert ZPoly.parse(str(poly)) == poly


def test_conway_default_is_the_state_sum(capsys, monkeypatch):
    """The default method stays polynomial in u: at u = 30 the twist
    recursion would walk up to 2^30 partial words."""
    def refuse(seq):
        raise AssertionError("the default method called twistreduce_conway")

    monkeypatch.setattr(polynomials, "twistreduce_conway", refuse)
    word = ",".join(["3r", "-2r"] * 15)
    code, out, _ = run(capsys, "conway", word)
    assert code == 0
    assert out.strip() == str(polynomials.statesum_conway(EnhancedSequence.parse(word)))


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "6r,-6r,1r,1r", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == 2
    assert ZPoly.from_pairs(payload["conway"]).coefficient(3) == -9


def test_invariants_json_is_byte_identical(capsys):
    # SHA-256 of every exit code and JSON report over 200 seeded words with
    # u <= 4 and |k| <= 3, taken while the linking matrix was still read off
    # the built diagram.
    pool = word_pool()
    words = random.Random(2503).sample([s for u in sorted(pool) for s in pool[u]], 200)
    digest = hashlib.sha256()
    for s in words:
        code = main(["invariants", "--json", "--", str(s)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "2cfc6813c2e34e1431a9c01474a67a3508ffbfe108dbe1405a23ee92effb8837")


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "2s,3r,3r")
    assert code == 0 and "all skein checks passed" in out


def test_enumerate_to_file(tmp_path, capsys):
    out_path = tmp_path / "classes.csv"
    code, _, err = run(capsys, "enumerate", "--max-u", "2", "--max-twist", "2",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "sequence,mu,key,surplus,a1,a3,conway"
    assert len(lines) > 10


@pytest.mark.parametrize("where", ["missing/classes.csv", "."])
def test_enumerate_reports_unwritable_out(tmp_path, capsys, where):
    out_path = tmp_path / where
    code, out, err = run(capsys, "enumerate", "--max-u", "2", "--max-twist", "2",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_enumerate_resource_limit(capsys):
    # The full volume of 8000 x 1 has over 4300 digits, more than str()
    # takes, and summing that of 100000 x 1 takes about a minute.
    for max_u, max_twist in [("9", "9"), ("8000", "1"), ("100000", "1"),
                             ("2", "1" + "0" * 1000)]:
        code, out, err = run(capsys, "enumerate", "--max-u", max_u,
                             "--max-twist", max_twist, "--out", "-")
        assert code == 2 and out == "" and "limit" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200


@pytest.mark.parametrize("n", ["0", "-3"])
def test_enumerate_rejects_fewer_than_one_component(capsys, n):
    code, out, err = run(capsys, "enumerate", "--max-u", "2", "--max-twist", "2",
                         "--components", n)
    assert code == 2 and out == "" and "component" in err


@pytest.mark.parametrize("option", ["--max-u", "--max-twist", "--components"])
def test_enumerate_rejects_non_ascii_digits(capsys, option):
    argv = {"--max-u": "2", "--max-twist": "2", "--components": "2"}
    argv[option] = "\uff12"  # full-width 2, which int() alone accepts
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *(x for pair in argv.items() for x in pair)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {option}: invalid integer" in out.err


@pytest.mark.parametrize("option", ["--max-u", "--max-twist", "--components"])
def test_enumerate_rejects_integers_past_the_conversion_limit(capsys, option):
    # 5,000 digits is more than int() converts from text by default.
    argv = {"--max-u": "2", "--max-twist": "2", "--components": "2"}
    argv[option] = "1" * 5000
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *(x for pair in argv.items() for x in pair)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {option}: integer too long" in out.err
    assert len(out.err) < 500 and "_ascii_int" not in out.err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
