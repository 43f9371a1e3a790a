"""The one scanner, `poly.tokenize`, against the two it replaced.

`oracles.tokenize_poly` read polynomial text and `oracles.tokenize_script`
read scripts.  On random texts `tokenize` gives, in each mode, the tokens
or the error of the reference.  The one difference is the digit rule: the
references read `str.isdigit` characters such as '²' as digits and then
failed to convert them; `tokenize` reads `str.isdecimal` ones only.
"""

import ast
import random
from pathlib import Path

import pytest

from closurelab.dsl import ScriptError
from closurelab.poly import ParseError, tokenize

from oracles import tokenize_poly, tokenize_script

SRC = Path(__file__).resolve().parents[1] / "src" / "closurelab"

PIECES = (["x", "y1", "_a", "é", "xé", "b²", "0", "12", "007", "٣", "٣3",
           "²", "3²", "!", "#", '"', "\n", " ", "  "]
          + list("+-*^()/[]{},;="))
LONG = "7" * 5000


def _texts(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        pieces = [LONG if rng.random() < 0.002 else rng.choice(PIECES)
                  for _ in range(rng.randint(0, 12))]
        yield "".join(p + rng.choice(("", "", " ", "\n")) for p in pieces)


def _outcome(scan, text, script):
    """(kind, value, pos, end) of each token, punct kinds as their
    character, or ("error", message, pos); end is None in polynomial
    mode, whose reference tokens have none."""
    try:
        toks = scan(text)
    except (ParseError, ScriptError) as exc:
        return ("error", exc.bare_message, exc.pos)
    return [(t.value if t.kind == "punct" else t.kind, t.value, t.pos,
             getattr(t, "end", None) if script else None) for t in toks]


def _digit_rule_difference(text, new, old):
    """Whether new and old differ only by the digit rule: old stopped at
    a run of isdigit characters holding one like '²' that int refuses,
    and new at the first such character, or at the decimal digits before
    it when they are too long for int."""
    if old[0] != "error":
        return False
    _e, message, pos = old
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    bad = next((k for k in range(pos, end) if not text[k].isdecimal()),
               None)
    if bad is None or \
            message != f"integer literal too long ({end - pos} digits)":
        return False
    if bad > pos:
        try:
            int(text[pos:bad])
        except ValueError:
            return new == ("error", f"integer literal too long ({bad - pos} "
                                    "digits)", pos)
    return new == ("error", f"unexpected character {text[bad]!r}", bad)


def test_tokenize_agrees_with_both_reference_scanners():
    texts = list(_texts(20_000, seed=31))
    for script, ref in ((False, tokenize_poly), (True, tokenize_script)):
        scanned, errors, differ = 0, set(), 0
        for text in texts:
            new = _outcome(lambda t: tokenize(t, script), text, script)
            old = _outcome(ref, text, script)
            if new != old:
                assert _digit_rule_difference(text, new, old), (text, new,
                                                                old)
                differ += 1
            elif old[0] == "error":
                errors.add(old[1].split(" (")[0].split(" '")[0])
            else:
                scanned += 1
        # the corpus reaches every path: tokens, each error, and the rule
        assert scanned > 2000 and differ > 1000, (script, scanned, differ)
        assert errors == {"unexpected character", "integer literal too long",
                          *(["unterminated string"] if script else [])}


def test_tokenize_keeps_what_each_mode_reads():
    text = 'f(x, "s") # c\n[٣]'
    poly = [(t.kind, t.value) for t in tokenize("٣*x^2 - y/7")]
    assert poly == [("int", 3), ("*", "*"), ("name", "x"), ("^", "^"),
                    ("int", 2), ("-", "-"), ("name", "y"), ("/", "/"),
                    ("int", 7), ("end", None)]
    assert [(t.kind, t.value, t.pos, t.end)
            for t in tokenize(text, script=True)] == [
        ("name", "f", 0, 1), ("(", "(", 1, 2), ("name", "x", 2, 3),
        (",", ",", 3, 4), ("string", "s", 5, 8), (")", ")", 8, 9),
        ("[", "[", 14, 15), ("int", 3, 15, 16), ("]", "]", 16, 17),
        ("end", None, 17, 17)]
    for ch in '#"[]{},;=':
        with pytest.raises(ParseError) as err:
            tokenize("x " + ch)
        assert (err.value.bare_message, err.value.pos) == \
            (f"unexpected character {ch!r}", 2)


CLASS_TESTS = {"isdigit", "isdecimal", "isalpha", "isalnum"}


def _class_tests(node, where="<module>"):
    """The name of the function around each use of a character-class
    test, called or passed on."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _class_tests(child, child.name)
            continue
        if isinstance(child, ast.Attribute) and child.attr in CLASS_TESTS:
            yield where
        yield from _class_tests(child, where)


def test_only_the_scanner_tests_character_classes():
    """Digits and names are read in one place, so a second scanner cannot
    come back unseen."""
    found = {(p.name, where) for p in sorted(SRC.rglob("*.py"))
             for where in _class_tests(ast.parse(p.read_text(), str(p)))}
    assert found == {("poly.py", "tokenize")}
