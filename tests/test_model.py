"""Data model: conversions, convergence, duality maps, round trips, and the
interning of specs: one live object per key."""

import copy
import pickle
import random
import sys
import threading
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyzeta import (
    DivergenceError,
    LambdaSpec,
    UnsupportedSpec,
    dual_word,
    format_spec,
    lambda_from_z_string,
    lambda_to_word,
    parse_spec,
    word_to_lambda,
    zeta_spec,
)
from polyzeta import model
from polyzeta.acceptance import random_z_entries
from polyzeta.evaluate import holder_split
from polyzeta.model import (
    check_convergence,
    constant_base_spec,
    delta_spec,
    make_word,
    mu_spec,
    rational,
    word_convergent,
)


def F(p, q=1):
    return Fraction(p, q)


# -- z-string conversions ---------------------------------------------------

def test_z_string_basic():
    assert lambda_from_z_string((2, 1)) == zeta_spec(2, 1)
    assert lambda_from_z_string((2, -1)) == LambdaSpec.of((2, 1), (1, -1))


def test_z_string_running_sign_product():
    # the sign marker applies to the index, so bases are running products
    assert lambda_from_z_string((-2, 1)) == LambdaSpec.of((2, 1), (-1, -1))
    assert lambda_from_z_string((-2, -1)) == LambdaSpec.of((2, 1), (-1, 1))
    assert lambda_from_z_string((3, -1, 2)) == LambdaSpec.of((3, 1, 2), (1, -1, -1))


def test_z_string_divergent_and_invalid():
    with pytest.raises(DivergenceError):
        lambda_from_z_string((1, 2))
    with pytest.raises(ValueError):
        lambda_from_z_string((2, 0))


def test_z_string_rejects_non_integer_entries():
    # they used to be truncated: (2.7, -1.5) read as L[2,1 | 1,-1]
    for entries in ((2.7, -1.5), (2.0,), (F(3),), ("2",)):
        with pytest.raises(TypeError):
            lambda_from_z_string(entries)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5))
def test_z_string_roundtrip(exps, flips):
    entries = tuple(e * (-1 if f else 1) for e, f in zip(exps, flips))
    if entries[0] == 1:
        entries = (2,) + entries[1:]
    spec = lambda_from_z_string(entries)
    assert spec.exponents == tuple(abs(e) for e in entries)
    # b_j is the running sign product: -1 to the count of negative entries so far
    signs = tuple((-1) ** sum(e < 0 for e in entries[: j + 1]) for j in range(len(entries)))
    assert spec.bases == signs


# -- words ------------------------------------------------------------------

def test_lambda_to_word_examples():
    assert lambda_to_word(zeta_spec(3)) == make_word((0, 0, 1))
    assert lambda_to_word(LambdaSpec.of((2, 1), (1, -1))) == make_word((0, 1, -1))
    assert lambda_to_word(delta_spec(2, 1, 1)) == make_word((0, 2, 2, 2))


def test_lambda_to_word_rejects_nonpositive_exponents():
    with pytest.raises(UnsupportedSpec):
        lambda_to_word(LambdaSpec.of((-1,), (2,)))


def test_lambda_to_word_rejects_divergent():
    with pytest.raises(DivergenceError):
        lambda_to_word(zeta_spec(1, 2))


def test_word_to_lambda_examples():
    assert word_to_lambda(make_word((0, 0, 1))) == zeta_spec(3)
    assert word_to_lambda(make_word((0, 1, -1))) == LambdaSpec.of((2, 1), (1, -1))
    assert word_to_lambda(make_word((2, 0, 1))) == LambdaSpec.of((1, 2), (2, 1))


def test_word_to_lambda_trailing_zero():
    with pytest.raises(DivergenceError):
        word_to_lambda(make_word((1, 0)))


def test_word_roundtrip_randomized():
    rng = random.Random(1)
    for _ in range(200):
        spec = lambda_from_z_string(random_z_entries(rng, max_weight=12, max_depth=6))
        assert word_to_lambda(lambda_to_word(spec)) == spec


# -- duality ----------------------------------------------------------------

def test_dual_word_examples():
    dual, sign = dual_word(make_word((0, 0, 1)))
    assert dual == make_word((0, 1, 1)) and sign == 1
    dual, sign = dual_word(make_word((0, 1, -1)))
    assert dual == make_word((2, 0, 1)) and sign == -1
    dual, sign = dual_word(make_word((0, 1, 0, 1)))
    assert dual == make_word((0, 1, 0, 1)) and sign == 1  # self-dual


def test_dual_word_rejects_leading_one():
    with pytest.raises(DivergenceError):
        dual_word(make_word((1, 0, 1)))


def test_dual_word_involution():
    rng = random.Random(2)
    for _ in range(200):
        word = lambda_to_word(lambda_from_z_string(random_z_entries(rng)))
        dual, sign = dual_word(word)
        back, sign2 = dual_word(dual)
        assert back == word
        assert sign * sign2 == 1


def mzv_dual_string(entries):
    """Block rewrite of MZV duality, the oracle for the word map:
    (s_1+2, {1}^r_1, ..., s_m+2, {1}^r_m) maps to
    (r_m+2, {1}^s_m, ..., r_1+2, {1}^s_1)."""
    blocks = []  # (s_i, r_i) with head s_i + 2 and r_i trailing 1s
    for e in entries:
        if e >= 2:
            blocks.append((e - 2, 0))
        else:
            s, r = blocks[-1]
            blocks[-1] = (s, r + 1)
    out = []
    for s, r in reversed(blocks):
        out.append(r + 2)
        out.extend([1] * s)
    return tuple(out)


def word_dual_string(entries):
    """MZV duality through dual_word, read back as an exponent string."""
    dual, sign = dual_word(lambda_to_word(zeta_spec(*entries)))
    assert sign == 1  # (-1)^(w + k + (w - k)): the dual word has depth w - k
    return word_to_lambda(dual).exponents


def test_mzv_dual_examples():
    for entries, dual in [((2, 1), (3,)), ((4,), (2, 1, 1)), ((3, 1), (3, 1)), ((), ())]:
        assert mzv_dual_string(entries) == dual
        assert word_dual_string(entries) == dual


def test_mzv_dual_rejects_divergent():
    with pytest.raises(DivergenceError):
        word_dual_string((1, 2))


@st.composite
def convergent_mzv_strings(draw):
    depth = draw(st.integers(1, 5))
    first = draw(st.integers(2, 5))
    rest = draw(st.lists(st.integers(1, 4), min_size=depth - 1, max_size=depth - 1))
    return (first, *rest)


@given(convergent_mzv_strings())
def test_mzv_dual_involution(entries):
    assert mzv_dual_string(mzv_dual_string(entries)) == entries
    assert word_dual_string(word_dual_string(entries)) == entries


@given(convergent_mzv_strings())
def test_mzv_dual_matches_word_route(entries):
    spec = zeta_spec(*entries)
    dual, _ = dual_word(lambda_to_word(spec))
    assert word_to_lambda(dual) == zeta_spec(*mzv_dual_string(entries))


# -- convergence -------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,expected",
    [
        (LambdaSpec.of((1,), (1,)), False),   # harmonic series
        (LambdaSpec.of((1,), (2,)), True),
        (LambdaSpec.of((-1,), (2,)), True),   # geometric beats polynomial
        (LambdaSpec.of((2,), (F(1, 2),)), False),
        (LambdaSpec.of((2, -1), (1, 2)), False),  # modulus-1 base with nonpositive exponent
        (LambdaSpec.of((2, 1), (1, 1)), True),
        (LambdaSpec.of((1, 1), (1, -1)), False),
        (LambdaSpec.of((1, 1), (-1, 1)), True),
        (LambdaSpec(()), True),
    ],
)
def test_check_convergence(spec, expected):
    ok, reason = check_convergence(spec)
    assert ok is expected
    if not ok:
        assert reason


# -- text form ---------------------------------------------------------------

def test_spec_text_roundtrip():
    spec = LambdaSpec.of((2, 1), (F(1), F(-3, 2)))
    text = format_spec(spec)
    assert text == "L[2,1 | 1,-3/2]"
    assert parse_spec(text) == spec
    assert parse_spec("L[]") == LambdaSpec(())
    assert format_spec(LambdaSpec(())) == "L[]"


def test_spec_derived_data_is_built_once():
    # the strings and the int key are built once per spec; an equal spec
    # built afresh has an equal key, hash and repr
    spec = LambdaSpec.of((2, 1), (1, F(-1, 2)))
    assert spec.exponents is spec.exponents == (2, 1)
    assert spec.bases is spec.bases == (F(1), F(-1, 2))
    key = spec.key
    assert key is spec.key and key == (2, (2, 1), ((1, 1), (-1, 2)))
    assert all(type(x) is int for x in (key[0], *key[1], *sum(key[2], ())))
    fresh = LambdaSpec.of((2, 1), (1, F(-1, 2)))
    assert fresh.key == spec.key
    assert fresh == spec and hash(fresh) == hash(spec) and repr(fresh) == repr(spec)


def test_equal_specs_are_one_object():
    # every constructor returns the one live spec of its key
    mzv = zeta_spec(3, 1)
    assert mzv is LambdaSpec(((3, F(1)), (1, F(1))))
    assert mzv is LambdaSpec.of((3, 1), (1, 1))  # int bases, the equal Fractions
    assert mzv is LambdaSpec.of((3, True), (F(1), 1))  # a True exponent, 1
    assert mzv is constant_base_spec(1, (3, 1))
    assert mzv is parse_spec("L[3,1 | 1,1]")
    assert mzv is lambda_from_z_string((3, 1))
    assert mzv is word_to_lambda(make_word((0, 0, 1, 1)))
    assert delta_spec(2, 1) is constant_base_spec(F(2), (2, 1)) is parse_spec("L[2,1 | 2,2]")
    assert mu_spec(-1, 1) is LambdaSpec.of((1, 1), (F(-1), 1)) is lambda_from_z_string((-1, -1))
    assert parse_spec("L[]") is LambdaSpec(()) is model.EMPTY_SPEC
    # the halves of the split of z(2, 1) at p = 2: the right half at r = 0
    # is 2 * word, L[2,1 | 2,2]
    split = holder_split(lambda_to_word(zeta_spec(2, 1)), 2)
    assert split[0].right is delta_spec(2, 1)
    for term in split:
        for half in (term.left, term.right):
            assert half is LambdaSpec.of(half.exponents, half.bases)
    # so equality and hashing are the object's own
    assert LambdaSpec.__eq__ is object.__eq__ and LambdaSpec.__hash__ is object.__hash__


def test_copies_and_pickles_return_the_one_spec():
    spec = LambdaSpec.of((3, 1, 2), (F(2), F(-1), F(3, 2)))
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert clone(spec) is spec


def test_a_spec_nothing_references_leaves_the_table():
    spec = LambdaSpec.of((7, 5), (F(123457, 1000), 3))
    key, ref = spec.key, weakref.ref(spec)
    assert model._INTERNED[key]() is spec
    del spec
    assert ref() is None and key not in model._INTERNED
    # the key builds a new spec, which the table then holds
    again = LambdaSpec.of((7, 5), (F(123457, 1000), 3))
    assert model._INTERNED[key]() is again


def test_threads_that_build_one_key_get_one_object():
    # 4 threads (more than the cores) build the same 200 new keys at once,
    # switching every microsecond, in 10 rounds of fresh keys; every key
    # must come back as one object
    rounds = [[((5, 3), (F(1000 + i, 7), F(-2 - i))) for i in range(j, j + 200)]
              for j in range(0, 2000, 200)]
    start = threading.Barrier(4, timeout=30)
    results = [[] for _ in range(4)]

    def build(slot):
        for keys in rounds:
            start.wait()
            results[slot] += [LambdaSpec.of(*k) for k in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,), daemon=True) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for specs in zip(*results):
        assert len({id(spec) for spec in specs}) == 1
        assert model._INTERNED[specs[0].key]() is specs[0]


def test_rational_keeps_an_exact_fraction():
    x = F(-3, 2)
    assert rational(x) is x
    for value, want in ((7, F(7)), (True, F(1)), (F(6, 4), F(3, 2))):
        got = rational(value)
        assert type(got) is Fraction and got == want


def test_parse_spec_malformed_literals_are_value_errors():
    for text in ("2 | 1", "L[a | 2]", "L[2 | x]", "L[2, 1 | 2]", "L[2 | 0]"):
        with pytest.raises(ValueError):
            parse_spec(text)
    with pytest.raises(ValueError, match="denominator must be nonzero in base '1/0'"):
        parse_spec("L[2 | 1/0]")


def test_spec_rejects_non_integer_exponents():
    # (2.5,) used to be truncated to zeta(2)
    for exponents in ((2.5,), (2.0,), (F(5, 2),), ("2",), (2, 1.5)):
        with pytest.raises(TypeError):
            LambdaSpec.of(exponents, (1,) * len(exponents))
    assert LambdaSpec.of((True, 2), (2, 2)).exponents == (1, 2)


def test_spec_and_word_reject_float_bases():
    # a float is refused, not read as its binary fraction
    # (1.1 is 2476979795053773/2251799813685248)
    for bases in ((1.1,), (2.0,), ("2",), (2, Decimal("1.5"))):
        with pytest.raises(TypeError):
            LambdaSpec.of((2,) * len(bases), bases)
        with pytest.raises(TypeError):
            mu_spec(*bases)
        with pytest.raises(TypeError):
            constant_base_spec(bases[-1], (2,))
        with pytest.raises(TypeError):
            make_word((0, *bases))
        with pytest.raises(TypeError):
            dual_word((0, *bases))
    assert LambdaSpec.of((2,), (F(11, 10),)).bases == (F(11, 10),)
    assert make_word((0, 2, F(-3, 2))) == (F(0), F(2), F(-3, 2))


def test_words_with_a_letter_in_the_open_unit_interval_diverge():
    # dx/(x - a) with 0 < a < 1 is singular inside the path [0, 1]
    assert word_convergent(make_word((0, F(1, 2))))[0] is False
    with pytest.raises(DivergenceError, match=r"\(0, 1\)"):
        dual_word((F(1, 2),))
    with pytest.raises(DivergenceError):
        dual_word(make_word((0, 1, F(1, 3), -1)))
    # 0, 1, negative letters and letters above 1 stay convergent
    assert word_convergent(make_word((-1, 0, 1, 2)))[0] is True


def test_spec_helpers():
    assert mu_spec(-1, 1).exponents == (1, 1)
    assert delta_spec(3).bases == (F(2),)
    assert zeta_spec(2, 1).weight == 3
    assert zeta_spec(2, 1).depth == 2
    with pytest.raises(ValueError):
        LambdaSpec.of((1,), (0,))


@pytest.mark.parametrize(
    "call, outcome",
    [(lambda: word_convergent(()), (True, ""))],
    ids=["empty-word-converges"],
)
def test_edge_inputs(call, outcome):
    assert call() == outcome
