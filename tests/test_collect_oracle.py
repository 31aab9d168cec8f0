"""Differential tests of the collector against two oracles.

`oracle_collect` is the collector that `WindowGroup.collect` replaced: it
rewrites the leftmost descending adjacent pair of a list of letters until the
word is collected.  The fold in `WindowGroup.collect` must reach the same
normal form on every strictly interior table, consistent or not, so the
tables drawn here are random and mostly inconsistent.

`closed_form_mul` and `closed_form_inv` are the multiplication rule that the
fold's one-step crossing replaced on central tables, those where no letter
of any word is an endpoint of a pair.  Central tables are drawn separately,
so that the one-step crossing meets both oracles on every draw.

On a central table `WindowGroup.comm_vec` and `inv_vec` no longer collect:
they take closed forms, and `closed_form_inv` is now the library's own
formula.  So their independent oracles are the generic fold of the window's
`WindowGroup.reading` twin, which collects through the same crossing words
but never takes a central step, and list rewriting.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsys import zsystem
from zsys.zsystem import WindowGroup, overlap_violation


def oracle_collect(wg, letters) -> tuple:
    """Normal form of a word of (index, exponent) letters, by collection
    from the left."""
    if not wg._interior_ok:
        raise ValueError("comm table is not strictly interior; collection undefined")
    words = {pair: tuple(sorted(word.items())) for pair, word in wg.comm.items()}
    p = wg.p
    word = []
    for idx, exp in letters:
        if not wg.lo <= idx <= wg.hi:
            raise ValueError(f"letter index {idx} outside window [{wg.lo}, {wg.hi}]")
        e = exp % p
        if not e:
            continue
        if word and word[-1][0] == idx:
            e = (word[-1][1] + e) % p
            if e:
                word[-1] = (idx, e)
            else:
                word.pop()
        else:
            word.append((idx, e))
    pos = 0
    while pos < len(word) - 1:
        j, ej = word[pos]
        i, ei = word[pos + 1]
        if j == i:
            e = (ej + ei) % p
            word[pos : pos + 2] = [(i, e)] if e else []
            pos = max(pos - 1, 0)
        elif j > i:
            repl = [(j, ej - 1)] if ej > 1 else []
            repl += [(i, 1), (j, 1)]
            repl += words.get((i, j), ())
            if ei > 1:
                repl.append((i, ei - 1))
            word[pos : pos + 2] = repl
            pos = max(pos - 1, 0)
        else:
            pos += 1
    vec = [0] * wg.width
    for idx, e in word:
        vec[idx - wg.lo] = e
    return tuple(vec)


def closed_form_mul(wg, a, b) -> tuple:
    """a * b on a central table: moving each x_i^(b_i) of b left past each
    x_j^(a_j) of a with j > i leaves w(i, j)^(a_j b_i), which is central."""
    return _plus_words(wg, [x + y for x, y in zip(a, b)], a, b)


def closed_form_inv(wg, a) -> tuple:
    """a^-1 on a central table: -a, plus w(i, j)^(a_j a_i) for every pair
    i < j, left behind when x_lo^(-a_lo) ... x_hi^(-a_hi) is reversed."""
    return _plus_words(wg, [-v for v in a], a, a)


def _plus_words(wg, out, a, b) -> tuple:
    """out times w(i, j)^(a_j b_i) for every pair i < j, mod p."""
    for (i, j), word in wg.comm.items():
        c = a[j - wg.lo] * b[i - wg.lo]
        for k, e in word.items():
            out[k - wg.lo] += c * e
    return tuple(v % wg.p for v in out)


def letters_of(wg, vec):
    return [(wg.lo + k, e) for k, e in enumerate(vec) if e]


@st.composite
def interior_tables(draw):
    """A random strictly interior table on a window of width at most 7."""
    p = draw(st.sampled_from((2, 3, 5)))
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 6))
    comm = {}
    for i in range(lo, hi + 1):
        for j in range(i + 2, hi + 1):
            if draw(st.booleans()):
                word = {k: draw(st.integers(0, p - 1)) for k in range(i + 1, j) if draw(st.booleans())}
                comm[(i, j)] = word
    return WindowGroup(p, lo, hi, comm)


@st.composite
def central_tables(draw):
    """A random central table on a window of width at most 8: the word
    letters are drawn first, and every pair of the other indices gets a word
    on the letters between them (zero exponents thin it out)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 7))
    letters = {k for k in range(lo, hi + 1) if draw(st.booleans())}
    ends = [k for k in range(lo, hi + 1) if k not in letters]
    comm = {}
    for i in ends:
        for j in ends:
            if i < j:
                comm[(i, j)] = {k: draw(st.integers(0, p - 1)) for k in letters if i < k < j}
    return WindowGroup(p, lo, hi, comm)


def check_against_oracles(data, wg):
    """collect (with and without a start vector), mul_vec and inv_vec against
    the list-rewriting oracle."""
    index = st.integers(wg.lo, wg.hi)
    exponent = st.integers(-2 * wg.p, 2 * wg.p)
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    word = data.draw(st.lists(st.tuples(index, exponent), max_size=12))
    assert wg.collect(word) == oracle_collect(wg, word)
    start = data.draw(vector)
    assert wg.collect(word, start) == oracle_collect(wg, letters_of(wg, start) + word)
    for _ in range(3):
        a, b = data.draw(vector), data.draw(vector)
        assert wg.mul_vec(a, b) == oracle_collect(wg, letters_of(wg, a) + letters_of(wg, b))
        assert wg.inv_vec(a) == oracle_collect(
            wg, [(idx, -e) for idx, e in reversed(letters_of(wg, a))]
        )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_fold_matches_list_rewriting(data):
    check_against_oracles(data, data.draw(interior_tables()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_one_step_crossing_matches_oracles(data):
    # on a central table the fold crosses in one step; the list rewriting
    # and the closed form must both agree with it
    wg = data.draw(central_tables())
    assert wg._central
    check_against_oracles(data, wg)
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    for _ in range(3):
        a, b = data.draw(vector), data.draw(vector)
        assert wg.mul_vec(a, b) == closed_form_mul(wg, a, b)
        assert wg.inv_vec(a) == closed_form_inv(wg, a)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_closed_form_commutator_and_inverse_match_oracles(data):
    # on a central table comm_vec and inv_vec form no product; the reading
    # twin's generic fold and list rewriting must agree with them on the
    # identity, on normal forms and on vectors that are not reduced mod p
    wg = data.draw(central_tables())
    assert wg._central
    twin = WindowGroup.reading(wg.p, wg.lo, wg.hi, wg._cross)
    assert not twin._central
    p = wg.p
    reduced = st.tuples(*[st.integers(0, p - 1)] * wg.width)
    unreduced = st.tuples(*[st.integers(-2 * p, 2 * p)] * wg.width)
    vectors = [wg.identity_vec] + [data.draw(reduced) for _ in range(2)]
    vectors += [data.draw(unreduced) for _ in range(2)]

    def inverse_letters(a):
        return [(idx, -e) for idx, e in reversed(letters_of(wg, a))]

    for a in vectors:
        inv = wg.inv_vec(a)
        assert inv == twin.inv_vec(a) == oracle_collect(wg, inverse_letters(a))
        assert wg.mul_vec(a, inv) == wg.identity_vec
        for b in vectors:
            comm = wg.comm_vec(a, b)
            word = inverse_letters(a) + inverse_letters(b) + letters_of(wg, a) + letters_of(wg, b)
            assert comm == twin.comm_vec(a, b) == oracle_collect(wg, word)
            assert wg.mul_vec(comm, wg.comm_vec(b, a)) == wg.identity_vec


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_crossing_limit_changes_nothing(data):
    # the crossing memo is a cache: a window that empties it at every fold
    # gives the results of one that keeps every crossing
    wg = data.draw(interior_tables())
    assume(not wg._central)
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    word = data.draw(
        st.lists(st.tuples(st.integers(wg.lo, wg.hi), st.integers(-2 * wg.p, 2 * wg.p)), max_size=12)
    )
    start = data.draw(vector)
    pairs = [(data.draw(vector), data.draw(vector)) for _ in range(3)]

    def results(group):
        out = [group.collect(word), group.collect(word, start), overlap_violation(group)]
        for a, b in pairs:
            out += [group.mul_vec(a, b), group.mul_vec(b, a), group.inv_vec(a)]
        return out

    kept = WindowGroup(wg.p, wg.lo, wg.hi, wg.comm)
    expected = results(kept)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zsystem, "CROSSING_LIMIT", 0)
        assert results(WindowGroup(wg.p, wg.lo, wg.hi, wg.comm)) == expected


COLLECTION_TABLES = {"_interior_ok", "_central", "_cross", "_cross_words", "_above"}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_collection_tables_are_built_on_first_product(data):
    # a window builds no table that collection reads until its first
    # product, and then multiplies as one whose tables were built up front
    drawn = data.draw(interior_tables() | central_tables())
    fresh = WindowGroup(drawn.p, drawn.lo, drawn.hi, drawn.comm)
    assert not COLLECTION_TABLES & vars(fresh).keys()
    forced = WindowGroup(drawn.p, drawn.lo, drawn.hi, drawn.comm)
    for name in COLLECTION_TABLES:
        getattr(forced, name)
    assert COLLECTION_TABLES <= vars(forced).keys()
    vector = st.tuples(*[st.integers(0, drawn.p - 1)] * drawn.width)
    for _ in range(3):
        a, b = data.draw(vector), data.draw(vector)
        assert fresh.mul_vec(a, b) == forced.mul_vec(a, b)
        assert fresh.inv_vec(a) == forced.inv_vec(a)
    assert {"_interior_ok", "_central"} <= vars(fresh).keys()
