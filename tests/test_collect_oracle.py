"""Differential test of the collector against the list-rewriting oracle.

`oracle_collect` is the collector that `WindowGroup.collect` replaced: it
rewrites the leftmost descending adjacent pair of a list of letters until the
word is collected.  The fold in `WindowGroup.collect` must reach the same
normal form on every strictly interior table, consistent or not, so the
tables drawn here are random and mostly inconsistent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zsys.zsystem import WindowGroup


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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_fold_matches_list_rewriting(data):
    wg = data.draw(interior_tables())
    index = st.integers(wg.lo, wg.hi)
    exponent = st.integers(-2 * wg.p, 2 * wg.p)
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    word = data.draw(st.lists(st.tuples(index, exponent), max_size=12))
    assert wg.collect(word) == oracle_collect(wg, word)
    for _ in range(3):
        a, b = data.draw(vector), data.draw(vector)
        assert wg.mul_vec(a, b) == oracle_collect(wg, letters_of(wg, a) + letters_of(wg, b))
        assert wg.inv_vec(a) == oracle_collect(
            wg, [(idx, -e) for idx, e in reversed(letters_of(wg, a))]
        )
