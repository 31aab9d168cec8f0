"""Differential test of `zsystem.closure` against the closure it replaced.

`bfs_closure` is the breadth-first closure that coset enumeration replaced:
it multiplies every element found by every seed until nothing new appears.
It does not rest on associativity, so on a group it is the subgroup
generated by the seeds.  `closure` needs a group, and refuses a table whose
overlap test finds a witness: every subgroup entry point is checked to
refuse exactly those tables among random strictly interior ones, and to
agree with the oracle on the others.  The other tables drawn here are
consistent: the search tables at p = 2 and p = 3, central and not, random
central tables that pass the overlap test, and the central unitary window
at p = 3 on [0, 7].

`closure` forms a coset by concatenation when its representative's lowest
letter lies above every letter of the seeds taken so far, and each other
coset as the image of the subgroup under `WindowGroup.right_mul`, which on a
central window folds the letters of the representative onto each element
without a product.  The concatenation rule is checked here against
`mul_vec` on random strictly interior tables, consistent or not, and on the
class-3 search tables; `right_mul` against `mul_vec`, and both against the
generic fold of a window that `reading` makes from the same crossing words.
The window generators in index order need no `right_mul` at all.

`closure` returns its elements packed (`WindowGroup.pack`: bytes when
p <= 256, tuples above), and that set is the subgroup wherever `analysis`
forms one; `right_mul` maps packed elements to packed ones.  The oracles
give tuples, so results are compared as tuples (`elements`), at both
packings.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_collect_oracle import central_tables, interior_tables

from zsys.analysis import (
    lemma_checks,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    search_tables,
    shift_invariant_closure,
)
from zsys.matgroup import make_example
from zsys.zsystem import (
    DEFAULT_CAP,
    CapExceeded,
    WindowGroup,
    closure,
    derive_window,
    overlap_violation,
)


def elements(packed) -> set:
    """A packed subgroup, as `closure` returns it, as a set of exponent
    tuples."""
    return {tuple(v) for v in packed}


def closure_tuples(wg, seed_vecs, cap=None) -> set:
    """`closure` with its packed elements read back as exponent tuples."""
    return elements(closure(wg, seed_vecs, cap))


def bfs_closure(wg, seed_vecs, cap=None) -> set:
    """Multiplicative closure of the seeds, breadth first; raises CapExceeded
    at the cap + 1st element."""
    cap = DEFAULT_CAP if cap is None else cap
    gens = [v for v in dict.fromkeys(seed_vecs) if v != wg.identity_vec]
    seen = {wg.identity_vec}
    frontier = [wg.identity_vec]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = wg.mul_vec(v, g)
                if w not in seen:
                    seen.add(w)
                    if len(seen) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap} (at {len(seen)} elements)")
                    new.append(w)
        frontier = new
    return seen


@functools.lru_cache(maxsize=None)
def searched_windows() -> tuple:
    """The consistent tables of the search at p = 2 on [0, 5] and at p = 3 on
    [0, 4] (support bound 1): 115 + 199 windows, class 1 to 3."""
    return tuple(
        WindowGroup.from_json_dict(item["table"])
        for p, hi in ((2, 5), (3, 4))
        for item in search_tables(p, 0, hi, 1)
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded as err:
        return str(err)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_closure_matches_bfs(data):
    if data.draw(st.booleans()):
        wg = data.draw(st.sampled_from(searched_windows()))
    else:
        wg = data.draw(central_tables())
        # at most 729 elements, so that the oracle stays quick
        assume(wg.order <= 3**6 and overlap_violation(wg) is None)
    # seeds need not be normal forms: closure reduces them mod p
    vector = st.tuples(*[st.integers(-wg.p, 2 * wg.p)] * wg.width)
    letters = [wg.gen_vec(i) for i in wg.indices()] + [wg.identity_vec]
    seeds = data.draw(st.lists(st.sampled_from(letters) | vector, max_size=5))
    if seeds:
        seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=2))
    expected = bfs_closure(wg, seeds)
    assert closure_tuples(wg, seeds) == expected
    assert closure_tuples(wg, data.draw(st.permutations(seeds))) == expected
    cap = data.draw(st.integers(1, len(expected) + 1))
    assert outcome(closure_tuples, wg, seeds, cap) == outcome(bfs_closure, wg, seeds, cap)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(wg=interior_tables(), data=st.data())
def test_subgroup_entry_points_refuse_exactly_the_inconsistent_tables(wg, data):
    vector = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    seeds = data.draw(st.lists(vector, min_size=1, max_size=3))
    # subgroups past 729 elements are cut off by CapExceeded, so that the
    # consistent tables of width 7 stay quick
    cap = 729
    entry_points = [
        lambda: closure(wg, seeds, cap),
        lambda: normal_closure(wg, seeds, cap),
        lambda: lower_central_series(wg, cap),
        lambda: nilpotency_class(wg),
        lambda: lemma_checks(wg, cap, trials=3),
        lambda: shift_invariant_closure(wg, seeds[0], seeds[-1], cap),
    ]
    witness = overlap_violation(wg)
    for call in entry_points:
        try:
            outcome(call)
        except ValueError as err:
            assert witness is not None, wg.comm
            assert str(err) == f"table is inconsistent: {witness['kind']} at {witness['indices']}"
        else:
            assert witness is None, wg.comm
    if witness is None:
        assert outcome(closure_tuples, wg, seeds, cap) == outcome(bfs_closure, wg, seeds, cap)


def test_closure_refuses_a_table_it_enumerated_wrongly():
    # coset enumeration without a membership test found 192 of the 243
    # elements that the breadth-first closure reaches on this table
    wg = WindowGroup(3, 0, 5, {(0, 3): {1: 2}, (0, 4): {1: 2}, (0, 5): {2: 1},
                               (1, 4): {2: 1}, (2, 4): {3: 2}})
    seeds = [(1, 1, 2, 0, 1, 0), (2, 0, 1, 1, 0, 1)]
    assert len(bfs_closure(wg, seeds)) == 243
    with pytest.raises(ValueError, match=r"^table is inconsistent: triple at \[4, 1, 0\]$"):
        closure(wg, seeds)


def test_closure_cap_message():
    # the cap is checked per element: the message names the cap + 1st
    wg = searched_windows()[0]
    seeds = [wg.gen_vec(i) for i in wg.indices()]
    assert len(closure(wg, seeds, cap=wg.order)) == wg.order
    with pytest.raises(CapExceeded, match=r"cap 10 \(at 11 elements\)"):
        closure(wg, seeds, cap=10)


def test_closure_reduces_its_seeds():
    # a seed that is not a normal form generates what its normal form does
    wg = WindowGroup(5, 0, 2, {})
    assert closure_tuples(wg, [(6, 0, 0)]) == {(k, 0, 0) for k in range(5)}
    assert closure_tuples(wg, [(5, 0, -5)]) == {wg.identity_vec}


def unitary_window(p, lo, hi):
    return derive_window(make_example("unitary", p), lo, hi)


def test_closure_of_a_central_window_matches_bfs():
    wg = unitary_window(3, 0, 7)
    assert wg._central
    seeds = [wg.gen_vec(i) for i in wg.indices()]
    whole = closure_tuples(wg, seeds)
    assert len(whole) == wg.order == 6561
    assert whole == bfs_closure(wg, seeds)


def test_closure_cap_inside_a_coset():
    # the last seed's cosets hold 5^6 = 15625 elements each, so the cap + 1st
    # element lies inside the fourth coset of the last subgroup
    wg = unitary_window(5, 0, 6)
    seeds = [wg.gen_vec(i) for i in wg.indices()]
    with pytest.raises(CapExceeded) as err:
        closure(wg, seeds, cap=50_000)
    assert str(err.value) == "closure exceeded cap 50000 (at 50001 elements)"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_a_letter_above_every_letter_lands_in_place(data):
    # on any strictly interior table, consistent or not: when every letter
    # of h lies below r's lowest letter, h r is the concatenation, by the
    # central fold and by the generic one
    windows = interior_tables() | central_tables() | st.sampled_from(non_central_windows())
    wg = data.draw(windows)
    low = data.draw(st.integers(0, wg.width - 1))
    digits = st.integers(0, wg.p - 1)
    h = tuple(data.draw(st.lists(digits, min_size=low, max_size=low)))
    h += (0,) * (wg.width - low)
    rest = wg.width - low - 1
    r = (0,) * low + (data.draw(st.integers(1, wg.p - 1)),)
    r += tuple(data.draw(st.lists(digits, min_size=rest, max_size=rest)))
    generic = WindowGroup.reading(wg.p, wg.lo, wg.hi, wg._cross)
    assert wg.mul_vec(h, r) == generic.mul_vec(h, r) == h[:low] + r[low:]


def test_generators_in_index_order_need_no_coset_product(monkeypatch):
    # each generator's cosets are concatenations, so right_mul is never used
    def refuse(self, r):
        raise AssertionError("closure formed a coset by products")

    windows = [unitary_window(5, 0, 6), max(non_central_windows(), key=lambda wg: wg.order)]
    monkeypatch.setattr(WindowGroup, "right_mul", refuse)
    for wg in windows:
        seeds = [wg.gen_vec(i) for i in wg.indices()]
        assert len(closure(wg, seeds)) == wg.order


@functools.lru_cache(maxsize=None)
def non_central_windows() -> tuple:
    """The search tables whose window takes the generic fold: the 78 of
    class 3."""
    return tuple(wg for wg in searched_windows() if not wg._central)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_right_mul_matches_products(data):
    # the map is applied to packed normal forms (closure reduces its seeds,
    # so every element it forms is one) and gives packed ones; r need not be
    # a normal form
    kind = data.draw(st.sampled_from(("central", "non-central", "reading")))
    if kind == "non-central":
        wg = data.draw(st.sampled_from(non_central_windows()))
    else:
        wg = data.draw(central_tables())
        assert wg._central
    if kind == "reading":
        # the same crossing words, collected by the generic fold
        generic = WindowGroup.reading(wg.p, wg.lo, wg.hi, wg._cross)
    normal = st.tuples(*[st.integers(0, wg.p - 1)] * wg.width)
    raw = st.tuples(*[st.integers(-2 * wg.p, 2 * wg.p)] * wg.width)
    hs = [wg.identity_vec] + data.draw(st.lists(normal, min_size=1, max_size=4))
    rs = [wg.identity_vec] + data.draw(st.lists(normal | raw, min_size=1, max_size=3))
    pack = wg.pack
    for r in rs:
        times_r = wg.right_mul(r)
        for h in hs:
            expected = wg.mul_vec(h, r)
            assert times_r(pack(h)) == pack(expected)
            if kind == "reading":
                assert generic.mul_vec(h, r) == expected
                assert generic.right_mul(r)(pack(h)) == pack(expected)


@pytest.mark.parametrize("tag, p, hi", [
    ("standard", 2, 7),
    ("unitary", 3, 5),
    ("unitary", 5, 4),
    (None, 2, None),
    (None, 3, None),
    # the one packing by tuples: 257^2 = 66049 elements
    ("standard", 257, 1),
])
def test_packed_closure_matches_bfs(tag, p, hi):
    # generators in index order take only concatenations, in reverse order
    # they take right_mul cosets; the largest class-3 search table (tag None)
    # stands for the generic fold
    if tag is None:
        wg = max((w for w in non_central_windows() if w.p == p), key=lambda w: w.order)
    else:
        wg = derive_window(make_example(tag, p), 0, hi)
    packing = bytes if p <= 256 else tuple
    seeds = [wg.gen_vec(i) for i in wg.indices()]
    expected = bfs_closure(wg, seeds)
    assert len(expected) == wg.order
    for order in (seeds, seeds[::-1]):
        packed = closure(wg, order)
        assert {type(v) for v in packed} == {packing}
        assert set(map(tuple, packed)) == expected


@pytest.mark.parametrize("p, indices", [(5, (0, 2)), (257, (1, 2))])
def test_subgroup_reads_its_packed_set(p, indices):
    # at p = 5 the whole window, of class 2; at p = 257, where elements are
    # packed as tuples, the abelian <x_1, x_2> of 257^2 elements
    # the packed set reads order by len, membership of a packed vector,
    # subgroups by < and sorts as the exponent tuples do, which the lemma
    # report's trials rest on
    wg = derive_window(make_example("unitary", p), 0, 2)
    pack = wg.pack
    gens = [wg.gen_vec(i) for i in indices]
    sub = closure(wg, gens)
    assert len(sub) == (p**3 if indices == (0, 2) else p**2)
    assert [tuple(v) for v in sorted(sub)] == sorted(elements(sub))
    assert all(pack(v) in sub and pack(list(v)) in sub for v in elements(sub))
    assert sub == closure(wg, gens[::-1])
    line = closure(wg, [wg.gen_vec(1)])
    assert line < sub and elements(line) < elements(sub)
    assert pack((0, 1, 0)) in line and pack((1, 0, 0)) not in line
