"""The decision-tree overlap memo of the search against the overlap test,
check by check, on drawn shift-invariant tables and extension nodes."""

import copy
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsys import analysis, zsystem
from zsys.analysis import (
    OverlapMemo,
    _free_reps,
    _orbit_rows,
    _word_choices,
    extendable,
    search_tables,
)
from zsys.zsystem import WindowGroup, overlap_checks, overlap_violation


def spread(p, lo, hi, rep_words) -> WindowGroup:
    """The window on [lo, hi] whose table holds the word of each orbit
    representative (i, j) on every translate (i + 2t, j + 2t) inside it."""
    table = {}
    for (i, j), word in rep_words.items():
        for t in range(0, hi - j + 1, 2):
            table[(i + t, j + t)] = {k + t: e for k, e in word.items()}
    return WindowGroup(p, lo, hi, table)


def shift_invariant_windows(p, lo, hi, support_bound):
    """Every shift-invariant interior table on [lo, hi], in search order."""
    reps = _free_reps(lo, hi)
    choice_lists = [
        [{i + k: e for k, e in letters} for letters in _word_choices(p, j - i, support_bound)]
        for i, j in reps
    ]
    for assignment in itertools.product(*choice_lists):
        yield spread(p, lo, hi, dict(zip(reps, assignment)))


@st.composite
def word(draw, p, i, j):
    """A strictly interior word for the pair (i, j), of at most two letters."""
    return draw(st.dictionaries(st.integers(i + 1, j - 1), st.integers(1, p - 1), max_size=2))


@st.composite
def table_families(draw, widths):
    """Shift-invariant strictly interior tables on one window, at p in (2, 3,
    5) and a width in `widths`.  Each orbit word is one of two drawn for its
    representative, so that the tables agree on some orbits and differ on
    others, as the tables of a search do."""
    p = draw(st.sampled_from((2, 3, 5)))
    lo = draw(st.integers(-2, 2))
    hi = lo + draw(widths) - 1
    pools = {(i, j): [draw(word(p, i, j)) for _ in range(2)] for i, j in _free_reps(lo, hi)}
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        rep_words = {rep: pool[draw(st.integers(0, 1))] for rep, pool in pools.items()}
        tables.append(spread(p, lo, hi, rep_words))
    return tables


def memo_fails(memo, wg, words, planned) -> bool:
    """The memo's verdict on one planned (parity, shape) check: whether it
    fails on the table with these orbit words."""
    return not analysis._checks_pass(memo, wg.p, (planned,), words)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tables=table_families(st.integers(3, 7)))
def test_tree_memo_matches_overlap_test_check_by_check(tables):
    # one memo for the whole family, run forward and then reversed, so that
    # the second pass walks the trees that the first one grew
    memo = OverlapMemo()
    for wg in tables + tables[::-1]:
        words = _orbit_rows(wg)
        for check in overlap_checks(wg.lo, wg.hi):
            (planned,) = analysis._plan(wg.lo, [check])
            expected = overlap_violation(wg, [check]) is not None
            assert memo_fails(memo, wg, words, planned) == expected, (check, wg.comm)


def touched_slots(lo, check, slots) -> set:
    """The indices of the slots, relative to lo, of the pairs at distance 2
    or more inside the span of the check."""
    i, k = check[-1], check[0]
    pairs = ((a, b) for a in range(i, k + 1) for b in range(a + 2, k + 1))
    return {slots.index(slot) for a, b in pairs if (slot := ((a - lo) & 1, b - a)) in slots}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tables=table_families(st.integers(5, 7)), data=st.data())
def test_tree_memo_matches_overlap_test_on_extension_nodes(tables, data):
    # each table is a widening of its restriction to [lo + 1, hi - 1]; a node
    # at a level reads only the new representatives of its read set, and
    # every other one is blanked, so a check that reads outside its set
    # raises or disagrees.  Each planned check of the level touches a new
    # representative, the last of them set just before the level, and is
    # decided by the memo as the overlap test decides its translate that
    # starts at lo + s.
    memo = OverlapMemo()
    for wg in tables + tables[::-1]:
        slots, levels, reads = analysis._extension_plan(wg.lo + 1, wg.hi - 1)
        assert levels[0] == () and len(levels) == len(reads) == len(slots) + 1
        for level, plan in enumerate(levels):
            checks = [tuple(wg.lo + s + k for k in shape) for s, shape in plan]
            touched = [touched_slots(wg.lo, check, slots) for check in checks]
            assert all(max(t, default=-1) == level - 1 for t in touched), (level, checks)
            assert reads[level] == set().union(*touched), level
        level = data.draw(st.integers(0, len(slots)))
        words = _orbit_rows(wg)
        for idx, (s, d) in enumerate(slots):
            if idx not in reads[level]:
                words[s][d] = None
        for s, shape in levels[level]:
            check = tuple(wg.lo + s + k for k in shape)
            assert check[0] <= wg.hi
            expected = overlap_violation(wg, [check]) is not None
            assert memo_fails(memo, wg, words, (s, shape)) == expected, (check, wg.comm)
        expected = all(
            overlap_violation(wg, [tuple(wg.lo + s + k for k in shape)]) is None
            for s, shape in levels[level]
        )
        assert analysis._checks_pass(memo, wg.p, levels[level], words) == expected


def test_tree_memo_grows_on_reads():
    # a check on x_2 x_1 x_0 reads the word of the pair (0, 2) only, so its
    # tree has one node with a branch per word met, keyed by its letters,
    # and a table that agrees on that word is decided without a run
    memo = OverlapMemo()
    wg = WindowGroup(3, 0, 2, {(0, 2): {1: 1}})
    words = _orbit_rows(wg)
    assert words[0][2] == ((1, 1),)
    assert not memo_fails(memo, wg, words, (0, (2, 1, 0)))
    assert memo.trees == {3: {(2, 1, 0): (0, 2, {((1, 1),): False})}}
    wider = WindowGroup(3, 0, 4, {(0, 2): {1: 1}, (2, 4): {3: 1}, (1, 3): {2: 2}})
    words = _orbit_rows(wider)
    assert not memo_fails(memo, wider, words, (0, (2, 1, 0)))
    assert len(memo) == 1


def test_conflicting_reads_raise_and_change_nothing():
    memo = OverlapMemo()
    shape = (3, 1, 0)
    memo.insert(3, shape, [(0, 2, "a"), (1, 2, "b")], True)
    memo.insert(3, shape, [(0, 2, "a"), (1, 2, "c")], False)
    memo.insert(3, shape, [(0, 2, "x")], False)
    tree = (0, 2, {"a": (1, 2, {"b": True, "c": False}), "x": False})
    assert memo.trees == {3: {shape: tree}} and len(memo) == 3
    before = copy.deepcopy(memo.trees)
    conflicts = [
        [(1, 2, "a")],  # another slot read first
        [(0, 2, "a"), (0, 3, "b")],  # another slot read second
        [(0, 2, "a")],  # the run ends where the tree reads on
        [(0, 2, "x")],  # a leaf is already there
        [(0, 2, "x"), (1, 2, "b")],  # the run reads on past a leaf
    ]
    for path in conflicts:
        for failed in (True, False):
            with pytest.raises(RuntimeError, match="conflict"):
                memo.insert(3, shape, path, failed)
            assert memo.trees == before and len(memo) == 3


def test_search_runs_the_overlap_test_only_in_its_memo(monkeypatch):
    # the windows the search builds carry the outcome its memo decided, so
    # neither the class computation nor a depth-2 certificate runs the test;
    # and a certificate walks orbit rows only, so it builds no window at any
    # depth
    callers = []

    def traced(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return overlap_violation(*args, **kwargs)

    monkeypatch.setattr(zsystem, "overlap_violation", traced)
    stream = list(search_tables(3, 0, 4, 1, extend_depth=2))
    assert len(stream) == 199 and callers
    assert set(callers) == {OverlapMemo.run.__code__}
    tables = [WindowGroup.from_json_dict(item["table"]) for item in stream[::10]]
    assert all(wg.overlap_witness is None for wg in tables)
    monkeypatch.setattr(WindowGroup, "__init__", lambda *args: pytest.fail("a window was built"))
    answers = [extendable(wg, 1, depth) for depth in (1, 2, 3) for wg in tables]
    assert True in answers and False in answers


def test_a_memo_leaf_that_fails_answers_before_any_run(monkeypatch):
    # the first planned check is undecided and a later one fails by a leaf
    # that the memo already holds: the leaf answers, and no check runs
    found = 0
    for hi in (3, 4):
        plan = analysis._window_plan(0, hi)
        for wg in shift_invariant_windows(3, 0, hi, 1):
            words = _orbit_rows(wg)
            # a memo that holds the tree of one failing check only, of
            # another shape than the first check's
            for planned in plan[1:]:
                memo = OverlapMemo()
                if planned[1] != plan[0][1] and memo_fails(memo, wg, words, planned):
                    break
            else:
                continue
            with monkeypatch.context() as mp:
                mp.setattr(zsystem, "overlap_violation", lambda *args: pytest.fail("a check ran"))
                assert not analysis._checks_pass(memo, 3, plan, words)
            assert memo.leaves == 1
            found += 1
    assert found
