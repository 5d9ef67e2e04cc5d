"""The per-call tables of the slow chain against the bodies they replaced:
``compress`` with one ``mul_omega_omega`` and one ``g_window`` per block,
``verify_slow`` taking C as a key's largest token, and the printer with one
head per exponent.  Equal keys and terms, identical text and reports, the
same messages for bad arguments, and no table that outlives a call.  The
fast paths that no timed workload paid for are kept at the end, against
the shorter bodies that replaced them."""

import random
import time

import pytest

from grzseq import correspond, ordinals
from grzseq.correspond import flip, g, g_window, g_windows, profile
from grzseq.grzeval import eval_F, exceeds
from grzseq.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    add_each,
    chain_to_text,
    coeff_measure,
    from_int,
    lift_each,
    mul_omega_omega,
    omega_pow,
    omega_tower,
    parse_chain_text,
    print_ordinal,
)
from grzseq.slowdown import SlowChain, SlowReport, compress, verify_slow


# ---------------------------------------------------------------------------
# The replaced bodies


def old_mul_omega_omega(a):
    return Ordinal(tuple((add(OMEGA, e), c) for e, c in a.terms))


def old_g_window(n, k, x, count):
    """g_window's body before the windows shared a table, its profile part
    read through profile and flip."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    for v in (n, x, count):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError("slot count and value must be non-negative integers")
    stop = x + count
    if n == 0:
        return [from_int(max(0, (k + 1) - y)) for y in range(x, stop)]
    e = from_int(n)
    out = [omega_pow(e, k - y) for y in range(x, min(k, stop))]
    for y in range(max(k, x), stop):
        if not exceeds(n, 1, k, y):
            out += [ZERO] * (stop - y)
            break
        out.append(Ordinal(tuple(zip(map(from_int, range(n - 1, -1, -1)), flip(profile(y, n, k))))))
    return out


def old_compress(alphas, n, c):
    """compress with the lift and the rank window built afresh per block."""
    measures = [coeff_measure(a) for a in alphas]
    ell = max(c, measures[0])
    target = old_mul_omega_omega(alphas[0])
    tower, t = ONE, 0
    while tower <= target:
        tower, t = omega_pow(tower), t + 1
    entries = []
    for _ in range(ell):
        tower = omega_pow(tower)
        entries.append(tower)
    entries.reverse()
    total = sum(measures)
    note = None
    if ell >= total:
        note = (
            f"tower prefix (length {ell}) already covers every index "
            f"decomposable in this prefix (total measure {total})"
        )
    start = 0
    for k in range(len(alphas) - 1):
        start += measures[k]
        lo = max(0, ell - start)
        entries += add_each(old_mul_omega_omega(alphas[k]), old_g_window(n, max(2, k), lo, max(0, measures[k + 1] - lo)))
    return SlowChain(tuple(entries), ell, ell + t, note)


def old_verify_slow(s):
    keys = [a.key for a in (s.entries if isinstance(s, SlowChain) else s)]
    violations = [f"entries {i} and {i + 1} do not descend"
                  for i, (a, b) in enumerate(zip(keys, keys[1:])) if not b < a]
    for i, key in enumerate(keys):
        m = max(key)
        if m > i + 1:
            violations.append(f"entry {i} has coefficient measure {m} > {i + 1}")
    return SlowReport(not violations, tuple(violations))


def key_text(key):
    out, prev = [], 0
    for t in key[1:-1]:
        if t > 0:
            out.append(str(t))
        elif t == 0:
            out.append("+w^(" if prev > 0 else "w^(")
        else:
            out.append(")*")
        prev = t
    return "".join(out).replace("w^()*", "")


def old_print(a, heads):
    if not a.terms:
        return "0"
    out = []
    for e, c in a.terms:
        head = heads.get(id(e))
        if head is None:
            head = heads[id(e)] = (e, f"w^({key_text(e.key)})*" if e.terms else "")
        out.append(f"{head[1]}{c}")
    return "+".join(out)


def old_chain_to_text(entries):
    heads = {}
    return "\n".join(old_print(a, heads) for a in entries) + "\n"


def same(a, b):
    return a.key == b.key and a.terms == b.terms


# ---------------------------------------------------------------------------
# Inputs: equal exponents as distinct objects, each built by the constructor


def fresh_ordinal(rng, depth):
    exps = set()
    for _ in range(rng.randint(1, 3)):
        if depth and rng.random() < 0.6:
            exps.add(fresh_ordinal(rng, depth - 1))
        else:
            v = rng.randint(0, 6)
            exps.add(Ordinal(((Ordinal(), v),)) if v else Ordinal())
    return Ordinal(tuple((e, rng.randint(1, 8)) for e in sorted(exps, reverse=True)))


def fresh_chain(seed):
    rng = random.Random(seed)
    alphas = sorted({fresh_ordinal(rng, 2) for _ in range(rng.randint(2, 40))}, reverse=True)
    return alphas + [ZERO] if seed % 2 else alphas


def test_the_fresh_chains_repeat_exponents_as_distinct_objects():
    exps = [e for a in fresh_chain(3) for e, _ in a.terms]
    assert len({e.key for e in exps}) < len({id(e) for e in exps})


# ---------------------------------------------------------------------------
# compress


@pytest.mark.parametrize("seed", range(10))
def test_compress_matches_one_lift_and_window_per_block(seed):
    alphas = fresh_chain(seed)
    read = parse_chain_text(chain_to_text(alphas))  # the same chain, equal exponents one object
    for chain in (alphas, read):
        for n, c in ((2, 0), (2, 6), (3, 1), (3, 45)):
            got, want = compress(chain, n, c), old_compress(chain, n, c)
            assert (got.tower_prefix_len, got.tower_height_base, got.note) == \
                   (want.tower_prefix_len, want.tower_height_base, want.note)
            assert len(got.entries) == len(want.entries)
            assert all(same(a, b) for a, b in zip(got.entries, want.entries)), (seed, n, c)


def test_blocks_share_their_ranks_below_the_base():
    # C = 8 at every entry: past base 8, block k's ranks are w^2 * (k - y)
    # for y < 8, and block k + 1 shares seven of them
    exps = [Ordinal(((ONE, a), (ZERO, b))) for a in (8, 7, 6, 5) for b in range(8, 0, -1)]
    alphas = [Ordinal(((e, 8),)) for e in exps[:30]] + [ZERO]
    out = compress(alphas, 2, 0)
    ranks = [a.terms[-1] for a in out.entries[out.tower_prefix_len:]]
    assert len(ranks) == 8 * 29  # the last block, before 0, is empty
    below = [t for t in ranks if t[0] is from_int(2)]  # the profile part's exponents are 1 and 0
    by_value = {}
    for t in below:
        by_value.setdefault(t, set()).add(id(t))
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(below) > 150 and len(by_value) == 28


def test_no_table_outlives_a_call():
    alphas = fresh_chain(5)
    a, b = compress(alphas, 2, 3), compress(alphas, 2, 3)
    assert a == b
    assert all(x is not y for x, y in zip(a.entries[a.tower_prefix_len:], b.entries[b.tower_prefix_len:]))
    assert lift_each(alphas)[0] is not lift_each(alphas)[0]


# ---------------------------------------------------------------------------
# lift_each and mul_omega_omega


@pytest.mark.parametrize("seed", range(6))
def test_lift_each_is_the_old_lift_on_each(seed):
    alphas = fresh_chain(seed)
    read = parse_chain_text(chain_to_text(alphas))
    for chain in (alphas, read, iter(read), []):
        chain = list(chain)
        got = lift_each(chain)
        assert len(got) == len(chain)
        assert all(same(x, old_mul_omega_omega(a)) for x, a in zip(got, chain))
        assert all(same(mul_omega_omega(a), x) for a, x in zip(chain, got))


def test_lift_each_lifts_each_exponent_object_once():
    read = parse_chain_text("w^(w^(2)+1)*3+w^(4)\nw^(w^(2)+1)*2+w^(4)\nw^(w^(2)+1)+w^(3)\n")
    lifted = lift_each(read)
    assert len({id(a.terms[0][0]) for a in lifted}) == 1
    assert lifted[0].terms[1][0] is lifted[1].terms[1][0]
    assert [print_ordinal(a) for a in lifted] == [print_ordinal(old_mul_omega_omega(a)) for a in read]


@pytest.mark.parametrize("bad", [None, 3, "w", (ONE, 1)])
def test_lift_each_refuses_what_mul_omega_omega_refuses(bad):
    with pytest.raises(Exception) as want:
        old_mul_omega_omega(bad)
    for fn, arg in ((mul_omega_omega, bad), (lift_each, [OMEGA, bad])):
        with pytest.raises(type(want.value)) as err:
            fn(arg)
        assert str(err.value) == str(want.value)


# ---------------------------------------------------------------------------
# g_windows and g_window


def random_windows(rng, n, k):
    """(k, x, count) windows below, across and past the base, empty ones,
    and ones that reach past F_n(k) where that is small enough to reach."""
    top = eval_F(n, k, 10**4)
    f = top.value if hasattr(top, "value") else 10**4
    out = []
    for _ in range(rng.randint(0, 6)):
        x = rng.choice([0, rng.randrange(k), k, k + rng.randrange(4), max(0, f - 3), f, f + 4])
        out.append((k, x, rng.choice([0, 1, 3, 8, k + 2])))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_g_windows_is_the_old_window_on_each(seed):
    rng = random.Random(seed)
    for n in range(4):
        windows = [w for _ in range(rng.randint(1, 4)) for w in random_windows(rng, n, rng.randint(2, 10))]
        got = g_windows(n, windows)
        assert len(got) == len(windows)
        for ranks, (k, x, count) in zip(got, windows):
            want = old_g_window(n, k, x, count)
            assert len(ranks) == count and all(same(a, b) for a, b in zip(ranks, want)), (n, k, x, count)
            assert [a.key for a in g_window(n, k, x, count)] == [a.key for a in want]
            assert [a.key for a in ranks] == [g(n, k, y).key for y in range(x, x + count)]


def timed(fn, *args):
    """fn(*args), which must answer in well under a second."""
    start = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - start < 0.25, (fn.__name__, args)
    return out


@pytest.mark.parametrize("n", [1, 2, 5])
def test_ranks_below_a_huge_base_cost_what_the_window_holds(n):
    # ranks below k = 10^12 are built as the windows ask for them, never as a
    # column from 1 up to k: windows of 0-8 ranks, their own, at a neighbouring
    # base, far below the base, and ones that start the run again
    def want(k, x, count):  # w^n * (k - y) for each y of the window
        return [omega_pow(from_int(n), k - y).key for y in range(x, x + count)]

    k = 10**12
    assert timed(g, n, k, 0).key == want(k, 0, 1)[0]
    windows = []
    for count in range(9):
        for x in (0, 1, 10**6, k - count):
            assert [r.key for r in timed(g_window, n, k, x, count)] == want(k, x, count)
            windows += [(k, x, count), (k + 1, x, count)]
    windows += [(k, 0, 8), (k - 3, 0, 2), (k + 9, 4, 8), (k, 10**6, 8), (k + 2, 10**6 + 1, 8)]
    got = timed(g_windows, n, windows)
    assert [[r.key for r in ranks] for ranks in got] == [want(*w) for w in windows]
    by_key = {}  # one object per coefficient for the call, across every window
    assert all(by_key.setdefault(r.key, r) is r for ranks in got for r in ranks)


def test_g_windows_reaches_zero_and_counts_zero():
    # F_1(3) = 6 and F_2(2) = 8: the ranks from there on are ZERO itself
    got = g_windows(1, [(3, 4, 5), (3, 0, 0), (2, 8, 2)])
    assert got[1] == [] and all(r is ZERO for r in got[0][2:] + got[2])
    assert g_windows(0, [(4, 3, 4)]) == [[from_int(2), from_int(1), ZERO, ZERO]]
    assert g_windows(2, []) == []


BAD = [True, False, -1, 1.0, 2.5, "3", None]


def refusal(n, k, x, count):
    """old_g_window's message for these arguments, or None if it takes them."""
    try:
        old_g_window(n, k, x, count)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("bad", BAD)
def test_g_windows_refuses_a_bad_window_as_g_window_does(bad):
    cases = [(bad, (3, 1, 2)), (2, (bad, 1, 2)), (2, (3, bad, 2)), (2, (3, 1, bad)), (bad, (bad, 1, 2))]
    for n, (k, x, count) in cases:
        with pytest.raises(ValueError) as want:
            old_g_window(n, k, x, count)
        for windows in ([(k, x, count)], [(5, 0, 3), (k, x, count)], [(k, x, count), (5, 0, 3)]):
            first = next(w for w in windows if refusal(n, *w))  # windows are checked in order
            with pytest.raises(ValueError) as err:
                g_windows(n, windows)
            assert str(err.value) == refusal(n, *first), (n, windows)
        with pytest.raises(ValueError) as err:
            g_window(n, k, x, count)
        assert str(err.value) == str(want.value)
    assert g_windows(bad, []) == [g_window(bad, k, x, count) for k, x, count in []]  # no window, no check


# ---------------------------------------------------------------------------
# verify_slow


def broken(entries):
    e = list(entries)
    mid = len(e) // 2
    yield e
    yield e[:mid - 1] + [e[mid], e[mid - 1]] + e[mid + 1:]
    yield e[:mid] + [e[mid]] + e[mid:]
    yield e[::-1]
    yield [add(e[0], from_int(10**6))] + e[1:]
    yield e + [from_int(len(e) + 5), from_int(3)]
    yield [mul_omega_omega(a) for a in e[::3]]
    yield []


@pytest.mark.parametrize("seed", range(8))
def test_verify_slow_matches_the_largest_key_token(seed):
    alphas = fresh_chain(seed)
    for chain in (alphas, parse_chain_text(chain_to_text(alphas))):
        out = compress(chain, 2, seed)
        assert verify_slow(out) == old_verify_slow(out) and verify_slow(out).ok
        for entries in broken(out.entries):
            want = old_verify_slow(entries)
            assert verify_slow(entries) == want
            assert verify_slow(a for a in entries) == want  # a generator, read once
            assert verify_slow(SlowChain(tuple(entries), 0, 0)) == want
        assert old_verify_slow(chain) == verify_slow(iter(chain))


def test_verify_slow_finds_a_coefficient_two_levels_down_in_a_shared_exponent():
    # X = w^(w*50): every entry below holds it as an exponent, so the 50 sits
    # two levels below each entry, and X's measure is read from one table slot
    inner = Ordinal(((Ordinal(((ONE, 50),)), 1),))
    chain = [Ordinal(((inner, c), (ONE, 1))) for c in (5, 4, 3, 2, 1)]
    chain += [Ordinal(((inner, 1),)), ONE, ZERO]
    report = verify_slow(iter(chain))
    assert report == old_verify_slow(chain) and not report.ok
    assert [v for v in report.violations if "measure 50" in v] == \
           [f"entry {i} has coefficient measure 50 > {i + 1}" for i in range(6)]
    # the same exponent as distinct equal objects reads the same
    copies = [Ordinal(((Ordinal(((Ordinal(((ONE, 50),)), 1),)), c), (ONE, 1))) for c in (5, 4, 3)]
    assert verify_slow(copies) == old_verify_slow(copies)
    # two levels down and within its bound, a shared exponent passes
    small = Ordinal(((Ordinal(((ONE, 2),)), 1),))
    ok = [omega_tower(4), Ordinal(((small, 2),)), Ordinal(((small, 1),)), OMEGA]
    assert verify_slow(ok) == old_verify_slow(ok) and verify_slow(ok).ok
    assert verify_slow(ok[1:]) == old_verify_slow(ok[1:]) and not verify_slow(ok[1:]).ok


# ---------------------------------------------------------------------------
# chain_to_text


@pytest.mark.parametrize("seed", range(8))
def test_chain_to_text_matches_one_head_per_exponent(seed):
    alphas = fresh_chain(seed)
    for chain in (alphas, parse_chain_text(chain_to_text(alphas))):
        entries = compress(chain, 2, seed).entries
        assert chain_to_text(entries) == old_chain_to_text(entries)
        assert chain_to_text(iter(entries)) == old_chain_to_text(entries)
        assert [print_ordinal(a) for a in entries[:30]] == [old_print(a, {}) for a in entries[:30]]


def test_chain_to_text_repeats_one_entry_object():
    a = Ordinal(((Ordinal(((ONE, 3), (ZERO, 2))), 4), (ONE, 2), (ZERO, 7)))
    b = Ordinal(((ONE, 2), (ZERO, 7)))
    entries = [a, a, b, a, b, b, ZERO, a]
    assert chain_to_text(entries) == old_chain_to_text(entries)
    assert chain_to_text(entries).splitlines()[0] == "w^(w^(1)*3+2)*4+w^(1)*2+7"
    assert parse_chain_text(chain_to_text(entries)) == entries


# ---------------------------------------------------------------------------
# The fast paths deleted for buying no workload any time: g_windows' run of
# coefficients, add's shortcut for a sum that absorbs nothing, and the direct
# w^w lift


def run_g_windows(n, windows):
    """g_windows with its ranks below the base sliced from a run of
    coefficients that each window extends at its top."""
    below, col, base, out = {}, [None], 0, []
    for k, x, count in windows:
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ValueError(f"base must be an integer >= 2, got {k!r}")
        for v in (n, x, count):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError("slot count and value must be non-negative integers")
        stop = x + count
        if n == 0:
            out.append([from_int(max(0, (k + 1) - y)) for y in range(x, stop)])
            continue
        e, ranks = from_int(n), []
        lo, hi = max(1, k - stop + 1), k - x
        if lo <= hi:
            if lo <= base or lo > base + len(col):  # the run starts again at the window's lowest c
                col, base = [None], lo - 1
            while (c := base + len(col)) <= hi:
                r = below.get(c)
                if r is None:
                    r = below[c] = omega_pow(e, c)
                col.append(r)
            ranks = col[hi - base:lo - base - 1:-1]
        for y in range(max(k, x), stop):
            if not exceeds(n, 1, k, y):
                ranks += [ZERO] * (stop - y)
                break
            ranks.append(Ordinal(tuple(zip(map(from_int, range(n - 1, -1, -1)), flip(profile(y, n, k))))))
        out.append(ranks)
    return out


def shortcut_add(a, b):
    """add with its shortcut: when every exponent of a lies above b's lead,
    the two keys joined with no pass over a's terms."""
    terms, bt = a.terms, b.terms
    if not bt:
        return a
    lead = bt[0][0]
    lk = lead.key
    if terms and terms[-1][0].key > lk:  # nothing absorbed
        return ordinals._ordinal(terms + bt, a.key[:-1] + b.key[1:])
    i = 0
    while i < len(terms) and terms[i][0].key > lk:
        i += 1
    if i < len(terms) and terms[i][0].key == lk:
        return ordinals._sum(terms[:i] + ((lead, terms[i][1] + bt[0][1]),) + bt[1:])
    return ordinals._sum(terms[:i] + bt) if i else b


def direct_mul_omega_omega(a):
    """mul_omega_omega lifting one ordinal's terms with no table."""
    return ordinals._sum(tuple([(add(OMEGA, e), c) for e, c in a.terms]))


def windows_of_compress(monkeypatch, alphas, n, c):
    """The (base, x, count) windows that compress asks g_windows for."""
    seen, real = [], correspond.g_windows

    def record(n, windows):
        seen.append(list(windows))
        return real(n, seen[-1])

    monkeypatch.setattr(correspond, "g_windows", record)
    compress(alphas, n, c)
    monkeypatch.undo()
    (windows,) = seen
    return windows


def sharing(blocks):
    """Each rank of a call as the position of its object's first occurrence."""
    first = {}
    return [first.setdefault(id(r), i) for i, r in enumerate(r for ranks in blocks for r in ranks)]


@pytest.mark.parametrize("seed", range(6))
def test_g_windows_is_the_coefficient_run_on_the_windows_compress_builds(monkeypatch, seed):
    alphas, seen = fresh_chain(seed), 0
    for n, c in ((2, 0), (2, 6), (3, 1), (3, 45)):
        windows = windows_of_compress(monkeypatch, alphas, n, c)
        got, want = g_windows(n, windows), run_g_windows(n, windows)
        assert [[r.key for r in ranks] for ranks in got] == [[r.key for r in ranks] for ranks in want]
        assert sharing(got) == sharing(want), (seed, n, c)
        by_key = {}  # a rank below the base, w^n * c, is one object per coefficient for the call
        below = [r for ranks in got for r in ranks if r.terms and r.terms[0][0] is from_int(n)]
        assert all(by_key.setdefault(r.key, r) is r for r in below)
        seen += len(below)
    assert seen
    rng = random.Random(seed)
    for n in range(4):
        windows = [w for _ in range(4) for w in random_windows(rng, n, rng.randint(2, 10))]
        got, want = g_windows(n, windows), run_g_windows(n, windows)
        assert [[r.key for r in ranks] for ranks in got] == [[r.key for r in ranks] for ranks in want]
        assert sharing(got) == sharing(want), (seed, n, windows)


@pytest.mark.parametrize("seed", range(6))
def test_add_is_the_shortcut_add_where_nothing_is_absorbed(seed):
    rng = random.Random(seed)
    for _ in range(200):
        whole = fresh_ordinal(rng, 2)  # a sum split in two: every exponent of a lies above b's lead
        i = rng.randint(1, len(whole.terms))
        a, b = Ordinal(whole.terms[:i]), Ordinal(whole.terms[i:])
        got, want = add(a, b), shortcut_add(a, b)
        assert same(got, want) and same(got, whole)
        assert all(x is y for x, y in zip(got.terms, a.terms + b.terms))  # the terms themselves, joined
        c = fresh_ordinal(rng, 2)
        assert same(add(a, c), shortcut_add(a, c)) and same(add(c, a), shortcut_add(c, a))


@pytest.mark.parametrize("seed", range(6))
def test_mul_omega_omega_is_the_direct_lift_on_random_chains(seed):
    alphas = fresh_chain(seed)
    for chain in (alphas, parse_chain_text(chain_to_text(alphas))):
        want = [direct_mul_omega_omega(a) for a in chain]
        assert all(same(mul_omega_omega(a), x) for a, x in zip(chain, want))
        assert all(same(x, y) for x, y in zip(lift_each(chain), want))
