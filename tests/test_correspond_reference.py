"""The correspondence's term walk and one-pass images against the bodies they
replaced: equal images, equal membership reports (reason text included),
equal inverses and predecessors, on images and on non-members built to break
each rule of D_k, plus ordinals of any depth from any stack depth."""

import pytest

from grzseq.correspond import L_inverse, MembershipReport, NotInDError, Q_pred, _image, _skeleton, in_D, o_map
from grzseq.frep import encode
from grzseq.grzeval import CapExceededError, Exact, ExceedsCap, fold
from grzseq.ordinals import (
    CLOSE,
    OMEGA,
    OPEN,
    ZERO,
    Ordinal,
    add,
    coeff_measure,
    from_int,
    left_subtract_omega,
    omega_tower,
    parse_ordinal,
)

CAP = 10**7


# ---------------------------------------------------------------------------
# The replaced bodies


def ref_o_map(x, k):
    """One validating constructor call per level over a generator, with the
    exponent code built as add(OMEGA, o_k(e))."""
    return Ordinal(tuple(
        (from_int(e) if e < k else add(OMEGA, ref_o_map(e, k)), c)
        for e, c in encode(x, k).pairs
        if c
    ))


def ref_skeleton(a, k, bound):
    """One recursion per level, each infinite exponent split by
    left_subtract_omega."""
    entries = []
    for e, c in a.terms:
        if e.is_finite:
            v = e.as_int()
            if v >= k:
                raise NotInDError(k, f"finite exponent {v} not below base {k}")
            entries.append((v, c))
        else:
            entries.append((ref_skeleton(left_subtract_omega(e), k, bound)[1], c))
    chain = k
    for p, (v, c) in enumerate(entries, start=1):
        if chain is None:
            continue
        if c >= chain:
            raise NotInDError(k, f"count {c} at position {p} not below intermediate base {chain}")
        chain = fold(((v, c),), chain, bound)
    return entries, chain


def ref_bound(a, k):
    return max(4, k, coeff_measure(a)) + 1


def ref_in_D(a, k):
    if a.is_zero:
        return MembershipReport(True, k, ((Exact(0), 0),), None)
    bound = ref_bound(a, k)
    try:
        entries, _ = ref_skeleton(a, k, bound)
    except NotInDError as err:
        return MembershipReport(False, k, None, err.reason)
    skel = tuple((Exact(v) if v is not None else ExceedsCap(bound), c) for v, c in entries)
    return MembershipReport(True, k, skel, None)


def ref_L_inverse(a, k, cap=CAP):
    _, v = ref_skeleton(a, k, max(cap, ref_bound(a, k)))
    return Exact(v) if v is not None and v <= cap else ExceedsCap(cap)


def ref_Q_pred(a, k, cap=CAP):
    x = ref_L_inverse(a, k, cap)
    if isinstance(x, ExceedsCap):
        raise CapExceededError(cap)
    return ref_o_map(x.value - 1, k)


def outcome(f, *args):
    """A value, or the exception's type and text: the comparison covers both."""
    try:
        return f(*args)
    except (NotInDError, CapExceededError) as err:
        return type(err), str(err)


def from_key(key):
    """The ordinal whose flat key this is, through the validating constructor."""
    lists = [[]]
    for t in key:
        if t == OPEN:
            lists.append([])
        elif t == CLOSE:
            done = Ordinal(tuple(lists.pop()))
            lists[-1].append(done)
        else:
            lists[-1][-1] = (lists[-1][-1], t)
    return lists[0][0]


def raised(a, *bumps):
    """a with the coefficients at these key positions raised; None when that
    leaves normal form (a finite exponent passing the one before it)."""
    key = list(a.key)
    for j, d in bumps:
        key[j] += d
    try:
        return from_key(key)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Images


IMAGE_RANGES = [(2, 10_001), (3, 10_001), (4, 2_001), (5, 2_001), (6, 2_001)]


def image_mismatches(k, hi):
    """The x in k..hi-1 whose image, report, inverse or predecessor differs
    from the replaced bodies' (collected, not asserted one by one: the loop
    is hot).  The inverse is checked at every x, and past x = k the
    predecessor too: on an image ending in a finite term Q_pred builds
    a - 1 from a itself, so it checks the inverse only on the others."""
    bad = []
    prev = None
    for x in range(k, hi):
        a, want = o_map(x, k), ref_o_map(x, k)
        if not (a.key == want.key and a.terms == want.terms
                and Ordinal(a.terms).key == a.key  # normal form, checked by the constructor
                and in_D(a, k) == ref_in_D(a, k)
                and L_inverse(a, k, CAP) == Exact(x)
                and (prev is None or Q_pred(a, k, CAP).key == prev.key)):
            bad.append(x)
        prev = want
    return bad


@pytest.mark.parametrize("k,hi", IMAGE_RANGES)
def test_images_inverses_and_predecessors_match(k, hi):
    assert image_mismatches(k, hi) == []


def test_images_of_large_values_match():
    for k in (2, 3, 4):
        for x in (10**40 + 3, 10**99 + 10**98 * 7 + 5, 3**500):
            a, want = o_map(x, k), ref_o_map(x, k)
            assert a.key == want.key and a.terms == want.terms and Ordinal(a.terms).key == a.key
            assert in_D(a, k) == ref_in_D(a, k)
            for cap in (0, CAP, x - 1, x):
                assert L_inverse(a, k, cap) == ref_L_inverse(a, k, cap)


def test_exponent_code_joins_merges_and_absorbs():
    # w + o_k(e) built in place, for o_k(e) zero, leading with a finite term
    # (join), with w^1 (merge) and with w^n, n >= 2, or an infinite exponent
    # (absorb).  An image of a value that fits in memory only ever joins:
    # merging needs an exponent e >= 2k, so x >= F_{2k}(k).
    for k in (2, 3, 4):
        kinds = set()
        for e in range(k, 300):
            b = ref_o_map(e, k)
            lead = b.terms[0][0] if b.terms else None
            kinds.add("zero" if lead is None else "join" if lead.is_zero
                      else "merge" if lead == from_int(1) else "absorb")
            code = _image(e, k, True)
            want = add(OMEGA, b)
            assert code.key == want.key and code.terms == want.terms, (e, k)
        assert kinds == {"zero", "join", "merge", "absorb"}


def test_shared_exponent_codes_match_across_the_table_edges():
    # codes of k <= e < k + min(k, 16) come from a table of w, ..., w+15; e = 2k
    # and e - k = 16 (k > 16) are the first past it
    for k in range(2, 41):
        for e in range(k, 3 * k + 1):
            code, want = _image(e, k, True), add(OMEGA, ref_o_map(e, k))
            assert code.key == want.key and code.terms == want.terms, (e, k)


def test_images_where_exponent_3_first_appears():
    # 2048 = F_3(2) = [(3,1)]_2: the first value at base 2 with exponent 3
    prev = ref_o_map(1_999, 2)
    for x in range(2_000, 2_100):
        a, want = o_map(x, 2), ref_o_map(x, 2)
        assert a.key == want.key and a.terms == want.terms, x
        assert Q_pred(a, 2, CAP).key == prev.key, x
        prev = want


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_images_and_predecessors_of_100_digit_values(k):
    for x in (10**99, 10**99 + 1, 10**100 - 1, 7**118):
        a, want = o_map(x, k), ref_o_map(x, k)
        assert a.key == want.key and a.terms == want.terms
        assert Q_pred(a, k, x).key == ref_o_map(x - 1, k).key
        assert outcome(Q_pred, a, k, x - 1) == outcome(ref_Q_pred, a, k, x - 1)


def w_plus(n):
    """The exponent w + n through the validating constructor."""
    return Ordinal(((from_int(1), 1),) + (((ZERO, n),) if n else ()))


def w_plus_cases(k):
    """Ordinals with an exponent w + n (n = 0, k-1, k, k+1) at the top or one
    level down, whose value k + n sits just below, at and just above the
    membership bound max(4, k, C) + 1, as C is set by a last finite term."""
    for n in (0, k - 1, k, k + 1):
        for c in (1, k - 1, k):
            for shift in (-1, 0, 1):
                top = Ordinal(((w_plus(n), c),))
                C = k + n - 1 + shift  # the bound is C + 1, against k + n
                if C >= 1:
                    top = add(top, from_int(C))
                yield top
                yield Ordinal(((top, 1),))  # one level down


@pytest.mark.parametrize("k", [2, 3, 5])
def test_w_plus_n_exponents_read_in_place_match(k):
    cases, members = list(w_plus_cases(k)), 0
    for a in cases:
        for bound in range(k, 2 * k + 4):  # the value k + n of each w + n against the bound itself
            assert outcome(_skeleton, a, k, bound) == outcome(ref_skeleton, a, k, bound), (a, bound)
        report = in_D(a, k)
        assert report == ref_in_D(a, k), a
        members += report.member
        value = ref_L_inverse(a, k, 10**6) if report.member else None
        for cap in {0, CAP, *range(2 * k + 6)} | (
                {value.value - 1, value.value, value.value + 1} if isinstance(value, Exact) else set()):
            assert outcome(L_inverse, a, k, cap) == outcome(ref_L_inverse, a, k, cap), (a, cap)
            assert outcome(Q_pred, a, k, cap) == outcome(ref_Q_pred, a, k, cap), (a, cap)
    assert 0 < members < len(cases)


# ---------------------------------------------------------------------------
# Non-members


def probes(k, xs):
    """Images with one coefficient raised (a count at or past its intermediate
    base, or a finite exponent at or past the base, at any level), and with
    two raised at once."""
    for x in xs:
        a = ref_o_map(x, k)
        spots = [j for j, t in enumerate(a.key) if t > 0]
        for j in spots:
            for d in (k, x):
                b = raised(a, (j, d))
                if b is not None:
                    yield b
        for j1 in spots:
            for j2 in spots:
                if j1 < j2:
                    b = raised(a, (j1, x), (j2, k))
                    if b is not None:
                        yield b


@pytest.mark.parametrize("k", [2, 3, 4])
def test_non_members_report_the_same_first_violation(k):
    reasons = set()
    for b in probes(k, range(k, 1_500, 17)):
        got, want = in_D(b, k), ref_in_D(b, k)
        assert got == want, b
        assert outcome(L_inverse, b, k, CAP) == outcome(ref_L_inverse, b, k)
        if not want.member:
            reasons.add(want.reason.split()[0])
            with pytest.raises(NotInDError) as err:
                Q_pred(b, k, CAP)
            assert err.value.reason == want.reason
    assert reasons == {"finite", "count"}


def test_violations_in_exponents_and_at_each_position():
    k = 2
    cases = {
        "w*2": "count 2 at position 1 not below intermediate base 2",
        "w+4": "count 4 at position 2 not below intermediate base 4",
        "w^(w+2)": "count 2 at position 1 not below intermediate base 2",  # inside an exponent
        "w^(w^2)": "finite exponent 2 not below base 2",  # inside an exponent
        "w^(w^(w^3))": "finite exponent 3 not below base 2",
        # two violations: the first in post-order, a later term's exponent
        # before an earlier term's count, an exponent's count before its own
        "w^(w^2)+w^3": "finite exponent 2 not below base 2",
        "w^(w^w)*9+w^5": "finite exponent 5 not below base 2",
        "w^(w+2)*5": "count 2 at position 1 not below intermediate base 2",
    }
    for text, reason in cases.items():
        a = parse_ordinal(text)
        assert in_D(a, k) == ref_in_D(a, k) == MembershipReport(False, k, None, reason), text


# ---------------------------------------------------------------------------
# Any depth, any stack


def tower(levels):
    return parse_ordinal("w^(" * levels + "1" + ")" * levels)


def at_stack_depth(frames, f, *args):
    """f(*args) called from a stack about this many frames deeper."""
    if frames:
        return at_stack_depth(frames - 1, f, *args)
    return f(*args)


@pytest.mark.parametrize("frames", [0, 800])
def test_towers_of_any_depth_from_any_stack(frames):
    for levels in (400, 3_000):
        a = tower(levels)
        for k in (2, 3, 4):
            bound = max(4, k) + 1
            assert at_stack_depth(frames, in_D, a, k) == MembershipReport(
                True, k, ((ExceedsCap(bound), 1),), None)
            for cap in (0, CAP):
                assert at_stack_depth(frames, L_inverse, a, k, cap) == ExceedsCap(cap)
            with pytest.raises(CapExceededError):
                at_stack_depth(frames, Q_pred, a, k, CAP)
    deep = omega_tower(3_000)  # the same tower through omega_pow
    assert at_stack_depth(frames, in_D, deep, 2).member
    bad = parse_ordinal("w^(" * 3_000 + "w^2" + ")" * 3_000)  # w^2 at the bottom: 2 >= base 2
    report = at_stack_depth(frames, in_D, bad, 2)
    assert report == MembershipReport(False, 2, None, "finite exponent 2 not below base 2")


# ---------------------------------------------------------------------------
# Caps


BAD_CAPS = [-1, True, False, 2.5, "9", None]


@pytest.mark.parametrize("cap", BAD_CAPS)
def test_L_inverse_rejects_a_bad_cap(cap):
    with pytest.raises(ValueError, match="cap must be a non-negative integer, got"):
        L_inverse(o_map(100, 2), 2, cap)


@pytest.mark.parametrize("cap", BAD_CAPS)
def test_Q_pred_rejects_a_bad_cap(cap):
    with pytest.raises(ValueError, match="cap must be a non-negative integer, got"):
        Q_pred(o_map(100, 2), 2, cap)


def test_cap_zero_is_a_cap():
    assert L_inverse(o_map(100, 2), 2, 0) == ExceedsCap(0)
    with pytest.raises(CapExceededError):
        Q_pred(o_map(100, 2), 2, 0)
    assert L_inverse(ZERO, 2, 2) == Exact(2)
