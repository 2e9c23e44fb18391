"""Unit tests for the truncated-jet arithmetic core."""

import math
import random
import warnings
from itertools import permutations, product

import numpy as np
import pytest

import helpers
from helpers import (add, coefficient, constant_term, jet_constant, jet_variable,
                     mul, sub)
from hartogslab import geometry, jets
from hartogslab.domains import generic_norm_jet, type1, type2, type3, type4
from hartogslab.geometry import HartogsSpec, sample_hartogs
from hartogslab.jets import (MAX_DEGREE, BidegreeCap, Jet, basis_exponents,
                             jet_log, jet_real_power)


def jet_from_dict(coeffs, m, cap):
    """Build a jet with prescribed raw series coefficients by arithmetic."""
    acc = jet_constant(0.0, m, cap)
    for (h, a), c in coeffs.items():
        term = jet_constant(c, m, cap)
        for i, e in enumerate(h):
            for _ in range(e):
                term = mul(term, jet_variable(i, m, cap))
        for i, e in enumerate(a):
            for _ in range(e):
                term = mul(term, jet_variable(i, m, cap, anti=True))
        acc = add(acc, term)
    return acc


def dict_from_jet(j):
    hb = basis_exponents(j.num_vars, j.cap.holo)
    ab = basis_exponents(j.num_vars, j.cap.anti)
    return {(hb[i], ab[k]): complex(j.data[i, k])
            for i, k in zip(*np.nonzero(j.data))}


def random_dict(rng, m, cap, terms=6):
    out = {}
    hb = basis_exponents(m, cap[0])
    ab = basis_exponents(m, cap[1])
    for _ in range(terms):
        h = rng.choice(hb)
        a = rng.choice(ab)
        out[(h, a)] = out.get((h, a), 0) + rng.randint(-5, 5)
    return {k: v for k, v in out.items() if v != 0}


def ref_mul(A, B, cap):
    """Brute-force truncated convolution over integer coefficient dicts."""
    out = {}
    for (ha, aa), x in A.items():
        for (hb, ab), y in B.items():
            h = tuple(p + q for p, q in zip(ha, hb))
            a = tuple(p + q for p, q in zip(aa, ab))
            if sum(h) <= cap[0] and sum(a) <= cap[1]:
                out[(h, a)] = out.get((h, a), 0) + x * y
    return {k: v for k, v in out.items() if v != 0}


def test_basis_is_graded_prefix():
    small = basis_exponents(3, 2)
    big = basis_exponents(3, 4)
    assert big[:len(small)] == small


@pytest.mark.parametrize("m", range(1, 12))
def test_index_tables_match_enumeration(m):
    # the whole-array builders against Python loops over the monomials, at
    # every degree the engine holds for small m and up to the report's 3
    for degree in range(1 + (MAX_DEGREE if m <= 5 else 4 if m <= 7 else 3)):
        got = jets._pair_tables(m, degree)
        for g, w in zip(got, helpers.pair_tables_by_enumeration(m, degree)):
            assert g.dtype == w.dtype and np.array_equal(g, w), degree
    for order in range(4):
        got = jets._gather_table(m, order)
        for g, w in zip(got, helpers.gather_table_by_enumeration(m, order)):
            assert g.dtype == w.dtype and np.array_equal(g, w), order


def test_constant_and_variable_basics():
    cap = BidegreeCap(2, 2)
    c = jet_constant(3.5 - 1j, 2, cap)
    assert constant_term(c) == 3.5 - 1j
    z0 = jet_variable(0, 2, cap)
    assert coefficient(z0, (1, 0), (0, 0)) == 1.0
    assert constant_term(z0) == 0.0
    zb1 = jet_variable(1, 2, cap, anti=True)
    assert coefficient(zb1, (0, 0), (0, 1)) == 1.0
    with pytest.raises(ValueError):
        jet_variable(0, 2, (0, 2))
    with pytest.raises(ValueError):
        jet_variable(2, 2, cap)


def test_cap_exceeding_max_degree_rejected():
    with pytest.raises(ValueError):
        jet_constant(1.0, 1, (MAX_DEGREE + 1, 0))


def test_multiplication_matches_reference_convolution():
    rng = random.Random(7)
    cap = (2, 2)
    for _ in range(25):
        A = random_dict(rng, 2, cap)
        B = random_dict(rng, 2, cap)
        ja = jet_from_dict(A, 2, cap)
        jb = jet_from_dict(B, 2, cap)
        got = dict_from_jet(mul(ja, jb))
        want = ref_mul(A, B, cap)
        got_int = {k: complex(v) for k, v in got.items()}
        want_c = {k: complex(v) for k, v in want.items()}
        assert got_int == want_c
    # the reference product pairs only the monomials up to the highest
    # degree per character that each operand holds: in 3 variables at cap
    # (3, 3), operands of every such degree from 0 to 3 meet
    cap = (3, 3)
    tops = [(p, q) for p in range(4) for q in range(4)]
    for ltop, rtop in product(tops, repeat=2):
        A = random_dict(rng, 3, ltop, terms=4)
        B = random_dict(rng, 3, rtop, terms=4)
        got = dict_from_jet(mul(jet_from_dict(A, 3, cap), jet_from_dict(B, 3, cap)))
        assert got == {k: complex(v) for k, v in ref_mul(A, B, cap).items()}


def test_truncation_is_a_ring_quotient():
    # the graded basis makes the smaller cap's coefficients a prefix block
    rng = random.Random(11)
    big = (3, 3)
    nh, na = len(basis_exponents(2, 1)), len(basis_exponents(2, 2))
    small = BidegreeCap(1, 2)
    for _ in range(10):
        ja = jet_from_dict(random_dict(rng, 2, big), 2, big)
        jb = jet_from_dict(random_dict(rng, 2, big), 2, big)
        lhs = mul(ja, jb).data[:nh, :na]
        rhs = mul(Jet(2, small, ja.data[:nh, :na].copy()),
                  Jet(2, small, jb.data[:nh, :na].copy()))
        assert np.array_equal(lhs, rhs.data)


def test_partial_includes_factorials():
    cap = (3, 2)
    z = jet_variable(0, 1, cap)
    zb = jet_variable(0, 1, cap, anti=True)
    j = 5.0 * mul(z, z, z, zb)
    assert coefficient(j, (3,), (1,)) == 5.0
    assert j.partials(3, 1)[0, 0, 0, 0] == 5.0 * 6.0
    with pytest.raises(ValueError):
        j.partials(4, 0)


def _exponent_of(idx, m):
    return tuple(idx.count(v) for v in range(m))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("cap", [(3, 3), (2, 1)])
def test_partials_gather_every_partial(m, cap):
    rng = random.Random(13 * m + cap[1])
    j = jet_from_dict(random_dict(rng, m, cap, terms=12), m, cap)
    for p in range(cap[0] + 1):
        for q in range(cap[1] + 1):
            t = j.partials(p, q)
            assert t.shape == (m,) * (p + q)
            for idx in np.ndindex(*t.shape):
                h, a = _exponent_of(idx[:p], m), _exponent_of(idx[p:], m)
                weight = np.prod([math.factorial(e) for e in h + a])
                assert t[idx] == coefficient(j, h, a) * weight
                for hp in permutations(idx[:p]):
                    for ap in permutations(idx[p:]):
                        assert t[hp + ap] == t[idx]
    with pytest.raises(ValueError):
        j.partials(cap[0] + 1, 0)
    with pytest.raises(ValueError):
        j.partials(0, cap[1] + 1)


def test_partials_carry_factorials():
    cap = (3, 3)
    z0 = jet_variable(0, 2, cap)
    zb0 = jet_variable(0, 2, cap, anti=True)
    t = mul(z0, z0, zb0, zb0, zb0).partials(2, 3)
    assert t[0, 0, 0, 0, 0] == 2 * 6
    assert np.count_nonzero(t) == 1


def test_derivative_jet_shifts_and_scales():
    # the tests' reference derivative jet, which the log-det checks read
    cap = (3, 2)
    z = jet_variable(0, 2, cap)
    w = jet_variable(1, 2, cap)
    zb = jet_variable(0, 2, cap, anti=True)
    j = add(mul(z, z, w, zb, zb), 3.0 * mul(w, zb))  # z0^2 z1 zb0^2 + 3 z1 zb0
    both = helpers.derivative_jet(j, 0, 0)
    assert both.cap == BidegreeCap(2, 1)
    assert dict_from_jet(both) == {((1, 1), (1, 0)): 4.0}  # 4 z0 z1 zb0
    assert dict_from_jet(helpers.derivative_jet(j, 1, 0)) == {
        ((2, 0), (1, 0)): 2.0, ((0, 0), (0, 0)): 3.0}


def test_incompatible_jets_rejected():
    a = jet_constant(1.0, 2, (2, 2))
    b = jet_constant(1.0, 2, (2, 1))
    c = jet_constant(1.0, 1, (2, 2))
    for other in (b, c):
        for op in (add, sub, mul):
            with pytest.raises(ValueError):
                op(a, other)


def test_jets_multiply_by_numbers_only():
    # no report multiplies two jets, so the engine defines no jet product
    # (the reference product is helpers.mul); scaling by a number stays
    z = jet_variable(0, 1, (2, 2))
    zb = jet_variable(0, 1, (2, 2), anti=True)
    with pytest.raises(TypeError):
        z * zb
    with pytest.raises(TypeError):
        zb * zb
    for scaled in (z * 2.5, 2.5 * z, z * np.float64(2.5)):
        assert dict_from_jet(scaled) == {((1,), (0,)): 2.5}
    assert dict_from_jet(1j * zb) == {((0,), (1,)): 1j}


def _random_unit_jet(rng, m, cap):
    """Random real function's jet (the Hermitian part of one with integer
    coefficients, so exact products stay exactly Hermitian) with a positive
    integer constant term."""
    d = random_dict(rng, m, cap, terms=5)
    d[((0,) * m, (0,) * m)] = rng.randint(2, 5)
    return helpers.hermitian_part(jet_from_dict(d, m, cap))


def test_log_is_additive_and_power_consistent():
    rng = random.Random(5)
    cap = (2, 2)
    for _ in range(6):
        a = _random_unit_jet(rng, 2, cap)
        b = _random_unit_jet(rng, 2, cap)
        lhs = jet_log(mul(a, b))
        rhs = add(jet_log(a), jet_log(b))
        assert np.allclose(lhs.data, rhs.data, atol=1e-12)
        sq = jet_real_power(a, 0.5)
        assert np.allclose(mul(sq, sq).data, a.data, atol=1e-11)
        assert np.allclose(jet_real_power(a, 2.0).data, mul(a, a).data, atol=1e-11)
        assert np.allclose(jet_real_power(a, 1.0).data, a.data, atol=1e-12)


HORNER_CASES = [(m, cap) for m in (1, 2, 3, 7)
                for cap in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 3))]


@pytest.mark.parametrize("m,cap", HORNER_CASES,
                         ids=[f"m{m}-cap{p}{q}" for m, (p, q) in HORNER_CASES])
@pytest.mark.parametrize("shape", ["dense", "no_last_variable", "degree_two"])
def test_recurrences_match_horner_composition(m, cap, shape):
    # a real function's jet at the square cap (c, c), c = max(cap), whose
    # recurrences, truncated to cap, must match the Horner compositions of
    # the operand truncated to cap: truncation is a ring quotient map.
    # no_last_variable zeroes every row and column whose monomial contains
    # the last variable, as in the generic norm, which never involves the
    # Hartogs fiber's variable; degree_two zeroes every row and column of
    # degree above 2, as in type 4's generic norm
    cap = BidegreeCap(*cap)
    rng = np.random.default_rng(100 * m + 10 * cap.holo + cap.anti)
    basis = basis_exponents(m, max(cap))
    X = 0.2 * (rng.normal(size=(len(basis),) * 2) + 1j * rng.normal(size=(len(basis),) * 2))
    data = 0.5 * (X + X.conj().T)  # exactly Hermitian: the sum commutes
    data[0, 0] = 2.0
    if shape == "no_last_variable":
        data[[e[-1] > 0 for e in basis], :] = 0.0
        data[:, [e[-1] > 0 for e in basis]] = 0.0
    if shape == "degree_two":
        data[[sum(e) > 2 for e in basis], :] = 0.0
        data[:, [sum(e) > 2 for e in basis]] = 0.0
    _assert_recurrences_match_horner(Jet(m, BidegreeCap(max(cap), max(cap)), data), cap)


def _truncated(j, cap):
    """j at the smaller cap: a prefix block of its coefficient array."""
    rows, cols = (len(basis_exponents(j.num_vars, c)) for c in cap)
    return Jet(j.num_vars, cap, j.data[..., :rows, :cols].copy())


def _assert_recurrences_match_horner(a, cap=None):
    """log and three real powers of a, each exactly Hermitian, against their
    Horner compositions; with cap, the results truncated to cap against the
    compositions of a truncated to cap."""
    cap = a.cap if cap is None else cap
    cut = _truncated(a, cap)
    pairs = [(jet_log(a), helpers.horner_log(cut))]
    pairs += [(jet_real_power(a, mu), helpers.horner_real_power(cut, mu))
              for mu in (0.5, 0.8, 3.0)]
    for got, want in pairs:
        assert _hermitian(got.data)
        got = _truncated(got, cap)
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()


def _hermitian(data):
    return np.array_equal(data, data.conj().T)


def _random_hermitian_jet(m, c):
    rng = np.random.default_rng(10 * m + c)
    size = len(basis_exponents(m, c))
    X = 0.2 * (rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    data = X + X.conj().T  # exactly Hermitian: the sum commutes
    data[0, 0] = 2.0
    return Jet(m, BidegreeCap(c, c), data)


def _norm_and_potential_jets(spec, point, monkeypatch):
    """N and I = N^mu - |w|^2 at point, as a report builds them: in its
    metric-normal frame, at cap (3, 3)."""
    frame = geometry._normal_frame(spec, point)[0]
    d = spec.base.d
    N = generic_norm_jet(spec.base, point.base, (3, 3), jacobian=frame[:d, :d])
    logs = []
    monkeypatch.setattr(geometry, "jet_log",
                        lambda a, *scale: logs.append(a) or jet_log(a, *scale))
    geometry.hartogs_potential_jet(spec, point, (3, 3), frame)
    return N, logs[0]


def _sampled_norm_and_potential_jets(base, monkeypatch):
    """N and I at a sampled point, mu = 4/5."""
    spec = HartogsSpec(base, 0.8)
    point = sample_hartogs(spec, seed=0, count=1)[0]
    return _norm_and_potential_jets(spec, point, monkeypatch)


HERMITIAN_CASES = [("random", (m, c)) for m in range(1, 5) for c in (1, 2, 3)]
HERMITIAN_CASES += [(which, base) for base in (type1(1, 2), type3(2), type2(4), type4(5))
                    for which in ("N", "I")]


@pytest.mark.parametrize("kind,arg", HERMITIAN_CASES, ids=[
    f"random-m{arg[0]}-cap{arg[1]}{arg[1]}" if kind == "random"
    else f"{kind}-{arg.label()}" for kind, arg in HERMITIAN_CASES])
def test_hermitian_recurrences_match_horner_composition(kind, arg, monkeypatch):
    # random real functions' jets, and the norm N and I = N^mu - |w|^2 of
    # each family as a report builds them; the output is exactly Hermitian
    if kind == "random":
        a = _random_hermitian_jet(*arg)
    else:
        N, I = _sampled_norm_and_potential_jets(arg, monkeypatch)
        a = N if kind == "N" else I
    assert _hermitian(a.data)
    _assert_recurrences_match_horner(a)


ZERO_CASES = [(base, t) for base in (type1(1, 2), type3(2)) for t in (0.0, 0.3)]
ZERO_CASES += [(None, None)]


@pytest.mark.parametrize("base,t", ZERO_CASES, ids=[
    "generic-accidental-zero" if base is None else f"{base.label()}-origin-t{t}"
    for base, t in ZERO_CASES])
def test_recurrences_on_operands_with_exact_zeros_match_horner(base, t, monkeypatch):
    # a pair table pairs only the coefficients that its operand holds: at
    # z = 0 the metric-normal frame is diagonal, so N and I hold few of the
    # coefficients in their rows and columns (at t = 0, I also lacks the
    # terms linear in the fiber's variable), and a generic jet may hold an
    # accidental exact zero. Each runs as built; with the same pattern and
    # non-Hermitian values, it is refused
    if base is None:
        data = _random_hermitian_jet(3, 3).data.copy()
        data[2, 5] = data[5, 2] = 0.0
        operands = [Jet(3, BidegreeCap(3, 3), data)]
    else:
        spec = HartogsSpec(base, 0.8)
        point = geometry.origin_fiber_points(spec, [t])[0]
        operands = _norm_and_potential_jets(spec, point, monkeypatch)
    rng = np.random.default_rng(7)
    for a in operands:
        held = a.data != 0
        assert not held[np.ix_(held.any(axis=1), held.any(axis=0))].all()
        _assert_recurrences_match_horner(a)
        twist = np.exp(0.3j * rng.normal(size=a.data.shape))
        twist[0, 0] = 1.0  # keep the constant term a positive real
        general = Jet(a.num_vars, a.cap, a.data * twist)
        assert not _hermitian(general.data)
        for f in STACK_RECURRENCES:
            with pytest.raises(ValueError, match="requires an exactly Hermitian"):
                f(general)


def test_chunked_pair_tables_give_the_same_jets(monkeypatch):
    # a chunk ends only where a destination's segment does, and no chunk is
    # a single pair, so every coefficient is the same sum in the same order
    cap = BidegreeCap(3, 3)
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(3, 20, 20)) + 1j * rng.normal(size=(3, 20, 20))
        data[:, 0, 0] = 3.0
        data += data.conj().swapaxes(-1, -2)  # exactly Hermitian
        cases.append([Jet(3, cap, x) for x in data])

    def results():
        return [[jet_log(a), jet_real_power(b, 3.0), jet_real_power(a, 0.8),
                 jet_log(h), jet_real_power(h, 0.8)] for a, b, h in cases]

    whole = results()
    monkeypatch.setattr(jets, "_CHUNK", 7)
    jets._pairs.cache_clear()
    try:
        for got, want in zip(results(), whole):
            for g, w in zip(got, want):
                assert np.array_equal(g.data, w.data)
        for chunks in jets._pairs(3, cap, _box_key(3, cap, cap))[1]:
            assert len(chunks) <= 1 or min(len(c[0]) for c in chunks) > 1
    finally:
        jets._pairs.cache_clear()


def _table_pairs(table):
    return sum(len(chunk[0]) for chunks in table[1] for chunk in chunks)


def _box_key(m, cap, top):
    """The pair-table key of an operand that holds every coefficient up to
    holomorphic degree top[0] and antiholomorphic degree top[1]."""
    held = np.logical_and.outer(*(jets._degrees(m, c) <= t for c, t in zip(cap, top)))
    return jets._patterns(held.reshape(1, -1))[0]


UPPER_TABLES = [(7, (3, 3), (3, 3), 218_827), (2, (3, 3), (3, 3), 577),
                (7, (2, 2), (2, 2), 6_083), (6, (3, 3), (1, 1), 28_554)]


@pytest.mark.parametrize("m,cap,top,count", UPPER_TABLES)
def test_graded_tables_hold_no_constant_factor_pairs(m, cap, top, count):
    # a recurrence takes a constant factor's term into its init, so its
    # table pairs only non-constant factors
    cap = BidegreeCap(*cap)
    graded = jets._pairs(m, cap, _box_key(m, cap, top))
    assert _table_pairs(graded) == count
    support, degrees = graded
    assert not degrees[0] and not degrees[1]
    for chunks in degrees:
        for left, right, *_ in chunks:
            assert support[left].all() and right.all()


def test_report_pair_budget(monkeypatch):
    # the recurrence pairs of one report at d+1 = 7, mu = 4/5: the power of
    # N in the 6 base variables and the log of I in all 7, both Hermitian
    spec = HartogsSpec(type1(2, 3), 0.8)
    point = sample_hartogs(spec, seed=0, count=1)[0]
    tables = []
    pairs = jets._pairs
    monkeypatch.setattr(jets, "_pairs", lambda *args: tables.append(pairs(*args))
                        or tables[-1])
    geometry.curvature_report(spec, point)
    assert sum(map(_table_pairs, tables)) == 58_277 + 160_369


def test_origin_pair_budget(monkeypatch):
    # verify-lemmas' six origin-fiber points on type3(3) at mu = 3: the
    # metric-normal frame is diagonal at z = 0, so N^mu and I hold few of
    # their coefficients; one power table, and one log table each for
    # t = 0 and t > 0
    spec = HartogsSpec(type3(3), 3)
    points = geometry.origin_fiber_points(spec, [0.0, 0.12, 0.25, 0.4, 0.55, 0.7])
    tables = []
    pairs = jets._pairs
    monkeypatch.setattr(jets, "_pairs", lambda *args: tables.append(pairs(*args))
                        or tables[-1])
    geometry.curvature_reports(spec, points)
    assert [_table_pairs(t) for t in tables] == [3_042, 5_768, 10_123]


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("hermitian", [False, True])
def test_recurrences_on_rank_one_jets_match_horner(m, hermitian):
    # c0 plus a bidegree-(1,1) part only, as the mu = 1 norms of rank-1
    # bases: no pair lands on a degree-1 destination. The Hermitian operand
    # runs; the same pattern with a non-Hermitian block is refused
    rng = np.random.default_rng(m)
    size = len(basis_exponents(m, 3))
    data = np.zeros((size, size), dtype=np.complex128)
    block = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    data[1:m + 1, 1:m + 1] = 0.2 * (block + block.conj().T if hermitian else block)
    data[0, 0] = 2.0
    a = Jet(m, BidegreeCap(3, 3), data)
    held = np.zeros((size, size), dtype=bool)
    held[0, 0] = held[1:m + 1, 1:m + 1] = True
    assert jets._patterns(a.data.reshape(1, -1)) == jets._patterns(held.reshape(1, -1))
    if hermitian:
        _assert_recurrences_match_horner(a)
        return
    assert not _hermitian(a.data)
    for f in STACK_RECURRENCES:
        with pytest.raises(ValueError, match="requires an exactly Hermitian"):
            f(a)


def test_log_and_power_guards():
    cap = (1, 1)
    zero = jet_constant(0.0, 1, cap)
    neg = jet_constant(-2.0, 1, cap)
    imag = jet_constant(1j, 1, cap)
    with pytest.raises(ValueError):
        jet_log(zero)
    with pytest.raises(ValueError):
        jet_log(neg)
    with pytest.raises(ValueError):
        jet_real_power(neg, 0.5)
    with pytest.raises(ValueError):
        jet_real_power(imag, 0.5)
    for mu in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="requires 0 < mu < inf"):
            jet_real_power(jet_constant(1.0, 1, cap), mu)


@pytest.mark.parametrize("c", [float("nan"), complex(float("nan"), 0.0),
                               complex(1.0, float("nan")), float("inf")],
                         ids=["nan", "nan+0j", "1+nanj", "inf"])
@pytest.mark.parametrize("f,stage", [(jet_log, "jet_log"),
                                     (lambda a: jet_real_power(a, 0.5),
                                      "jet_real_power")],
                         ids=["log", "power"])
def test_log_and_power_reject_non_finite_constant_terms(c, f, stage):
    # point 0 is valid, so the error must name point 1
    cap = BidegreeCap(1, 1)
    good, bad = jet_constant(1.0, 1, cap), jet_constant(c, 1, cap)
    a = Jet(1, cap, np.stack([good.data, bad.data]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{stage} at point 1: "):
            f(a)


def test_log_rejects_a_complex_constant_term():
    # log and power share one guard: an exactly Hermitian coefficient
    # array, whose constant term is then real, so the log takes no complex
    # one
    cap = BidegreeCap(1, 1)
    good, bad = jet_constant(1.0, 1, cap), jet_constant(1 + 1j, 1, cap)
    with pytest.raises(ValueError, match="^jet_log at point 1: "):
        jet_log(Jet(1, cap, np.stack([good.data, bad.data])))


def test_cofactor_det_on_constants_matches_numpy():
    # the tests' reference determinant, on constant jets
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rows = [[jet_constant(x, 1, (1, 1)) for x in row] for row in M]
        got = helpers.cofactor_det(rows)
        want = np.linalg.det(M)
        assert abs(constant_term(got) - want) < 1e-13 * abs(want), n
        assert not got.data.ravel()[1:].any()


def test_scalar_mixed_arithmetic():
    cap = (2, 2)
    z = jet_variable(0, 1, cap)
    j = sub(add(2.0 * z, 1.0), z * 0.5)
    assert constant_term(j) == 1.0
    assert coefficient(j, (1,), (0,)) == 1.5
    k = sub(1.0, j)
    assert coefficient(k, (1,), (0,)) == -1.5
    assert not sub(j, j).data.any()


def _hermitian_stack(m, count):
    """count exactly Hermitian cap-(3, 3) coefficient arrays with full
    degree tops and distinct constant terms."""
    rng = np.random.default_rng(m)
    size = len(basis_exponents(m, 3))
    X = 0.2 * (rng.normal(size=(count, size, size))
               + 1j * rng.normal(size=(count, size, size)))
    data = X + X.conj().swapaxes(-1, -2)  # exactly Hermitian: the sum commutes
    data[:, 0, 0] = 2.0 + np.arange(count)
    return data


STACK_RECURRENCES = [jet_log, lambda a: jet_real_power(a, 0.8),
                     lambda a: jet_real_power(a, 3.0)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_recurrences_match_per_jet_calls(m, monkeypatch):
    # one table and one pass per _CHUNK of pairs times points for the
    # whole stack: every point keeps its own sums
    cap, tables = BidegreeCap(3, 3), []
    pairs = jets._pairs
    monkeypatch.setattr(jets, "_pairs",
                        lambda *args: tables.append(args) or pairs(*args))
    stack = _hermitian_stack(m, 3)
    for f in STACK_RECURRENCES:
        tables.clear()
        got = f(Jet(m, cap, stack.copy()))
        assert len(tables) == 1
        for i in range(3):
            assert np.array_equal(got.data[i], f(Jet(m, cap, stack[i].copy())).data)
    # one point per pass gives the same bits
    whole = [f(Jet(m, cap, stack.copy())).data for f in STACK_RECURRENCES]
    monkeypatch.setattr(jets, "_CHUNK", 7)
    pairs.cache_clear()
    try:
        for f, want in zip(STACK_RECURRENCES, whole):
            assert np.array_equal(f(Jet(m, cap, stack.copy())).data, want)
    finally:
        pairs.cache_clear()


def test_stacked_jets_keep_their_batch_axes():
    data = _hermitian_stack(2, 6).reshape(2, 3, 10, 10)
    a = Jet(2, BidegreeCap(3, 3), data)
    assert constant_term(a).tolist() == [[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]]
    assert a.partials(2, 1).shape == (2, 3, 2, 2, 2)
    assert np.array_equal(a.partials(1, 1)[1, 2],
                          Jet(2, BidegreeCap(3, 3), data[1, 2].copy()).partials(1, 1))
    assert jet_log(a).data.shape == data.shape
    assert np.array_equal(jet_log(a).data[1, 0], jet_log(Jet(2, a.cap, data[1, 0].copy())).data)
    b = add(a, 1.0)
    assert constant_term(b).tolist() == [[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]
    bad = data.copy()
    bad[1, 1, 0, 0] = -1.0
    with pytest.raises(ValueError, match="^jet_log at point 4: "):
        jet_log(Jet(2, a.cap, bad))
    with pytest.raises(ValueError, match="^jet_real_power at point 4: "):
        jet_real_power(Jet(2, a.cap, bad), 0.8)


STAGES = list(zip(STACK_RECURRENCES, ["jet_log", "jet_real_power", "jet_real_power"]))


@pytest.mark.parametrize("f,stage", STAGES, ids=["log", "power-0.8", "power-3"])
def test_recurrences_refuse_an_unequal_cap(f, stage):
    # a real function's jet has a square cap; no point is named
    a = jet_constant(1.0, 2, (2, 1))
    with pytest.raises(ValueError, match=rf"^{stage} requires a square cap, got \(2, 1\)$"):
        f(a)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("f,stage", STAGES, ids=["log", "power-0.8", "power-3"])
def test_recurrences_refuse_a_point_off_hermitian(f, stage, m):
    # only point 1 is off by 1e-3 from Hermitian: the guard names it, and
    # its finite positive constant term does not pass it
    data = _hermitian_stack(m, 3)
    data[1, 1, 2] += 1e-3
    with pytest.raises(ValueError, match=f"^{stage} at point 1: requires an exactly Hermitian"):
        f(Jet(m, BidegreeCap(3, 3), data))
