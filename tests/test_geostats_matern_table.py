"""The general-ν Matérn kernel's error budget, against an independent oracle.

At a ν without a closed form ``Matern.correlation`` is
``exp(g(log s) − s + const)``, with ``g(t) = log(e^s K_ν(s)) + ν·t`` taken
from ``kve`` at the entries themselves (the *direct* route) or read from a
table of it on a log-distance grid (the *table* route) — whichever makes
fewer Bessel evaluations, decided by the size of the array handed in.  The
values are not ``kv``'s in the 14th digit, so the bar here is 40-digit
``mpmath``: ``BUDGET`` for either route, ``TABLE_VS_DIRECT`` for what the
interpolation may add.  AMOS sets the budget, not the table: its ``kve`` is
1e-13 off next to a half-integer ν, and up to 2.7e-13 off just below s = 2
(ν ≈ 0.1), where its power series ends and the value jumps back to 1e-16 —
a jump the table interpolates across, so within the four steps either side
of s = 2 the two routes differ by that jump (``ACROSS_THE_JUMP``).

A route is forced by array size, never by a switch: at most ``DIRECT_MAX``
entries are always evaluated directly (the smallest table has 8 nodes), and
entries placed in front of a 400-point field's 79,801 packed distances
always go through the table.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geostats.covariance import Matern
from repro.geostats.locations import TileDistances, cross_distances, generate_locations
from tests.covariance_oracle import matern_correlation_k1

mpmath = pytest.importorskip("mpmath")

MODEL = Matern(dim=2)
BUDGET = 5e-13
TABLE_VS_DIRECT = 1e-13
ACROSS_THE_JUMP = 4e-13
DIRECT_MAX = 8
FIELD = TileDistances(generate_locations(400, 2, seed=0), 50).packed
#: general ν next to each dispatch point, at the box's corners and well beyond it,
#: and the paper's smooth ν = 1, which has no closed form of its own
NAMED_NU = (0.01, 0.5 + 1e-7, 1.0, 2.0, 2.5 - 1e-6, 2.5 + 1e-6, 5.0, 10.0)


def exact(h, theta):
    """σ²·2^{1−ν}/Γ(ν)·s^ν·K_ν(s) at 40 digits, s = h/β formed exactly."""
    sigma2, beta, nu = (mpmath.mpf(float(v)) for v in theta)
    out = []
    for x in h:
        s = mpmath.mpf(float(x)) / beta
        out.append(sigma2 if s == 0 else
                   sigma2 * 2 ** (1 - nu) / mpmath.gamma(nu) * s**nu * mpmath.besselk(nu, s))
    return out


def via_table(h, theta):
    return MODEL.correlation(np.concatenate([h, FIELD]), np.asarray(theta))[: len(h)]


def direct(h, theta):
    h = np.asarray(h, dtype=np.float64)
    return np.concatenate([MODEL.correlation(h[i : i + DIRECT_MAX], np.asarray(theta))
                           for i in range(0, len(h), DIRECT_MAX)])


def assert_within_budget(got, h, theta):
    with mpmath.workdps(40):
        for value, truth, x in zip(got, exact(h, theta), h):
            err = abs(mpmath.mpf(float(value)) - truth)
            if truth >= mpmath.mpf("1e-290") * theta[0]:
                assert err <= BUDGET * truth, (x, theta, float(err / truth))
            else:
                assert err <= mpmath.mpf("1e-300") * theta[0], (x, theta)


log_uniform_h = st.floats(math.log(1e-8), math.log(math.sqrt(2.0))).map(math.exp)
distances = st.tuples(
    st.lists(log_uniform_h, min_size=1, max_size=5),
    st.lists(st.integers(0, FIELD.size - 1), min_size=1, max_size=4),
).map(lambda parts: np.array([0.0, *parts[0], *FIELD[parts[1]]]))
box = st.floats(0.01, 2.0)
# integer orders cost mpmath 20–80 ms a value: NAMED_NU brings four, the draw none
smoothness = st.one_of(st.floats(0.01, 2.0).filter(lambda nu: nu != round(nu)),
                       st.sampled_from(NAMED_NU))


@pytest.fixture(autouse=True)
def nothing_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestErrorBudget:
    @given(box, box, smoothness, distances)
    @settings(max_examples=30, deadline=None)
    def test_both_routes_within_budget_of_mpmath(self, sigma2, beta, nu, h):
        theta = (sigma2, beta, nu)
        table, entries = via_table(h, theta), direct(h, theta)
        assert table[0] == entries[0] == sigma2  # C(0), bit for bit
        assert_within_budget(table, h, theta)
        assert_within_budget(entries, h, theta)

    @pytest.mark.parametrize("nu", NAMED_NU)
    @pytest.mark.parametrize("beta", [0.01, 0.1, 2.0])
    def test_table_agrees_with_direct_on_the_same_values(self, nu, beta):
        rng = np.random.default_rng(17)
        h = np.concatenate([FIELD[rng.choice(FIELD.size, 2000, replace=False)],
                            np.exp(rng.uniform(math.log(1e-8), math.log(math.sqrt(2.0)), 2000))])
        theta = (1.3, beta, nu)
        table, entries = via_table(h, theta), direct(h, theta)
        significant = entries >= 1e-290 * theta[0]
        near_2 = np.abs(np.log(np.maximum(h, 1e-300) / beta) - math.log(2.0)) <= 4.0 / 64.0
        allowed = np.where(near_2, ACROSS_THE_JUMP, TABLE_VS_DIRECT)
        assert np.all(np.abs(table - entries)[significant] <= (allowed * entries)[significant])
        assert np.all(np.abs(table - entries)[~significant] <= 1e-300 * theta[0])

    @pytest.mark.parametrize("nu", [0.10476190476190475, 0.8532203389830509, 1.9])
    def test_amos_branch_switch_at_s_2_stays_within_budget(self, nu):
        # kve's worst spots: both routes against mpmath either side of its jump
        theta = (1.0, 0.5, nu)
        s = np.concatenate([2.0 + np.linspace(-0.12, 0.12, 13), [np.nextafter(2.0, 3.0)]])
        assert_within_budget(via_table(s * 0.5, theta), s * 0.5, theta)
        assert_within_budget(direct(s * 0.5, theta), s * 0.5, theta)
        # away from the jump the routes agree again
        far = np.array([1.0, 1.8, 2.2, 4.0]) * 0.5
        assert np.all(np.abs(via_table(far, theta) - direct(far, theta))
                      <= TABLE_VS_DIRECT * direct(far, theta))

    def test_the_route_is_chosen_by_the_arrays_own_size(self, monkeypatch):
        evaluated = []
        kve = scipy.special.kve
        monkeypatch.setattr(scipy.special, "kve", lambda nu, s: evaluated.append(s.size) or kve(nu, s))
        theta = np.array([1.0, 0.1, 0.9])
        MODEL.correlation(FIELD, theta)
        assert len(evaluated) == 1 and evaluated[0] < FIELD.size // 50  # one table, a few hundred nodes
        del evaluated[:]
        few = FIELD[:100]  # fewer entries than a table spanning them has nodes
        MODEL.correlation(few, theta)
        assert sum(evaluated) == few.size
        del evaluated[:]
        # the same 100 entries ten times over are worth a table
        MODEL.correlation(np.tile(few, 10), theta)
        assert len(evaluated) == 1 and evaluated[0] < few.size * 10


class TestSmoothNu:
    """ν = 1 takes no branch of its own: the general-ν table reads it."""

    def test_both_routes_within_budget_of_mpmath(self):
        h = np.array([0.0, 1e-8, 0.5, 1.0, 2.0, 10.0, 100.0, 600.0])
        theta = (1.0, 1.0, 1.0)
        table, entries = via_table(h, theta), direct(h, theta)
        assert table[0] == entries[0] == 1.0
        assert_within_budget(table, h, theta)
        assert_within_budget(entries, h, theta)

    def test_next_to_k1_on_a_field(self):
        # σ²·s·K₁(s) through ``scipy.special.k1``, the route ν = 1 used to take;
        # β = 0.03 is the smooth field of the paper and of the FP64 Matérn benchmark
        theta = np.array([1.0, 0.03, 1.0])
        got, want = MODEL.correlation(FIELD, theta), matern_correlation_k1(FIELD, theta)
        live = want >= 1e-290
        assert np.all(np.abs(got - want)[live] <= 1e-14 * want[live])
        assert np.all(got[~live] <= 1e-290)


class TestShape:
    @pytest.mark.parametrize("nu", NAMED_NU + (0.9,))
    @pytest.mark.parametrize("beta", [0.01, 0.3, 2.0])
    def test_non_increasing_in_h(self, nu, beta):
        c = MODEL.correlation(np.sort(FIELD), np.array([1.7, beta, nu]))
        assert c[0] == 1.7 and np.all(c >= 0.0)
        assert np.all(np.diff(c) <= TABLE_VS_DIRECT * c[:-1])

    @pytest.mark.parametrize("preset", [0.5, 1.0, 1.5, 2.5])
    def test_continuous_across_the_dispatch(self, preset):
        at = MODEL.correlation(FIELD, np.array([1.2, 0.05, preset]))
        for nu in (preset - 1e-9, preset + 1e-9):
            np.testing.assert_allclose(via_table(FIELD[:4000], (1.2, 0.05, nu)), at[:4000], rtol=1e-7)
            np.testing.assert_allclose(direct(FIELD[:40], (1.2, 0.05, nu)), at[:40], rtol=1e-7)

    @pytest.mark.parametrize("nu", [0.3, 0.9, 2.0])
    def test_underflows_to_exactly_zero_and_overflows_to_the_variance(self, nu):
        # s: 0, far beyond 750 (three times), just beyond it, tiny, ordinary
        theta = np.array([1.5, 1.0, nu])
        h = np.array([0.0, 1e3, 1e6, 1e300, 751.0, 1e-150, 0.5])
        for out in (MODEL.correlation(h, theta), via_table(h, theta)):
            assert list(out[:4]) == [1.5, 0.0, 0.0, 0.0]
            assert 0.0 <= out[4] <= 1e-300
            assert abs(out[5] - 1.5) <= BUDGET * 1.5 and 0.0 < out[6] < 1.5
        # e^s·K_ν(s) itself overflows at this node: the σ² limit, not an error
        assert scipy.special.kve(10.0, 1e-40) == np.inf
        theta = np.array([1.5, 1.0, 10.0])
        for out in (MODEL.correlation(np.array([1e-40, 1.0]), theta),
                    via_table(np.array([1e-40, 1.0]), theta)):
            assert abs(out[0] - 1.5) <= BUDGET * 1.5 and 0.0 < out[1] < 1.5


class TestInputs:
    THETA = np.array([0.8, 0.1, 0.9])

    def test_all_zero_one_element_and_empty(self):
        assert list(MODEL.correlation(np.zeros(5), self.THETA)) == [0.8] * 5
        assert list(MODEL.correlation(np.zeros(1), self.THETA)) == [0.8]
        one = MODEL.correlation(np.array([0.25]), self.THETA)
        assert one.shape == (1,) and 0.0 < one[0] < 0.8
        empty = MODEL.correlation(np.empty((0,)), self.THETA)
        assert empty.shape == (0,) and empty.dtype == np.float64
        scalar = MODEL.correlation(0.25, self.THETA)
        assert scalar.shape == () and scalar == one[0]

    def test_two_dimensional_input_keeps_its_shape(self):
        a, b = generate_locations(150, 2, seed=1), generate_locations(100, 2, seed=2)
        h = cross_distances(a, b)
        cross = MODEL.cross_cov(a, b, self.THETA)
        assert cross.shape == (150, 100)
        assert np.array_equal(cross, MODEL.correlation(h.ravel(), self.THETA).reshape(150, 100))
        # a strided view is its own contiguous copy
        assert np.array_equal(MODEL.correlation(h[::2, ::3], self.THETA),
                              MODEL.correlation(h[::2, ::3].copy(), self.THETA))
        assert np.array_equal(MODEL.correlation(h.T, self.THETA), cross.T)

    def test_read_only_input_is_left_alone(self):
        assert not FIELD.flags.writeable
        before = FIELD.copy()
        out = MODEL.correlation(FIELD, self.THETA)
        assert np.array_equal(FIELD, before) and out.flags.writeable
        assert out[-1] == 0.8 and not np.shares_memory(out, FIELD)

    def test_blocks_do_not_show(self):
        # 79,801 entries are several blocks; any slice through a block edge
        # evaluated inside the same table gives the same bits
        whole = MODEL.correlation(FIELD, self.THETA)
        ends = np.array([FIELD[FIELD > 0.0].min(), FIELD.max()])  # the table spans these either way
        part = MODEL.correlation(np.concatenate([ends, FIELD[10_000:40_000]]), self.THETA)
        assert np.array_equal(part[2:], whole[10_000:40_000])
