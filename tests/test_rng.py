import numpy as np
import pytest

from sal_learn.rng import SplitMix64


# Reference outputs computed once from the published splitmix64 constants
# (seed 1) and frozen here; any change to the generator must be deliberate.
SEED1_U64 = [
    10451216379200822465,
    13757245211066428519,
    17911839290282890590,
]
SEED1_UNIFORM = [
    0.5665615751722809,
    0.7457817572627011,
    0.9710027535867962,
]


def test_u64_seed1_frozen():
    r = SplitMix64(1)
    assert [r.next_u64() for _ in range(3)] == SEED1_U64


def test_uniform_seed1_frozen():
    r = SplitMix64(1)
    got = [r.uniform() for _ in range(3)]
    assert got == SEED1_UNIFORM


def test_uniform_is_u64_shifted():
    r1, r2 = SplitMix64(42), SplitMix64(42)
    for _ in range(10):
        assert r1.uniform() == (r2.next_u64() >> 11) * 2.0**-53


def test_uniform_range():
    r = SplitMix64(7)
    xs = r.uniforms(10_000)
    assert np.all(xs >= 0.0)
    assert np.all(xs < 1.0)
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(xs.mean() - 0.5) < 0.02
    assert abs(xs.var() - 1.0 / 12.0) < 0.01


def test_determinism_and_seed_sensitivity():
    a = SplitMix64(3).uniforms(50)
    b = SplitMix64(3).uniforms(50)
    c = SplitMix64(4).uniforms(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_standard_normal_moments():
    xs = SplitMix64(11).standard_normals(40_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02


def test_standard_normal_spare_consistency():
    # drawing one-by-one must equal drawing in bulk (spare caching included)
    r1, r2 = SplitMix64(5), SplitMix64(5)
    singles = np.array([r1.standard_normal() for _ in range(9)])
    bulk = r2.standard_normals(9)
    assert np.array_equal(singles, bulk)


def test_box_muller_never_sees_zero():
    # u1 = 1 - uniform lies in (0, 1], so log(u1) is always finite
    xs = SplitMix64(123).standard_normals(100_000)
    assert np.all(np.isfinite(xs))


def test_uniforms_shape_and_dtype():
    xs = SplitMix64(1).uniforms(5)
    assert xs.shape == (5,)
    assert xs.dtype == np.float64


@pytest.mark.parametrize("seed", [0, 1, 3, 12345, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 7, 10_000])
def test_uniforms_equal_repeated_uniform(seed, n):
    # the bulk draw gives the scalar stream's doubles bit for bit and leaves
    # the state where the scalar loop does, so the draws after it agree too
    bulk, one = SplitMix64(seed), SplitMix64(seed)
    got = bulk.uniforms(n)
    want = [one.uniform() for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert bulk.state == one.state
    assert [bulk.uniform(), bulk.next_u64()] == [one.uniform(), one.next_u64()]
    assert [v.hex() for v in bulk.uniforms(5)] == [one.uniform().hex() for _ in range(5)]
    assert bulk.standard_normal() == one.standard_normal()


def test_uniforms_seed1_frozen():
    assert SplitMix64(1).uniforms(3).tolist() == SEED1_UNIFORM


@pytest.mark.parametrize("seed", [0, 1, 5, 12345, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 10, 1001])
def test_standard_normals_equal_repeated_standard_normal(seed, n):
    # the bulk draw, between single draws that leave and take a spare, gives
    # the scalar stream's doubles bit for bit and the same state and spare
    bulk, one = SplitMix64(seed), SplitMix64(seed)
    got = [bulk.standard_normal()]
    got += bulk.standard_normals(n).tolist()
    got.append(bulk.standard_normal())
    got += bulk.standard_normals(n + 1).tolist()
    got.append(bulk.standard_normal())
    want = [one.standard_normal() for _ in range(2 * n + 4)]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert bulk.state == one.state
    assert bulk.standard_normal() == one.standard_normal()
