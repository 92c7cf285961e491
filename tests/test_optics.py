import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgwave.harness import ExperimentPlan
from lgwave.optics import (
    NORMALS_PER_REALIZATION,
    R_MAX,
    SIGMA,
    Context,
    OpticalParams,
    SourceParams,
    _z,
    detect,
    norm,
    sample_hidden,
    source_output,
    stage1,
    stage2,
    stage3,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


VECTORS = ("z1", "z2", "z3", "zp1", "zp2", "zp3", "zp4")


def make_state(**vectors):
    """One hidden-state row: the given noise vectors, every other one zero."""
    h = np.zeros(NORMALS_PER_REALIZATION)
    for name, v in vectors.items():
        _z(h, name)[:] = v
    return h


class TestSampleHidden:
    def test_component_moments(self):
        h = sample_hidden(rng(1), 100_000)
        z = np.concatenate([_z(h, f) for f in VECTORS])
        assert abs(z.real.var() - 0.5) < 0.01
        assert abs(z.imag.var() - 0.5) < 0.01
        assert 0.99 < np.mean(np.abs(z) ** 2) < 1.01

    def test_independent_calls(self):
        g = rng(2)
        n = 100_000
        h1 = sample_hidden(g, n)
        h2 = sample_hidden(g, n)
        corr = np.mean(_z(h1, "z1") * np.conj(_z(h2, "z1")))
        assert abs(corr) < 3 / np.sqrt(n)

    def test_reproducible(self):
        h1 = sample_hidden(rng(3), 100)
        h2 = sample_hidden(rng(3), 100)
        assert h1.shape == (100, NORMALS_PER_REALIZATION)
        assert np.array_equal(h1, h2)

    def test_fixed_draw_count_per_realization(self):
        # a batch of n must consume exactly n * NORMALS_PER_REALIZATION draws
        n = 17
        sample_hidden(rng(4), n)
        g = rng(4)
        g.standard_normal(n * NORMALS_PER_REALIZATION)
        probe1 = g.standard_normal()
        g2 = rng(4)
        sample_hidden(g2, n)
        probe2 = g2.standard_normal()
        assert probe1 == probe2

    @pytest.mark.parametrize("a", [1, 2047, 2048])
    def test_consecutive_draws_partition_the_stream(self, a):
        # Drawing a then b realizations from one generator gives the bytes
        # of one draw of a + b: the kernel draws a chunk one row block at a
        # time and relies on this.
        b = 37
        g = rng(6)
        parts = [sample_hidden(g, a), sample_hidden(g, b)]
        whole = sample_hidden(rng(6), a + b)
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [1, 1000])
    def test_packed_draw_matches_complex_assembly(self, n):
        # The rows are the reference assembly (re + 1j*im) * SIGMA bit for
        # bit, and each noise vector is a view of them.
        u = rng(9).standard_normal((n, 7, 2, 2))
        expected = (u[..., 0] + 1j * u[..., 1]) * SIGMA
        h = sample_hidden(rng(9), n)
        assert h.tobytes() == expected.tobytes()
        for j, f in enumerate(VECTORS):
            assert np.shares_memory(_z(h, f), h)
            assert np.array_equal(_z(h, f), expected[..., j, :])


class TestSourceOutput:
    def test_zero_squeezing(self):
        h = make_state(
            z1=np.array([1.0, 0.0], dtype=complex),
            z2=np.array([1j, 0.0]),
            z3=np.array([0.0, 1.0], dtype=complex),
        )
        a1, a2, a3 = source_output(h, SourceParams(r=0.0))
        np.testing.assert_allclose(a1, [SIGMA, 0])
        np.testing.assert_allclose(a2, [1j * SIGMA, 0])
        np.testing.assert_allclose(a3, [0, SIGMA])

    def test_second_moments(self):
        # E[||a1||^2] = cosh 2r and E[a1 a2^T] = sigma^2 sinh(2r) I
        r = 0.3
        n = 1_000_000
        h = sample_hidden(rng(6), n)
        a1, a2, _ = source_output(h, SourceParams(r=r))
        power = (np.abs(a1) ** 2).sum(axis=1)
        se = power.std() / np.sqrt(n)
        assert abs(power.mean() - np.cosh(2 * r)) < 3 * se

        prod_hh = a1[:, 0] * a2[:, 0]
        target = SIGMA**2 * np.sinh(2 * r)
        se = prod_hh.std() / np.sqrt(n)
        assert abs(prod_hh.mean() - target) < 3 * se
        # off-diagonal: H with V uncorrelated
        prod_hv = a1[:, 0] * a2[:, 1]
        se = prod_hv.std() / np.sqrt(n)
        assert abs(prod_hv.mean()) < 3 * se

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SourceParams(r=-0.1)

    def test_r_above_bound_rejected(self):
        SourceParams(r=R_MAX)
        for r in (np.nextafter(R_MAX, np.inf), 356, 1000):
            with pytest.raises(ValueError, match="squeezing strength"):
                SourceParams(r=r)


def ctx(b, t1=0.5, t2=0.75, t3=0.75, theta1=0.0, theta2=0.0):
    return Context(b=b, optics=OpticalParams(t1=t1, t2=t2, t3=t3, theta1=theta1, theta2=theta2))


class TestStages:
    def test_stage1_open(self):
        h = make_state()
        a2 = np.array([1.0, 0.0], dtype=complex)
        a3 = np.zeros(2, dtype=complex)
        out2, out3 = stage1(a2, a3, h, ctx((1, 1, 1, 1), t1=0.5, theta1=0.0))
        np.testing.assert_allclose(out2, [np.sqrt(0.5), 0])
        np.testing.assert_allclose(out3, [np.sqrt(0.5), 0])

    def test_stage1_blocked_arm_is_vacuum(self):
        zp2 = np.array([2.0, -1j])
        h = make_state(zp2=zp2)
        a2 = np.array([5.0, 5.0], dtype=complex)
        a3 = np.array([-3.0, 1.0], dtype=complex)
        out2, _ = stage1(a2, a3, h, ctx((1, 0, 1, 1)))
        np.testing.assert_allclose(out2, SIGMA * zp2)

    def test_stage2_open(self):
        h = make_state()
        a2 = np.array([1.0, 0.0], dtype=complex)
        a3 = np.zeros(2, dtype=complex)
        out2, out3 = stage2(a2, a3, h, ctx((1, 1, 1, 1), t2=0.75, theta2=0.0))
        np.testing.assert_allclose(out2, [0.5, 0])
        np.testing.assert_allclose(out3, [np.sqrt(0.75), 0])

    def test_stage2_blocked_arm_is_vacuum(self):
        zp4 = np.array([1.0, 1.0], dtype=complex)
        h = make_state(zp4=zp4)
        a2 = np.array([5.0, 5.0], dtype=complex)
        a3 = np.array([-3.0, 1.0], dtype=complex)
        _, out3 = stage2(a2, a3, h, ctx((1, 1, 1, 0)))
        np.testing.assert_allclose(out3, SIGMA * zp4)

    def test_stage3_full_transmission(self):
        a2 = np.array([1.0, 2j])
        a3 = np.array([3.0, -1j])
        out2, out3 = stage3(a2, a3, ctx((1, 1, 1, 1), t3=1.0))
        np.testing.assert_allclose(out2, a2)
        np.testing.assert_allclose(out3, -a3)

    def test_stage3_example(self):
        a2 = np.array([1.0, 0.0], dtype=complex)
        a3 = np.array([1.0, 0.0], dtype=complex)
        out2, out3 = stage3(a2, a3, ctx((1, 1, 1, 1), t3=0.75))
        np.testing.assert_allclose(out2, [np.sqrt(0.75) + 0.5, 0])
        np.testing.assert_allclose(out3, [0.5 - np.sqrt(0.75), 0])

    def test_unblocked_norm_conservation(self):
        # 10^4 random inputs and parameters, all three stages, 1e-12
        n = 10_000
        g = rng(7)
        h = sample_hidden(g, n)
        a2 = (g.standard_normal((n, 2)) + 1j * g.standard_normal((n, 2)))
        a3 = (g.standard_normal((n, 2)) + 1j * g.standard_normal((n, 2)))
        c = ctx(
            (1, 1, 1, 1),
            t1=g.uniform(), t2=g.uniform(), t3=g.uniform(),
            theta1=g.uniform(0, 2 * np.pi), theta2=g.uniform(0, 2 * np.pi),
        )
        p_in = norm(a2) ** 2 + norm(a3) ** 2
        for stage in (lambda x, y: stage1(x, y, h, c),
                      lambda x, y: stage2(x, y, h, c),
                      lambda x, y: stage3(x, y, c)):
            o2, o3 = stage(a2, a3)
            p_out = norm(o2) ** 2 + norm(o3) ** 2
            np.testing.assert_allclose(p_out, p_in, rtol=1e-12, atol=1e-12)

    def test_blocked_output_independent_of_input(self):
        n = 100_000
        g = rng(8)
        h = sample_hidden(g, n)
        a2 = g.standard_normal((n, 2)) + 1j * g.standard_normal((n, 2))
        a3 = np.zeros_like(a2)
        out2, _ = stage1(a2, a3, h, ctx((1, 0, 1, 1)))
        corr = np.mean(out2[:, 0] * np.conj(a2[:, 0]))
        assert abs(corr) < 3 / np.sqrt(n)


class TestDetect:
    def test_below_threshold(self):
        assert not detect(np.array([1.5, 1.3j]), 2.0)

    def test_strict_at_zero(self):
        assert not detect(np.zeros(2, dtype=complex), 0.0)

    def test_above_threshold(self):
        assert detect(np.array([3.0, 0.0], dtype=complex), 2.0)

    def test_batched(self):
        a = np.array([[3.0, 0.0], [0.1, 0.0]], dtype=complex)
        np.testing.assert_array_equal(detect(a, 2.0), [True, False])

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            detect(np.zeros(2, dtype=complex), -1.0)


class TestParams:
    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            OpticalParams(t1=1.5)

    @pytest.mark.parametrize("field", ["t1", "t2", "t3", "theta1", "theta2"])
    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_optics_not_a_real_number(self, field, value):
        with pytest.raises(ValueError, match=field):
            OpticalParams(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.3", None])
    def test_squeezing_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="r must"):
            SourceParams(r=value)

    def test_numpy_floats_and_ints_accepted(self):
        OpticalParams(t1=np.float64(0.5), t2=1, theta1=np.float64(1.0), theta2=2)
        SourceParams(r=np.float64(0.3))
        SourceParams(r=1)

    def test_float32_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            OpticalParams(t1=np.float32(0.5), theta1=np.float32(1.0))
            SourceParams(r=np.float32(0.3))

    @pytest.mark.parametrize(
        "value",
        [np.float32("inf"), np.float32("-inf"), np.float32("nan"), 10**400, -(10**400)],
        ids=["f32-inf", "f32-neg-inf", "f32-nan", "int-overflow", "int-neg-overflow"],
    )
    def test_non_finite_rejected(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r must"):
                SourceParams(r=value)
            with pytest.raises(ValueError, match="theta1"):
                OpticalParams(theta1=value)

    def test_context_bits(self):
        with pytest.raises(ValueError):
            Context(b=(1, 2, 0, 1))


# Every kind of JSON scalar, plus in-range numbers so valid values occur too.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.floats(0, 1)
)

BUILDERS = {
    "r": lambda v: SourceParams(r=v),
    "gamma": lambda v: ExperimentPlan(source=SourceParams(r=0.3), gamma=v),
    "t1": lambda v: OpticalParams(t1=v),
    "theta1": lambda v: OpticalParams(theta1=v),
}


@settings(max_examples=200, deadline=None, database=None)
@given(field=st.sampled_from(sorted(BUILDERS)), value=JSON_SCALARS)
def test_any_json_scalar_constructs_or_raises_value_error(field, value):
    try:
        BUILDERS[field](value)
    except ValueError:
        pass
