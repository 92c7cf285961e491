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
    OpticalParams,
    SourceParams,
    _z,
    sample_hidden,
    source_output,
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
    @pytest.mark.parametrize("a", [1, 2047, 2048])
    def test_consecutive_draws_partition_the_stream(self, a):
        # Drawing a then b realizations from one generator gives the bytes
        # of one draw of a + b, so each call takes exactly 28 normals per
        # row and the next continues the stream: the kernel draws a chunk
        # one row block at a time and relies on this.
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
        assert h.shape == (n, NORMALS_PER_REALIZATION)
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

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SourceParams(r=-0.1)

    def test_r_above_bound_rejected(self):
        SourceParams(r=R_MAX)
        for r in (np.nextafter(R_MAX, np.inf), 356, 1000):
            with pytest.raises(ValueError, match="r must"):
                SourceParams(r=r)


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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(field=st.sampled_from(sorted(BUILDERS)), value=JSON_SCALARS)
def test_any_json_scalar_constructs_or_raises_value_error(field, value):
    try:
        BUILDERS[field](value)
    except ValueError:
        pass
