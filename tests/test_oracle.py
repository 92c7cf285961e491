import numpy as np
import pytest

from lgwave.harness import CONTEXTS
from lgwave.optics import SIGMA, OpticalParams, SourceParams, compile_network
from lgwave.oracle import amplitudes, predicted_pmfs, predicted_stats
from lgwave.stats import marginal_12

IDEAL = OpticalParams(t1=0.5, t2=0.75, t3=0.75, theta1=0.0, theta2=0.0)
ALL_BITS = [(b1, b2, b3, b4) for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1) for b4 in (0, 1)]


def transfer_amplitudes(b, o):
    """Independent check: product of 2x2 stage matrices with blocker
    projections, acting on the source beam entering the lower port."""
    b1, b2, b3, b4 = b
    t1, t2, t3 = o.t1, o.t2, o.t3
    r1, r2, r3 = 1 - t1, 1 - t2, 1 - t3
    s1 = np.array(
        [
            [b2 * np.sqrt(r1), -b2 * np.sqrt(t1)],
            [b1 * np.exp(1j * o.theta1) * np.sqrt(t1), b1 * np.exp(1j * o.theta1) * np.sqrt(r1)],
        ]
    )
    s2 = np.array(
        [
            [b3 * np.exp(1j * o.theta2) * np.sqrt(r2), -b3 * np.exp(1j * o.theta2) * np.sqrt(t2)],
            [b4 * np.sqrt(t2), b4 * np.sqrt(r2)],
        ]
    )
    s3 = np.array([[np.sqrt(t3), np.sqrt(r3)], [np.sqrt(r3), -np.sqrt(t3)]])
    m = s3 @ s2 @ s1
    return m[0, 0], m[1, 0]


def random_optics(rng):
    return OpticalParams(
        t1=rng.uniform(), t2=rng.uniform(), t3=rng.uniform(),
        theta1=rng.uniform(0, 2 * np.pi), theta2=rng.uniform(0, 2 * np.pi),
    )


class TestAmplitudes:
    def test_single_path_example(self):
        alpha_plus, alpha_minus = amplitudes((1, 0, 0, 1), IDEAL)
        assert alpha_plus == pytest.approx(np.sqrt(0.5 * 0.25 * 0.25), abs=1e-12)
        assert alpha_minus == pytest.approx(-np.sqrt(0.5 * 0.25 * 0.75), abs=1e-12)

    def test_all_blocked(self):
        alpha_plus, alpha_minus = amplitudes((0, 0, 0, 0), IDEAL)
        assert alpha_plus == 0 and alpha_minus == 0

    def test_open_network_unitary(self):
        pair = amplitudes((1, 1, 1, 1), IDEAL)
        assert sum(abs(a) ** 2 for a in pair) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_matches_matrix_product(self, bits):
        rng = np.random.default_rng(sum(b << i for i, b in enumerate(bits)))
        for optics in [IDEAL, OpticalParams(theta1=np.pi), random_optics(rng)]:
            alpha_plus, alpha_minus = amplitudes(bits, optics)
            ap, am = transfer_amplitudes(bits, optics)
            assert alpha_plus == pytest.approx(ap, abs=1e-12)
            assert alpha_minus == pytest.approx(am, abs=1e-12)


# The vacuum inputs, by their 4-row block in sample_hidden's packed layout,
# and when each reaches D2 or D3: a blocker's vacuum enters when its blocker
# is inserted; zp1, zp2 and z3 enter before beam splitter 2 and get past it
# only through an open BB3 or BB4; z3 gets past beam splitter 1 only through
# an open BB1 or BB2.
VACUUM_RULES = {
    2: lambda b1, b2, b3, b4: (b1 or b2) and (b3 or b4),  # z3
    3: lambda b1, b2, b3, b4: not b1 and (b3 or b4),  # zp1
    4: lambda b1, b2, b3, b4: not b2 and (b3 or b4),  # zp2
    5: lambda b1, b2, b3, b4: not b3,  # zp3
    6: lambda b1, b2, b3, b4: not b4,  # zp4
}


class TestCompiledNetwork:
    def test_z2_row_is_sigma_cosh_r_times_alpha(self):
        # The source puts sigma cosh(r) of z2 into a2, the beam that enters
        # the interferometer, so the real-H-of-z2 row of the compiled matrix
        # carries sigma cosh(r) alpha+ at D2 and sigma cosh(r) alpha- at D3,
        # H in, H out, nothing into V.
        z2_h_re = 4  # packed order: vector z2, component H, real part
        rng = np.random.default_rng(7)
        for _ in range(200):
            optics = random_optics(rng)
            r = rng.uniform(0, 1.5)
            scale = SIGMA * np.cosh(r)
            # the nine standard contexts, then all 16 blocker patterns
            for contexts in (CONTEXTS, ALL_BITS):
                m = compile_network(SourceParams(r=r), optics, contexts)
                row = m[z2_h_re].reshape(-1, 4)
                for j, b in enumerate(contexts):
                    alpha_plus, alpha_minus = amplitudes(b, optics)
                    for det, alpha in ((1 + 2 * j, alpha_plus), (2 + 2 * j, alpha_minus)):
                        h_re, h_im, v_re, v_im = row[det]
                        assert abs(complex(h_re, h_im) / scale - alpha) < 1e-12
                        assert v_re == v_im == 0.0

    def test_vacuum_reaches_the_exits_by_the_blocker_rule(self):
        # Each vacuum input shows in a context's D2/D3 columns exactly when
        # VACUUM_RULES says it reaches them; random optics keep every
        # transmittance strictly between 0 and 1, so no path is cut.
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = compile_network(SourceParams(r=0.3), random_optics(rng), ALL_BITS)
            for j, bits in enumerate(ALL_BITS):
                exits = m[:, 4 + 8 * j : 12 + 8 * j]
                for vector, rule in VACUUM_RULES.items():
                    reaches = exits[4 * vector : 4 * vector + 4].any()
                    assert reaches == bool(rule(*bits)), (bits, vector)


class TestPredictedPmfs:
    def test_t1t3_cells(self):
        p13, _, _ = predicted_pmfs(IDEAL)
        # cells by position: index 0 is the outcome +1, index 1 is -1
        assert p13[0, 0] == pytest.approx(0.125, abs=1e-12)
        assert p13[0, 1] == pytest.approx(0.375, abs=1e-12)
        assert p13[1, 0] == pytest.approx(0.375, abs=1e-12)
        assert p13[1, 1] == pytest.approx(0.125, abs=1e-12)

    def test_joint_cell_is_path_product(self):
        _, _, p3 = predicted_pmfs(IDEAL)
        assert p3[0, 1, 1] == pytest.approx(0.5 * 0.25 * 0.75, abs=1e-12)

    def test_t1t2_marginal_cells(self):
        _, _, p3 = predicted_pmfs(IDEAL)
        p12 = marginal_12(p3)
        assert p12[0, 0] == pytest.approx(0.375, abs=1e-12)
        assert p12[0, 1] == pytest.approx(0.125, abs=1e-12)
        assert p12[1, 0] == pytest.approx(0.125, abs=1e-12)
        assert p12[1, 1] == pytest.approx(0.375, abs=1e-12)

    def test_pmfs_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p13, p23, p3 = predicted_pmfs(random_optics(rng))
            for pmf in (p13, p23, p3):
                assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


class TestPredictedStats:
    def test_ideal_values(self):
        s = predicted_stats(IDEAL)
        assert s["C12"] == pytest.approx(0.5, abs=1e-12)
        assert s["C23"] == pytest.approx(0.5, abs=1e-12)
        assert s["C13"] == pytest.approx(-0.5, abs=1e-12)
        assert s["K"] == pytest.approx(1.5, abs=1e-12)

    def test_w_value(self):
        # W = P13(-,+) - P23(-,+) - P12(-,+) = 0.375 - |alpha+|^2(1,1,0,1) - 0.125
        p23_mp = abs(amplitudes((1, 1, 0, 1), IDEAL)[0]) ** 2
        s = predicted_stats(IDEAL)
        assert s["W"] == pytest.approx(0.375 - p23_mp - 0.125, abs=1e-12)
        assert s["W"] == pytest.approx(0.0167468, abs=1e-6)

    def test_k_symmetric_under_t2_t3_swap(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t2, t3 = rng.uniform(size=2)
            a = predicted_stats(OpticalParams(t1=0.5, t2=t2, t3=t3))
            b = predicted_stats(OpticalParams(t1=0.5, t2=t3, t3=t2))
            assert a["K"] == pytest.approx(b["K"], abs=1e-10)

    def test_degenerate_t1_one(self):
        # R1 = 0 removes every term carrying b2
        alpha_plus, alpha_minus = amplitudes((0, 1, 1, 1), OpticalParams(t1=1.0))
        assert alpha_plus == 0 and alpha_minus == 0
