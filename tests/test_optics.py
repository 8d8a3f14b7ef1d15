import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeraser.optics import (
    ArmOptics,
    D1,
    D2,
    D3,
    D4,
    GaussianEnvelope,
    SlitScreenGeometry,
    UniformEnvelope,
    arm_tables,
    coefficients,
    interference_coefficient,
    joint_distribution,
    screen_basis,
    screen_marginal,
    single_distribution,
    unitary_from_angle,
)

from conftest import angle_pairs
from oracles import (
    PATH_A,
    PATH_B,
    arm_amplitudes,
    arm_entries,
    arm_recombiner,
    interference_coefficient_factors,
    joint_amplitude,
    outcome_probabilities,
    signal_amplitude,
    splitter_entries,
)

EXACT = 1e-12

angles = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
taps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
arms = st.builds(
    ArmOptics, st.one_of(st.sampled_from([0.0, 1.0]), taps), st.booleans(), angles, angles
)

# E @ C against the complex per-bin product on the default 256-bin screen,
# per entry; the largest difference seen over 20,000 random arm pairs with
# the envelopes tested here was 6.1e-18
TABLE_BOUND = 1e-17
TABLE_GEOM = SlitScreenGeometry(1.0e-3, 7.0e-7, 1.0, 5.0e-3, 256)


# ---------------------------------------------------------------------------
# splitters
# ---------------------------------------------------------------------------


@given(theta=angles, chi=angles)
def test_angle_parameterisation_is_unitary(theta, chi):
    u = unitary_from_angle(theta, chi)
    alpha, beta = splitter_entries(theta, chi)
    assert u.tolist() == [[alpha, beta], [-beta.conjugate(), alpha.conjugate()]]
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= EXACT
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=EXACT)


def test_known_splitters():
    removed = arm_tables(0.3, False, 1.1, 2.2)[1]  # a removed splitter ignores its angles
    assert removed.tolist() == [[1.0 + 0j, 0.0 + 0j], [0.0 + 0j, 1.0 + 0j]]
    balanced = arm_recombiner(ArmOptics(0.5))  # the default arm's recombiner
    r = math.sqrt(0.5)
    np.testing.assert_allclose(balanced, [[r, r], [-r, r]], atol=EXACT)


def test_arm_unitary_from_its_angles():
    arm = ArmOptics(0.3, theta=1.1, chi=2.2)
    amplitudes, recombiner = arm_tables(0.3, True, 1.1, 2.2)
    np.testing.assert_array_equal(recombiner, unitary_from_angle(1.1, 2.2))
    np.testing.assert_array_equal(arm.amplitudes, amplitudes)
    assert arm.amplitudes is arm.amplitudes  # built once per arm
    for table in (recombiner, arm.amplitudes, amplitudes, unitary_from_angle(1.1, 2.2)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


# ---------------------------------------------------------------------------
# arms
# ---------------------------------------------------------------------------


def test_arm_amplitudes_frozen_balanced():
    # hand values: keep = sqrt(1/2), alpha = beta = sqrt(1/2)
    va, vb = ArmOptics(tap_probability=0.5).amplitudes
    r = math.sqrt(0.5)
    np.testing.assert_allclose(va, [0.5, 0.5, r, 0.0], atol=EXACT)
    np.testing.assert_allclose(vb, [-0.5, 0.5, 0.0, r], atol=EXACT)


def test_arm_amplitudes_frozen_passthrough():
    # no tap, no splitter: D1 is path A, D2 is path B, monitors dark
    arm = ArmOptics(tap_probability=0.0, splitter_present=False)
    np.testing.assert_allclose(arm.amplitudes, [[1, 0, 0, 0], [0, 1, 0, 0]], atol=EXACT)


def test_splitter_removal_ignores_angles():
    armed = ArmOptics(0.3, splitter_present=False, theta=1.1, chi=2.2)
    plain = ArmOptics(0.3, splitter_present=False)
    np.testing.assert_array_equal(armed.amplitudes, plain.amplitudes)


def differential_arms():
    """Arms with taps 0 and 1 and in between, splitter in and out, random angles."""
    rng = np.random.default_rng(11)
    arms = [
        ArmOptics(p, present, theta, chi)
        for p in (0.0, 1.0, 0.5, 0.37)
        for present in (True, False)
        for theta, chi in ((math.pi / 4.0, 0.0), (0.0, 0.0), (1.1, 2.2))
    ]
    for theta, chi in angle_pairs(rng, 40):
        arms.append(ArmOptics(rng.uniform(), bool(rng.integers(2)), theta, chi))
    return arms


def test_arm_amplitudes_equal_the_per_path_oracle():
    """Each row of ArmOptics.amplitudes is the old per-path vector, to the last bit."""
    for arm in differential_arms():
        assert arm.amplitudes.shape == (2, 4)
        assert (arm.amplitudes[0] == arm_amplitudes(PATH_A, arm)).all()
        assert (arm.amplitudes[1] == arm_amplitudes(PATH_B, arm)).all()


arm_settings = st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), taps), st.booleans(), angles, angles)


@settings(max_examples=300)
@given(stack=st.lists(arm_settings, min_size=1, max_size=8))
def test_arm_tables_equal_the_closed_form_exactly(stack):
    """A stack of arms, and each arm alone (the 0-d case), against math and cmath.

    The oracles write each entry out from (alpha, beta) as Python complex
    numbers.  Every float must be equal, compared with == so that a zero's
    sign is not: numpy may fuse a real-times-complex multiply-add in a long
    stack, which keeps every value but can flip the sign of an underflowed 0.
    """
    tap, present, theta, chi = (np.array(column) for column in zip(*stack))
    stacked = arm_tables(tap, present, theta, chi)
    assert stacked[0].shape == (len(stack), 2, 4) and stacked[1].shape == (len(stack), 2, 2)
    for i, setting in enumerate(stack):
        arm = ArmOptics(*setting)
        alpha, beta = arm_entries(arm)
        if arm.splitter_present:
            assert (alpha, beta) == splitter_entries(arm.theta, arm.chi)
        recombiner = [[alpha, beta], [-beta.conjugate(), alpha.conjugate()]]
        amplitudes = [arm_amplitudes(PATH_A, arm).tolist(), arm_amplitudes(PATH_B, arm).tolist()]
        alone = arm_tables(*setting)
        assert stacked[0][i].tolist() == alone[0].tolist() == arm.amplitudes.tolist() == amplitudes
        assert stacked[1][i].tolist() == alone[1].tolist() == recombiner


def test_interference_coefficient_equals_the_factor_route():
    """Columns of the recombiner give the old (alpha, beta) factor route exactly."""
    arms = differential_arms()
    for babu, alisha in zip(arms, arms[1:] + arms[:1]):
        for j in (D1, D2):
            for k in (D1, D2):
                coef = interference_coefficient(j, k, arm_recombiner(babu), arm_recombiner(alisha))
                assert coef == interference_coefficient_factors(
                    j, k, arm_entries(babu), arm_entries(alisha)
                )


@settings(max_examples=200)
@given(p=taps, theta=angles, chi=angles, present=st.booleans())
def test_arm_vectors_orthonormal(p, theta, chi, present):
    """The A/B image vectors form an isometry for every arm setting."""
    va, vb = ArmOptics(p, splitter_present=present, theta=theta, chi=chi).amplitudes
    assert abs(np.vdot(va, va) - 1.0) <= EXACT
    assert abs(np.vdot(vb, vb) - 1.0) <= EXACT
    assert abs(np.vdot(va, vb)) <= EXACT


def test_arm_rejects_bad_inputs():
    with pytest.raises(ValueError, match="path"):
        arm_amplitudes("C", ArmOptics(0.5))
    with pytest.raises(ValueError, match="tap"):
        ArmOptics(tap_probability=1.5)
    with pytest.raises(ValueError, match="tap"):
        ArmOptics(tap_probability=-0.1)
    with pytest.raises(ValueError, match="theta"):
        ArmOptics(0.5, theta=math.nan)
    with pytest.raises(ValueError, match="chi"):
        ArmOptics(0.5, chi=math.inf)


# ---------------------------------------------------------------------------
# geometry and signal
# ---------------------------------------------------------------------------


def test_bin_centers_hand_values():
    g = SlitScreenGeometry(1e-3, 7e-7, 1.0, 4.0, 4)
    np.testing.assert_allclose(g.bin_centers, [-1.5, -0.5, 0.5, 1.5], atol=EXACT)
    assert not g.bin_centers.flags.writeable


def test_fringe_frequency_frozen(geom):
    # 4 pi d / (lambda f) computed independently
    assert abs(geom.fringe_frequency - 17951.958020513106) <= 1e-6


def test_geometry_validation():
    with pytest.raises(ValueError, match="positive"):
        SlitScreenGeometry(0.0, 7e-7, 1.0, 5e-3, 8)
    with pytest.raises(ValueError, match="n_bins"):
        SlitScreenGeometry(1e-3, 7e-7, 1.0, 5e-3, 0)


@pytest.mark.parametrize("envelope", [UniformEnvelope(), GaussianEnvelope(1.5e-3)])
def test_signal_amplitude_normalised_on_grid(geom, envelope):
    for path in (PATH_A, PATH_B):
        total = sum(
            abs(signal_amplitude(x, path, geom, envelope)) ** 2
            for x in geom.bin_centers
        )
        assert abs(total - 1.0) <= EXACT


def test_signal_paths_conjugate(geom, envelope):
    for x in geom.bin_centers[::37]:
        a = signal_amplitude(x, PATH_A, geom, envelope)
        b = signal_amplitude(x, PATH_B, geom, envelope)
        assert abs(a - b.conjugate()) <= EXACT


@pytest.mark.parametrize("envelope", [UniformEnvelope(), GaussianEnvelope(1.5e-3)])
def test_screen_basis_cached_read_only(geom, envelope):
    """Equal (geometry, envelope) keys share one read-only basis E, built from psi_A, psi_B."""
    basis = screen_basis(geom, envelope)
    assert screen_basis(dataclasses.replace(geom), dataclasses.replace(envelope)) is basis
    assert basis.shape == (geom.n_bins, 4)
    assert not basis.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0
    for x, row in zip(geom.bin_centers[::37], basis[::37]):
        psi_a = signal_amplitude(x, PATH_A, geom, envelope)
        psi_b = signal_amplitude(x, PATH_B, geom, envelope)
        cross = psi_a * psi_b.conjugate()
        expected = [abs(psi_a) ** 2 / 2, abs(psi_b) ** 2 / 2, cross.real, -cross.imag]
        assert np.abs(row - expected).max() <= TABLE_BOUND
    assert screen_basis(dataclasses.replace(geom, n_bins=64), envelope).shape == (64, 4)


def test_signal_amplitude_offscreen(geom, envelope):
    with pytest.raises(ValueError, match="outside"):
        signal_amplitude(geom.screen_width, PATH_A, geom, envelope)


def test_gaussian_envelope_validation():
    with pytest.raises(ValueError, match="sigma"):
        GaussianEnvelope(0.0)


def test_an_envelope_too_narrow_for_every_bin_vanishes_without_a_warning(geom):
    """(x / sigma)**2 overflows to inf at every bin centre, so the profile is 0 there, and refused."""
    envelope = GaussianEnvelope(5e-182)
    assert not envelope.profile(geom.bin_centers).any()
    with pytest.raises(ValueError, match="^envelope vanishes on every bin$"):
        screen_basis(geom, envelope)


# ---------------------------------------------------------------------------
# joint table against a brute-force expansion
# ---------------------------------------------------------------------------


def brute_force_joint(geom, envelope, babu, alisha):
    """Direct per-cell expansion from scalar pieces, no vectorised code.

    Arm factors are written out from the (alpha, beta) convention by hand so
    this route shares no arithmetic with ArmOptics.amplitudes.
    """

    def factors(arm):
        alpha, beta = arm_entries(arm)
        keep = math.sqrt(1.0 - arm.tap_probability)
        tap = math.sqrt(arm.tap_probability)
        fa = [keep * alpha, keep * beta, tap, 0.0]
        fb = [-keep * beta.conjugate(), keep * alpha.conjugate(), 0.0, tap]
        return fa, fb

    ba, bb = factors(babu)
    aa, ab = factors(alisha)
    out = np.zeros((geom.n_bins, 4, 4))
    for i, x in enumerate(geom.bin_centers):
        pa = signal_amplitude(x, PATH_A, geom, envelope)
        pb = signal_amplitude(x, PATH_B, geom, envelope)
        for j in range(4):
            for k in range(4):
                amp = cmath.sqrt(0.5) * (pa * ba[j] * aa[k] + pb * bb[j] * ab[k])
                out[i, j, k] = abs(amp) ** 2
    return out


@pytest.mark.parametrize(
    "babu,alisha",
    [
        (ArmOptics(0.5), ArmOptics(0.5)),
        (ArmOptics(0.2, theta=0.9, chi=1.3), ArmOptics(0.7)),
        (
            ArmOptics(0.0, splitter_present=False),
            ArmOptics(0.4, theta=2.0, chi=-0.4),
        ),
    ],
)
def test_joint_distribution_matches_bruteforce(small_geom, envelope, babu, alisha):
    dist = joint_distribution(small_geom, envelope, babu, alisha)
    ref = brute_force_joint(small_geom, envelope, babu, alisha)
    np.testing.assert_allclose(dist.probs, ref, atol=EXACT)


@settings(max_examples=300, deadline=None)
@given(
    envelope=st.sampled_from([UniformEnvelope(), GaussianEnvelope(1.0e-3)]),
    babu=arms,
    alisha=st.none() | arms,
)
def test_tables_equal_the_complex_route(envelope, babu, alisha):
    """One- and two-arm tables E @ C agree with |psi_A c_A + psi_B c_B|^2 / 2 entry by entry."""
    if alisha is None:
        table = single_distribution(TABLE_GEOM, envelope, babu)
        expected = outcome_probabilities(TABLE_GEOM, envelope, (babu,))
    else:
        table = joint_distribution(TABLE_GEOM, envelope, babu, alisha).probs
        expected = outcome_probabilities(TABLE_GEOM, envelope, (babu, alisha))
    assert table.shape == expected.shape
    assert np.abs(table - expected).max() <= TABLE_BOUND


def test_coefficients_stack_over_settings():
    """A stack of arms gives, point by point, the coefficient array of each pair."""
    rng = np.random.default_rng(5)
    babus = [
        ArmOptics(p, present, theta, chi)
        for p, present, (theta, chi) in zip((0.0, 1.0, 0.3), (True, False, True), angle_pairs(rng, 3))
    ]
    alishas = [ArmOptics(p, True, theta, chi) for p, (theta, chi) in zip((0.6, 0.0), angle_pairs(rng, 2))]
    stacked = coefficients(
        np.array([arm.amplitudes for arm in babus]),
        np.array([arm.amplitudes for arm in alishas])[:, None],
    )
    assert stacked.shape == (4, len(alishas), len(babus), 4, 4)
    for a, alisha in enumerate(alishas):
        for b, babu in enumerate(babus):
            pair = coefficients(babu.amplitudes, alisha.amplitudes)
            assert (stacked[:, a, b] == pair).all()
            # no-signalling: babu's outcome sum keeps alisha's rows and no cross term
            summed = pair.sum(axis=1)
            assert np.abs(summed[:2] - coefficients(alisha.amplitudes)[:2]).max() <= EXACT
            assert np.abs(summed[2:]).max() <= EXACT


def test_joint_amplitude_scalar_consistent(small_geom, envelope):
    babu, alisha = ArmOptics(0.3), ArmOptics(0.6)
    dist = joint_distribution(small_geom, envelope, babu, alisha)
    for i in (0, 7, 31):
        for j in range(4):
            for k in range(4):
                amp = joint_amplitude(i, j, k, small_geom, envelope, babu, alisha)
                assert abs(abs(amp) ** 2 - dist.probs[i, j, k]) <= EXACT


def test_joint_amplitude_validation(small_geom, envelope):
    with pytest.raises(ValueError, match="bin"):
        joint_amplitude(99, 0, 0, small_geom, envelope, ArmOptics(0.5), ArmOptics(0.5))
    with pytest.raises(ValueError, match="alisha"):
        joint_amplitude(0, 0, 1, small_geom, envelope, ArmOptics(0.5), None)


def test_total_probability_random_settings(small_geom, envelope):
    rng = np.random.default_rng(42)
    for theta, chi in angle_pairs(rng, 25):
        babu = ArmOptics(rng.uniform(), theta=theta, chi=chi)
        alisha = ArmOptics(rng.uniform(), theta=chi, chi=theta)
        dist = joint_distribution(small_geom, envelope, babu, alisha)
        assert abs(dist.total() - 1.0) <= EXACT
        assert dist.probs.min() >= 0.0


def test_erased_slice_totals_frozen(geom, envelope):
    # independent trig sums over the default 256-bin grid, taps 0.5/0.5
    dist = joint_distribution(geom, envelope, ArmOptics(0.5), ArmOptics(0.5))
    assert abs(dist.pattern(D1, D1).sum() - 0.06359438025177204) <= EXACT
    assert abs(dist.pattern(D1, D2).sum() - 0.06140561974822794) <= EXACT


def test_cross_monitors_never_coincide(small_geom, envelope):
    rng = np.random.default_rng(7)
    for theta, chi in angle_pairs(rng, 10):
        dist = joint_distribution(
            small_geom,
            envelope,
            ArmOptics(rng.uniform(), theta=theta, chi=chi),
            ArmOptics(rng.uniform()),
        )
        assert np.abs(dist.pattern(D3, D4)).max() <= EXACT
        assert np.abs(dist.pattern(D4, D3)).max() <= EXACT


def test_tap_rates_exact(small_geom, envelope):
    # which-path monitors fire with exactly the tap probability
    dist = joint_distribution(small_geom, envelope, ArmOptics(0.37), ArmOptics(0.81))
    p_monitor_babu = dist.probs[:, (D3, D4), :].sum()
    p_monitor_alisha = dist.probs[:, :, (D3, D4)].sum()
    assert abs(p_monitor_babu - 0.37) <= EXACT
    assert abs(p_monitor_alisha - 0.81) <= EXACT


# ---------------------------------------------------------------------------
# fringe coefficients
# ---------------------------------------------------------------------------


def test_coefficients_balanced_values():
    u = unitary_from_angle(math.pi / 4.0, 0.0)
    assert abs(interference_coefficient(D1, D1, u, u) - 0.5) <= EXACT
    assert abs(interference_coefficient(D2, D2, u, u) - 0.5) <= EXACT
    assert abs(interference_coefficient(D1, D2, u, u) + 0.5) <= EXACT
    assert abs(interference_coefficient(D2, D1, u, u) + 0.5) <= EXACT


def test_coefficient_monitor_outcomes_rejected():
    u = unitary_from_angle(math.pi / 4.0, 0.0)
    with pytest.raises(ValueError, match="monitor"):
        interference_coefficient(D3, D1, u, u)
    with pytest.raises(ValueError, match="monitor"):
        interference_coefficient(D1, D4, u, u)


@settings(max_examples=300)
@given(tb=angles, cb=angles, ta=angles, ca=angles, k=st.sampled_from([D1, D2]))
def test_coefficient_cancellation(tb, cb, ta, ca, k):
    """Summing babu's two erased outcomes kills the fringe term identically."""
    ub = unitary_from_angle(tb, cb)
    ua = unitary_from_angle(ta, ca)
    s = interference_coefficient(D1, k, ub, ua) + interference_coefficient(D2, k, ub, ua)
    assert abs(s) <= EXACT


def test_coefficient_matches_joint_table(small_geom, envelope):
    """Extract both fringe quadratures from the probability table by projection.

    Each erased slice is (const + 2 Re(z) cos(2 phase) - 2 Im(z) sin(2 phase))
    / (2 n) with z the product of the hand-written path factors; the cosine
    weight must agree with interference_coefficient.
    """
    babu = ArmOptics(0.0, theta=0.7, chi=0.5)
    alisha = ArmOptics(0.0, theta=1.2, chi=-0.3)
    dist = joint_distribution(small_geom, envelope, babu, alisha)
    u = 2.0 * small_geom.phase(small_geom.bin_centers)
    n = small_geom.n_bins

    def hand_factors(arm):
        alpha, beta = arm_entries(arm)
        return {
            D1: (alpha, -beta.conjugate()),
            D2: (beta, alpha.conjugate()),
        }

    bf = hand_factors(babu)
    af = hand_factors(alisha)
    for j in (D1, D2):
        for k in (D1, D2):
            z = (bf[j][0] * af[k][0]) * (bf[j][1] * af[k][1]).conjugate()
            y = dist.pattern(j, k) * 2.0 * n
            design = np.column_stack([np.ones(n), np.cos(u), np.sin(u)])
            c0, ccos, csin = np.linalg.lstsq(design, y, rcond=None)[0]
            coef = interference_coefficient(j, k, arm_recombiner(babu), arm_recombiner(alisha))
            assert abs(ccos - coef) <= 1e-9
            assert abs(ccos - 2.0 * z.real) <= 1e-9
            assert abs(csin + 2.0 * z.imag) <= 1e-9


def test_single_coefficients_balanced(small_geom, envelope):
    """One-idler fringe weights -(alpha beta + c.c.): -1 for D1, +1 for D2.

    Each erased column is (1 - p) (1 + c cos(2 phase)) / (2 n) on a flat
    envelope; c is read off by projection onto cos(2 phase).
    """
    table = single_distribution(small_geom, envelope, ArmOptics(0.0))
    n = small_geom.n_bins
    u = 2.0 * small_geom.phase(small_geom.bin_centers)
    design = np.column_stack([np.ones(n), np.cos(u), np.sin(u)])
    for j, expected in ((D1, -1.0), (D2, 1.0)):
        c0, ccos, csin = np.linalg.lstsq(design, table[:, j] * 2.0 * n, rcond=None)[0]
        assert abs(c0 - 1.0) <= 1e-9
        assert abs(ccos - expected) <= 1e-9
        assert abs(csin) <= 1e-9


def test_single_distribution_pair_sum_flat(small_geom, envelope):
    arm = ArmOptics(0.25, theta=0.6, chi=1.9)
    table = single_distribution(small_geom, envelope, arm)
    flat = (1.0 - 0.25) / small_geom.n_bins
    np.testing.assert_allclose(table[:, D1] + table[:, D2], flat, atol=EXACT)
    assert abs(table.sum() - 1.0) <= EXACT


def test_single_distribution_matches_scalar_amplitudes(small_geom, envelope):
    arm = ArmOptics(0.4, theta=1.3, chi=-0.7)
    table = single_distribution(small_geom, envelope, arm)
    for i in (0, 11, 31):
        for j in range(4):
            amp = joint_amplitude(i, j, None, small_geom, envelope, arm)
            assert abs(abs(amp) ** 2 - table[i, j]) <= EXACT


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_invariant_under_babu_settings(small_geom, envelope):
    alisha = ArmOptics(0.5)
    ref = screen_marginal(small_geom, envelope, alisha)
    rng = np.random.default_rng(3)
    for theta, chi in angle_pairs(rng, 20):
        babu = ArmOptics(
            rng.uniform(), splitter_present=bool(rng.integers(2)), theta=theta, chi=chi
        )
        dist = joint_distribution(small_geom, envelope, babu, alisha)
        assert np.abs(dist.alisha_marginal() - ref).max() <= EXACT


def test_marginal_flat_for_uniform_envelope(small_geom, envelope):
    """Each screen column of the marginal is constant: no fringe leaks out."""
    marg = screen_marginal(small_geom, envelope, ArmOptics(0.5))
    assert np.abs(marg - marg[0:1, :]).max() <= EXACT
    assert abs(marg.sum() - 1.0) <= EXACT


def test_marginal_alisha_monitor_rate(small_geom, envelope):
    marg = screen_marginal(small_geom, envelope, ArmOptics(0.62))
    assert abs(marg[:, (D3, D4)].sum() - 0.62) <= EXACT
