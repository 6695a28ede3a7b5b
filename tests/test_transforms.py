import json
import math

import numpy as np
import pytest
from linalg_checks import reference_permutohedron_walk
from test_witness import _sio_pairs

from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import monotones as mo
from coherence_kit import states
from coherence_kit import transforms as tr
from coherence_kit.numerics import eig_hermitian
from coherence_kit.states import (
    DensityMatrix,
    PureStateVector,
    SchmidtVector,
    partial_dephase,
    random_density,
    random_pure,
    schmidt_vector,
)


def sv(values):
    return SchmidtVector(np.sort(np.asarray(values, dtype=float))[::-1])


def pure(probs, rng=None):
    amps = np.sqrt(np.asarray(probs, dtype=float)).astype(complex)
    if rng is not None:
        amps = amps * np.exp(2j * np.pi * rng.random(amps.size))
    return PureStateVector(amps)


def random_majorized_pair(d, rng):
    """phi random, psi = (doubly stochastic mix) applied to tau(phi)."""
    phi_probs = np.sort(rng.dirichlet(np.ones(d)))[::-1]
    mix = np.zeros((d, d))
    for w in rng.dirichlet(np.ones(4)):
        perm = rng.permutation(d)
        mat = np.zeros((d, d))
        mat[np.arange(d), perm] = 1.0
        mix += w * mat
    psi_probs = mix @ phi_probs
    return pure(psi_probs, rng), pure(phi_probs, rng)


def decides_once(decide, construct, *args):
    """The decider's verdict is true exactly when the construction raises no
    InfeasibleTransformError, and a negative verdict carries its violation."""
    dec = decide(*args)
    try:
        construct(*args)
    except tr.InfeasibleTransformError as exc:
        assert not dec.verdict and dec.witness is None
        assert dec.violation == exc.violation
        return False
    assert dec.verdict and dec.witness is not None and dec.violation is None
    return True


def mio_target(offset):
    """Three-level target with sum sqrt(q) - sqrt(2) = offset (to ~1e-16),
    moved off the Fig. 1 boundary point (8/9, 1/18, 1/18)."""
    slope = 1.0 / (2.0 * math.sqrt(1.0 / 18.0)) - 1.0 / (2.0 * math.sqrt(8.0 / 9.0))
    eps = offset / slope
    q = np.array([8.0 / 9.0 - eps, 1.0 / 18.0 + eps, 1.0 / 18.0])
    assert abs(np.sum(np.sqrt(q)) - math.sqrt(2.0) - offset) < 1e-15
    return q


def phased(moduli, rng):
    """Pure state with the given moduli (normalized) and random phases."""
    moduli = np.asarray(moduli, dtype=float) / np.linalg.norm(moduli)
    return PureStateVector(moduli * np.exp(2j * np.pi * rng.random(moduli.size)))


def pio_blocks(witness, psi):
    """The block partition a PIO witness realizes: each operator's column
    support, leaving out the operator on the complement of psi's support."""
    supports = [np.flatnonzero(np.any(np.abs(k) > 1e-12, axis=0)) for k in witness.kraus]
    return [s.tolist() for s in supports if np.any(np.abs(psi.amps[s]) > 1e-12)]


class TestDecideOnce:
    """Each decider is its construction's feasibility test and nothing more."""

    NUDGES = (1e-12 - 0.5e-12, 1e-12 + 0.5e-12)  # around every 1e-12 slack

    def test_sio_random_pairs(self):
        rng = np.random.default_rng(81)
        outcomes = set()
        for trial in range(60):
            d = 2 + trial % 7
            if trial % 2:
                psi, phi = random_majorized_pair(d, rng)
            else:
                psi, phi = pure(rng.dirichlet(np.ones(d)), rng), pure(rng.dirichlet(np.ones(d)), rng)
            outcomes.add(decides_once(tr.sio_pure_decide, tr.sio_pure_construct, psi, phi))
        assert outcomes == {True, False}

    def test_sio_nudged_pairs(self):
        phi = pure([0.7, 0.2, 0.1])
        verdicts = []
        for delta in self.NUDGES:
            psi = pure([0.7 + delta, 0.2 - delta, 0.1])
            verdicts.append(decides_once(tr.sio_pure_decide, tr.sio_pure_construct, psi, phi))
        assert verdicts == [True, False]
        assert tr.sio_pure_decide(psi, phi).violation == {"failing_k": 1}

    @pytest.mark.parametrize(
        "source, target, violation",
        [
            ([0.9, 0.1], [0.5, 0.3, 0.2], {"failing_k": 1}),
            ([0.5, 0.5], [1.0, 0.0, 0.0], None),
            ([0.8, 0.1, 0.1], [0.5, 0.5], {"failing_k": 1}),
            ([0.4, 0.3, 0.3], [0.5, 0.5], None),
        ],
    )
    def test_sio_unequal_dimensions(self, source, target, violation):
        # majorization is decided on zero-padded vectors; a majorized pair
        # gets a dout x din witness, built at the larger dimension and
        # composed with an embedding or with fold operators
        psi, phi = pure(source, np.random.default_rng(3)), pure(target, np.random.default_rng(4))
        assert decides_once(tr.sio_pure_decide, tr.sio_pure_construct, psi, phi) is (
            violation is None
        )
        dec = tr.sio_pure_decide(psi, phi)
        if violation is not None:
            assert dec.violation == violation
            return
        w = dec.witness
        assert (w.dout, w.din) == (phi.dim, psi.dim)
        big = np.abs(np.stack(w.kraus)) > 1e-9
        assert np.all(big.sum(axis=1) <= 1) and np.all(big.sum(axis=2) <= 1)
        out = ch.apply(w, psi.to_density())
        assert np.max(np.abs(out.mat - phi.to_density().mat)) <= 1e-10
        with pytest.raises(ValueError, match="square channel"):
            ch.is_sio_rep(w)

    def test_sio_witness_across_dimensions_from_the_cli_example(self):
        psi, phi = pure([0.5, 0.3, 0.2]), pure([0.8, 0.2])
        dec = tr.sio_pure_decide(psi, phi)
        assert dec.verdict and (dec.witness.dout, dec.witness.din) == (2, 3)
        assert not tr.sio_pure_decide(phi, psi).verdict

    def test_qubit_random_pairs(self):
        outcomes = set()
        for seed in range(60):
            rho, sigma = random_density(2, 700 + seed), random_density(2, 800 + seed)
            if seed % 3 == 0:
                sigma = partial_dephase(rho, 0.4)
            outcomes.add(decides_once(tr.qubit_decide, tr.qubit_construct, rho, sigma))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("monotone", ["c_r", "c_delta_r"])
    def test_qubit_nudged_pairs(self, monotone):
        # C_R = 2r binds at equal populations; C_dR = r / sqrt(p(1-p)) binds
        # when the target's populations are further from 1/2
        p, r = 0.5, 0.3
        rho = DensityMatrix([[p, r], [r, 1 - p]])
        verdicts = []
        for delta in self.NUDGES:
            if monotone == "c_r":
                q, t = p, r + delta / 2.0
            else:
                q = 0.8
                t = math.sqrt(q * (1 - q)) * (r / math.sqrt(p * (1 - p)) + delta)
            sigma = DensityMatrix([[q, t], [t, 1 - q]])
            verdicts.append(decides_once(tr.qubit_decide, tr.qubit_construct, rho, sigma))
        assert verdicts == [True, False]
        assert tr.qubit_decide(rho, sigma).violation["monotone"] == monotone

    def test_mio_random_targets(self):
        rng = np.random.default_rng(83)
        outcomes = set()
        for trial in range(40):
            d = 3 + trial % 4
            q = rng.dirichlet([40.0] + [1.0] * (d - 1) if trial % 2 else np.ones(d))
            outcomes.add(
                decides_once(tr.mio_qubit_pure_decide, tr.mio_qubit_pure_construct, [0.5, 0.5], q)
            )
        assert outcomes == {True, False}

    def test_mio_nudged_targets(self):
        verdicts = []
        for offset in self.NUDGES:
            q = mio_target(offset)
            verdicts.append(
                decides_once(tr.mio_qubit_pure_decide, tr.mio_qubit_pure_construct, [0.5, 0.5], q)
            )
        assert verdicts == [True, False]

    def test_mio_nudged_sources(self):
        # a target inside the sqrt(2) region; the source population sits
        # 0.5e-12 either side of the uniform-source slack
        q = [0.9, 0.05, 0.05]
        verdicts = []
        for delta in self.NUDGES:
            p = [0.5 + delta, 0.5 - delta]
            verdicts.append(
                decides_once(tr.mio_qubit_pure_decide, tr.mio_qubit_pure_construct, p, q)
            )
        assert verdicts == [True, False]
        assert tr.mio_qubit_pure_decide(p, q).violation["monotone"] == "uniform_source"

    def test_mio_non_uniform_source_over_any_target(self):
        # the source is tested before the target's sqrt(2) inequality, and
        # its record is the inequality tested: |p_0 - p_1| <= 2e-12
        for q in ([0.9, 0.05, 0.05], [0.5, 0.25, 0.25]):
            assert not decides_once(
                tr.mio_qubit_pure_decide, tr.mio_qubit_pure_construct, [0.6, 0.4], q
            )
            violation = tr.mio_qubit_pure_decide([0.6, 0.4], q).violation
            assert violation == {"monotone": "uniform_source", "lhs": 0.6 - 0.4, "rhs": 2e-12}

    def test_pio_random_pairs(self):
        # by thirds: block-proportional pairs (feasible), random moduli on
        # supports of sizes d and n (no partition), and a source support of
        # d - 1 entries, which n >= 2 does not divide
        rng = np.random.default_rng(87)
        outcomes, reasons = set(), set()
        for trial in range(60):
            n, blocks = 2 + trial % 3, 1 + (trial // 3) % 4
            d = n * blocks
            profile = np.zeros(d)
            profile[rng.choice(d, n, replace=False)] = rng.random(n) + 0.1
            moduli = rng.random(d) + 0.1
            if trial % 3 == 0:
                weights = rng.dirichlet(np.ones(blocks))
                moduli = np.concatenate([np.sqrt(w) * profile[profile > 0] for w in weights])
                moduli = moduli[rng.permutation(d)]
            elif trial % 3 == 2:
                moduli[rng.integers(d)] = 0.0
            psi, phi = phased(moduli, rng), phased(profile, rng)
            outcome = decides_once(tr.pio_pure_decide, tr.pio_pure_construct, psi, phi)
            assert outcome is (trial % 3 == 0)
            outcomes.add(outcome)
            if not outcome:
                reasons.add(tr.pio_pure_decide(psi, phi).violation["reason"])
        assert outcomes == {True, False}
        assert reasons == {"support sizes incompatible", "no proportional block partition"}

    def test_n_covariant_random_pairs(self):
        outcomes = set()
        for trial in range(40):
            d = 2 + trial % 4
            rho = random_density(d, 600 + trial)
            if trial % 2:
                channel = cov.random_n_covariant_channel(d, np.random.default_rng(trial))
                sigma = ch.apply(channel, rho)
            else:
                sigma = random_density(d, 700 + trial)
            outcomes.add(decides_once(cov.n_feasible, cov.n_construct, rho, sigma))
        assert outcomes == {True, False}

    def test_n_covariant_nudged_pairs(self):
        # Q = [[1, c], [c, 1]] has lambda_min = 1 - c, placed 0.5e-12 either
        # side of -PSD_TOL
        rho = DensityMatrix([[0.5, 0.25], [0.25, 0.5]])
        verdicts = []
        for delta in (-0.5e-12, 0.5e-12):
            c = 1.0 + cov.PSD_TOL + delta
            sigma = DensityMatrix([[0.5, 0.25 * c], [0.25 * c, 0.5]])
            lam = eig_hermitian(cov.n_q_matrix(rho, sigma).q).eigenvalues[0]
            assert abs(lam + cov.PSD_TOL + delta) < 1e-15
            verdicts.append(decides_once(cov.n_feasible, cov.n_construct, rho, sigma))
        assert verdicts == [True, False]
        assert cov.n_feasible(rho, sigma).violation["monotone"] == "ratio_matrix_psd"

    def test_invalid_target_raises_before_the_source_verdict(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tr.mio_qubit_pure_decide([0.6, 0.4], [0.5, 0.3, 0.3])


class TestMajorizes:
    def test_deterministic_dominates(self):
        assert tr.majorizes(sv([1.0]), sv([0.5, 0.5])).holds

    def test_failing_index(self):
        check = tr.majorizes(sv([0.5, 0.5]), sv([0.7, 0.3]))
        assert not check.holds and check.failing_k == 1

    def test_reflexive(self):
        x = sv([0.4, 0.35, 0.25])
        assert tr.majorizes(x, x).holds

    def test_zero_padding(self):
        assert tr.majorizes(sv([0.9, 0.1]), sv([0.5, 0.3, 0.2])).holds


class TestSioPure:
    def test_plus_to_basis(self):
        dec = tr.sio_pure_decide(pure([0.5, 0.5]), pure([1.0, 0.0]))
        assert dec.verdict and dec.witness is not None

    def test_uphill_fails_with_index(self):
        dec = tr.sio_pure_decide(pure([0.7, 0.3]), pure([0.5, 0.5]))
        assert not dec.verdict
        assert dec.violation == {"failing_k": 1}

    def test_identity_transform(self):
        psi = random_pure(3, 1)
        dec = tr.sio_pure_decide(psi, psi)
        assert dec.verdict
        out = ch.apply(dec.witness, psi.to_density())
        assert np.max(np.abs(out.mat - psi.to_density().mat)) < 1e-10

    def test_two_level_construction(self):
        psi, phi = pure([0.5, 0.5]), pure([0.75, 0.25])
        witness = tr.sio_pure_construct(psi, phi)
        assert len(witness.kraus) == 2
        assert ch.is_sio_rep(witness)
        for k in witness.kraus:
            image = k @ psi.amps
            overlap = phi.amps.conj() @ image
            assert np.linalg.norm(image - overlap * phi.amps) < 1e-10

    def test_random_pairs_verify(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            d = 2 + trial % 3
            psi, phi = random_majorized_pair(d, rng)
            dec = tr.sio_pure_decide(psi, phi)
            assert dec.verdict, trial
            assert ch.is_sio_rep(dec.witness)
            out = ch.apply(dec.witness, psi.to_density())
            assert np.max(np.abs(out.mat - phi.to_density().mat)) < 1e-8

    def test_schmidt_rank_never_increases(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            psi, phi = random_majorized_pair(4, rng)
            rank_in = int(np.sum(psi.probs > 1e-12))
            rank_out = int(np.sum(phi.probs > 1e-12))
            assert rank_out <= rank_in

    def test_renyi_family_non_increasing(self):
        rng = np.random.default_rng(7)
        grid = list(np.arange(0.0, 4.25, 0.25)) + [math.inf]
        for trial in range(15):
            psi, phi = random_majorized_pair(4, rng)
            for alpha in grid:
                assert mo.renyi(phi.probs, alpha) <= mo.renyi(psi.probs, alpha) + 1e-9

    def test_majorization_precondition_enforced(self):
        with pytest.raises(ValueError):
            tr.sio_pure_construct(pure([0.7, 0.3]), pure([0.5, 0.5]))

    def test_verdict_is_majorizes_at_the_slack(self):
        # psi moves eps of phi's mass up to entry k: prefix sums k+1 onwards
        # exceed phi's by eps, placed 1e-14 to 5e-13 to either side of the
        # 1e-12 slack; zero-padded to unequal dimensions and shuffled, and in
        # two of three pairs one state's norm is off by 5e-11, inside the
        # state tolerance, so the prefix sums must be read normalized
        rng = np.random.default_rng(47)
        for trial in range(120):
            m = int(rng.integers(2, 9))
            t = np.sort(rng.dirichlet(np.ones(m)))[::-1]
            k = int(rng.integers(0, m - 1))
            eps = 1e-12 + (-1) ** trial * rng.uniform(1e-14, 5e-13)
            s = t.copy()
            s[k] += eps
            s[k + 1] -= eps
            if trial % 3 == 0:
                s *= 1.0 + 5e-11
            elif trial % 3 == 1:
                t *= 1.0 - 5e-11
            d_in, d_out = m + int(rng.integers(0, 4)), m + int(rng.integers(0, 4))
            psi = pure(np.pad(s, (0, d_in - m))[rng.permutation(d_in)], rng)
            phi = pure(np.pad(t, (0, d_out - m))[rng.permutation(d_out)], rng)
            check = tr.majorizes(schmidt_vector(phi), schmidt_vector(psi))
            assert check.holds == (trial % 2 == 1)
            assert check.holds or check.failing_k == k + 1
            self.assert_verdict_is_majorizes(psi, phi)

    def test_verdict_is_majorizes_on_the_witness_pairs(self):
        for psi, phi in _sio_pairs():
            self.assert_verdict_is_majorizes(psi, phi)

    @staticmethod
    def assert_verdict_is_majorizes(psi, phi):
        check = tr.majorizes(schmidt_vector(phi), schmidt_vector(psi))
        dec = tr.sio_pure_decide(psi, phi)
        assert dec.verdict == check.holds
        assert dec.violation == (None if check.holds else {"failing_k": check.failing_k})

    def test_builds_no_schmidt_vector(self, monkeypatch):
        # the construction sorts each state once, in its gauge
        def refuse(self, probs):
            raise AssertionError("SchmidtVector built")

        monkeypatch.setattr(states.SchmidtVector, "__init__", refuse)
        decisions = [tr.sio_pure_decide(psi, phi) for psi, phi in _sio_pairs()]
        assert {dec.verdict for dec in decisions} == {True, False}


def mixed_down(y, rng, n_perms=None):
    """Descending x majorized by y: a random convex mix of permutations of y."""
    n = n_perms or int(rng.integers(1, 6))
    x = sum(w * y[rng.permutation(y.size)] for w in rng.dirichlet(np.ones(n)))
    return np.sort(x / x.sum())[::-1]


def walk_target(d, rng, kind):
    """Descending target squared amplitudes with ties or zeros, by kind."""
    if kind == "ties":
        y = rng.integers(1, 4, d).astype(float)
    elif kind == "zeros":
        y = rng.dirichlet(np.ones(d))
        y[rng.random(d) < 0.4] = 0.0
        y[0] += 0.1
    else:
        y = rng.dirichlet(np.ones(d) * rng.choice([0.1, 1.0, 10.0]))
    return np.sort(y / y.sum())[::-1]


def walk_cases():
    """(x, y) descending with x majorized by y, including the edge cases."""
    rng = np.random.default_rng(41)
    cases = []
    for d in list(range(2, 17)) + [24, 32, 48, 64]:
        for kind in ("generic", "ties", "zeros"):
            y = walk_target(d, rng, kind)
            cases.append((mixed_down(y, rng), y))
        basis = np.zeros(d)
        basis[0] = 1.0
        uniform = np.full(d, 1.0 / d)
        cases.append((uniform, walk_target(d, rng, "generic")))  # psi uniform
        cases.append((mixed_down(walk_target(d, rng, "ties"), rng), basis))  # phi basis
        y = walk_target(d, rng, "generic")
        cases.append((y, y))  # psi = phi
        pairs = y[: d - d % 2].reshape(-1, 2).mean(axis=1)
        tied = np.r_[np.repeat(pairs, 2), y[d - d % 2 :]]  # ties in psi
        cases.append((np.sort(tied)[::-1], y))
    # zero tails: X_k = Y_k holds for every k past the support from the start
    cases.append((np.array([0.5, 0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])))
    cases.append((np.array([0.4, 0.3, 0.3, 0.0, 0.0]), np.array([0.5, 0.3, 0.2, 0.0, 0.0])))
    # prefixes tight from the start: k = 1 and 3, then k = 2 alone, with a
    # free block on either side of it
    cases.append((np.array([0.5, 0.2, 0.2, 0.1]), np.array([0.5, 0.3, 0.1, 0.1])))
    cases.append((np.array([0.45, 0.25, 0.15, 0.15]), np.array([0.5, 0.2, 0.2, 0.1])))
    return cases


class TestPermutohedronWalk:
    def test_cases_are_majorized(self):
        assert all(tr.majorizes(sv(y), sv(x)) for x, y in walk_cases())

    def test_decomposition_is_exact_convex_and_small(self):
        for x, y in walk_cases():
            weights, perms = tr._permutohedron_walk(x, y)
            assert 1 <= weights.size <= x.size
            assert perms.shape == (weights.size, x.size)
            assert np.all(weights > 0.0)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(np.sort(perms, axis=1) == np.arange(x.size))
            assert np.max(np.abs(weights @ y[perms] - x)) < 1e-12

    def test_identity_is_one_term(self):
        y = np.array([0.4, 0.3, 0.2, 0.1])
        weights, perms = tr._permutohedron_walk(y, y)
        assert list(weights) == [1.0] and list(perms[0]) == [0, 1, 2, 3]

    def test_uniform_from_basis_uses_d_permutations(self):
        d = 6
        weights, perms = tr._permutohedron_walk(np.full(d, 1.0 / d), np.eye(d)[0])
        assert weights.size == d
        assert np.max(np.abs(weights - 1.0 / d)) < 1e-15
        assert sorted(np.argmin(perms, axis=1)) == list(range(d))

    @staticmethod
    def assert_matches_reference(x, y):
        weights, perms = tr._permutohedron_walk(x, y)
        ref_weights, ref_perms = reference_permutohedron_walk(x, y)
        assert weights.tobytes() == ref_weights.tobytes()
        assert perms.dtype == ref_perms.dtype and perms.shape == ref_perms.shape
        assert np.array_equal(perms, ref_perms)

    def test_matches_the_numpy_walk_on_walk_cases(self):
        for x, y in walk_cases():
            self.assert_matches_reference(x, y)

    def test_matches_the_numpy_walk_on_seeded_pairs(self):
        # ties, zero tails in y alone and in both, and x = y, at every d
        # from 2 to 64
        rng = np.random.default_rng(46)
        for d in range(2, 65):
            for kind in ("generic", "ties", "zeros"):
                y = walk_target(d, rng, kind)
                support = y[y > 0.0]
                both = np.r_[mixed_down(support, rng), np.zeros(d - support.size)]
                for x in (mixed_down(y, rng), both, y):
                    assert tr.majorizes(sv(y), sv(x))
                    self.assert_matches_reference(x, y)


class TestSioWitness:
    """Every SIO witness has at most d operators and is re-verified."""

    def check(self, psi, phi):
        witness = tr.sio_pure_construct(psi, phi)
        assert len(witness) <= psi.dim
        assert ch.is_sio_rep(witness)
        out = ch.apply(witness, psi.to_density())
        assert 0.5 * np.abs(np.linalg.eigvalsh(out.mat - phi.to_density().mat)).sum() < 1e-8
        return witness

    def test_walk_cases_with_random_phases(self):
        rng = np.random.default_rng(42)
        for x, y in walk_cases():
            self.check(pure(x, rng), pure(y, rng))

    def test_random_pairs_up_to_d64(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 5, 8, 16, 32, 64):
            for _ in range(3):
                psi, phi = random_majorized_pair(d, rng)
                self.check(psi, phi)

    def test_unsorted_amplitudes_with_zeros(self):
        rng = np.random.default_rng(44)
        psi = pure([0.0, 0.25, 0.25, 0.0, 0.5], rng)
        phi = pure([0.0, 0.0, 0.75, 0.25, 0.0], rng)
        self.check(psi, phi)

    def test_tiny_amplitudes(self):
        x = np.array([0.66, 0.34 - 7e-10, 6.8e-10, 2e-14])
        y = np.array([1.0 - 6.9e-10, 6.8e-10, 1e-11, 0.0])
        self.check(pure(x / x.sum()), pure(y / y.sum()))

    def test_sixteen_operators_at_d16(self):
        rng = np.random.default_rng(45)
        y = walk_target(16, rng, "generic")
        witness = self.check(pure(np.full(16, 1 / 16), rng), pure(y, rng))
        assert len(witness) == 16


class TestMultiOutcome:
    def test_single_outcome_reduces_to_decide(self):
        psi, phi = pure([0.6, 0.4]), pure([0.8, 0.2])
        assert tr.multi_outcome_decide(psi, [(1.0, phi)]) == tr.sio_pure_decide(psi, phi).verdict

    def test_plus_half_half(self):
        plus = pure([0.5, 0.5])
        ens = [(0.5, pure([1.0, 0.0])), (0.5, plus)]
        assert tr.multi_outcome_decide(plus, ens)

    def test_ensemble_of_copies(self):
        psi = random_pure(3, 9)
        ens = [(0.25, psi)] * 4
        assert tr.multi_outcome_decide(psi, ens)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            tr.multi_outcome_decide(pure([0.5, 0.5]), [(0.7, pure([1.0, 0.0]))])

    @pytest.mark.parametrize("excess", [5e-10, -5e-10])
    def test_weights_within_the_sum_tolerance_get_a_verdict(self, excess):
        """The verdict is the one for exact weights, on either side."""
        psi, phi = pure([0.6, 0.4]), pure([0.8, 0.2])
        assert tr.multi_outcome_decide(psi, [(0.5 + excess, phi), (0.5, psi)])
        assert not tr.multi_outcome_decide(phi, [(0.5 + excess, psi), (0.5, psi)])

    @pytest.mark.parametrize("excess", [2e-9, -2e-9])
    def test_weights_beyond_the_sum_tolerance_are_rejected(self, excess):
        psi, phi = pure([0.6, 0.4]), pure([0.8, 0.2])
        with pytest.raises(ValueError, match="invalid ensemble weights"):
            tr.multi_outcome_decide(psi, [(0.5 + excess, phi), (0.5, psi)])


class TestNearlyNormalizedInputs:
    """States whose squared amplitudes sum to 1 only within the 1e-10 state
    tolerance get the verdict of their normalized versions."""

    # sum of squares 1 + 8e-11; psi -> phi is feasible
    PSI = np.sqrt([0.5, 0.3, 0.2]) * (1 + 4e-11)
    PHI = np.sqrt([0.8, 0.2, 0.0])
    # |+> with norm^2 1 + 8e-11, and a target inside the sqrt(2) region
    PLUS = np.array([0.7071067812148317, 0.7071067812148317])
    TARGET = np.sqrt([0.9, 0.05, 0.05])

    def test_majorization_reads_normalized_vectors(self):
        psi, phi = PureStateVector(self.PSI), PureStateVector(self.PHI)
        assert tr.majorizes(schmidt_vector(phi), schmidt_vector(psi))
        decision = tr.sio_pure_decide(psi, phi)
        assert decision.verdict
        tr._verify_witness(decision.witness, psi.to_density(), phi.to_density())
        assert tr.multi_outcome_decide(psi, [(1, phi)])

    def test_uniform_source_test_is_scale_free(self):
        plus, target = PureStateVector(self.PLUS), PureStateVector(self.TARGET)
        decision = tr.mio_qubit_pure_decide(plus.probs, target.probs)
        assert decision.verdict
        tr._verify_witness(decision.witness, plus.to_density(), target.to_density())


class TestConversionProbability:
    def test_certain_exactly_when_majorized(self):
        """1.0 exactly, not 1 - 1e-16, on every pair where majorizes holds."""
        for seed in range(2000):
            d = 2 + seed % 7
            psi = random_pure(d, seed)
            phi = PureStateVector(np.sqrt(0.5 * np.sort(psi.probs)[::-1] + 0.5 * np.eye(d)[0]))
            assert tr.majorizes(schmidt_vector(phi), schmidt_vector(psi))
            assert tr.max_conversion_probability(psi, phi) == 1.0, seed

    def test_majorized_pair_is_certain(self):
        psi, phi = pure([0.5, 0.5]), pure([0.9, 0.1])
        assert tr.max_conversion_probability(psi, phi) == pytest.approx(1.0)

    def test_two_term_formula(self):
        value = tr.max_conversion_probability(pure([0.7, 0.3]), pure([0.5, 0.5]))
        assert value == pytest.approx(0.6, abs=1e-12)

    def test_vanishing_tail(self):
        psi = pure([1.0, 0.0, 0.0])
        phi = pure([0.5, 0.3, 0.2])
        assert tr.max_conversion_probability(psi, phi) == pytest.approx(0.0)

    def test_probability_one_iff_majorized(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            d = 2 + trial % 4
            psi = pure(rng.dirichlet(np.ones(d)))
            phi = pure(rng.dirichlet(np.ones(d)))
            p_star = tr.max_conversion_probability(psi, phi)
            majorized = tr.majorizes(schmidt_vector(phi), schmidt_vector(psi)).holds
            assert (p_star >= 1.0 - 1e-12) == majorized

    def test_multi_outcome_consistency_at_p_star(self):
        rng = np.random.default_rng(12)
        checked = 0
        trial = 0
        while checked < 25:
            trial += 1
            d = 3 + trial % 2
            psi = pure(rng.dirichlet(np.ones(d)))
            phi = pure(rng.dirichlet(np.ones(d)))
            p_star = tr.max_conversion_probability(psi, phi)
            if p_star > 1.0 - 2e-3:
                continue
            idle = pure([1.0] + [0.0] * (d - 1))
            assert tr.multi_outcome_decide(psi, [(p_star, phi), (1.0 - p_star, idle)])
            assert not tr.multi_outcome_decide(
                psi, [(p_star + 1e-3, phi), (1.0 - p_star - 1e-3, idle)]
            )
            checked += 1


class TestMioQubitPure:
    BOUNDARY_Q = np.array([8.0 / 9.0, 1.0 / 18.0, 1.0 / 18.0])

    def test_boundary_is_feasible(self):
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], self.BOUNDARY_Q)
        assert dec.verdict
        witness = dec.witness
        assert ch.is_mio(witness)
        plus = pure([0.5, 0.5])
        out = ch.apply(witness, plus.to_density())
        target = pure(self.BOUNDARY_Q).to_density()
        assert np.max(np.abs(out.mat - target.mat)) < 1e-8

    def test_above_boundary_fails(self):
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], [0.5, 0.25, 0.25])
        assert not dec.verdict
        assert dec.violation["monotone"] == "sqrt_sum"

    def test_non_uniform_source_fails(self):
        dec = tr.mio_qubit_pure_decide([0.6, 0.4], self.BOUNDARY_Q)
        assert not dec.verdict
        assert dec.violation["monotone"] == "uniform_source"

    def test_uniform_source_record_shows_the_violation(self):
        # the record is |p_0 - p_1| against 2e-12, the inequality tested
        violation = tr.mio_qubit_pure_decide([0.5, 0.5 + 5e-10], [0.9, 0.05, 0.05]).violation
        assert violation["monotone"] == "uniform_source"
        assert violation["lhs"] == pytest.approx(5e-10)
        assert violation["rhs"] == 2e-12 < violation["lhs"]

    def test_construct_rejects_over_boundary(self):
        with pytest.raises(ValueError):
            tr.mio_qubit_pure_construct([0.5, 0.5], np.ones(3) / 3.0)

    def test_small_epsilon_limit(self):
        eps = 1e-3
        q = np.array([1.0 - 2 * eps, eps, eps])
        witness = tr.mio_qubit_pure_construct([0.5, 0.5], q)
        out = ch.apply(witness, pure([0.5, 0.5]).to_density())
        assert mo.c_l1(out).value < 0.2

    def test_schmidt_rank_increases(self):
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], self.BOUNDARY_Q)
        out = ch.apply(dec.witness, pure([0.5, 0.5]).to_density())
        assert int(np.sum(np.diag(out.mat).real > 1e-9)) == 3

    @pytest.mark.parametrize(
        "q, n_ops",
        [((0.5, 0.5, 0.0), 2), ((1.0, 0.0, 0.0), 2), ((0.0, 0.9, 0.05, 0.05), 4),
         ((0.6, 0.4, 0.0, 0.0), 3)],
    )
    def test_zero_entries_get_a_verified_witness(self, q, n_ops):
        # a zero amplitude leaves its operator all zero, and it is dropped;
        # (1/2, 1/2, 0) sits on the boundary, so its completing operator goes too
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], q)
        assert dec.verdict and len(dec.witness) == n_ops
        assert ch.is_mio(dec.witness)
        tr._verify_witness(dec.witness, pure([0.5, 0.5]).to_density(), pure(q).to_density())

    def test_rejects_low_dimension_target(self):
        with pytest.raises(ValueError):
            tr.mio_qubit_pure_decide([0.5, 0.5], [0.5, 0.5])

    def test_inside_the_slack_gets_a_witness(self):
        # the radicand 1 - s^2/2 is -1.26e-12 here; it is clamped at 0
        q = mio_target(8.9e-13)
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], q)
        assert dec.verdict
        out = ch.apply(dec.witness, pure([0.5, 0.5]).to_density())
        assert np.max(np.abs(out.mat - pure(q).to_density().mat)) < 1e-8
        assert len(tr.mio_qubit_pure_construct([0.5, 0.5], q)) == 3

    def test_past_the_slack_is_refused(self):
        dec = tr.mio_qubit_pure_decide([0.5, 0.5], mio_target(1.1e-12))
        assert not dec.verdict and dec.violation["monotone"] == "sqrt_sum"
        assert dec.violation["lhs"] - dec.violation["rhs"] == pytest.approx(1.1e-12, abs=1e-15)
        with pytest.raises(tr.InfeasibleTransformError, match="exceeds sqrt"):
            tr.mio_qubit_pure_construct([0.5, 0.5], mio_target(1.1e-12))


class TestQubitDecide:
    def test_spec_pair(self):
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        sigma = DensityMatrix([[0.8, 0.2], [0.2, 0.2]])
        dec = tr.qubit_decide(rho, sigma)
        assert dec.verdict
        assert ch.is_sio_rep(dec.witness)

    def test_robustness_violation(self):
        rho = DensityMatrix([[0.8, 0.2], [0.2, 0.2]])
        sigma = DensityMatrix([[0.5, 0.3], [0.3, 0.5]])
        dec = tr.qubit_decide(rho, sigma)
        assert not dec.verdict
        assert dec.violation["monotone"] == "c_r"
        assert dec.violation["lhs"] == pytest.approx(0.4)
        assert dec.violation["rhs"] == pytest.approx(0.6)

    def test_reflexive(self):
        rho = random_density(2, 3)
        assert tr.qubit_decide(rho, rho).verdict

    def test_partial_dephasing_targets_are_reachable(self):
        rho = random_density(2, 8)
        for lam in (0.2, 0.7):
            dec = tr.qubit_decide(rho, partial_dephase(rho, lam))
            assert dec.verdict

    def test_invariant_under_incoherent_unitaries(self):
        rng = np.random.default_rng(31)
        rho, sigma = random_density(2, 21), random_density(2, 22)
        base = tr.qubit_decide(rho, sigma).verdict
        for _ in range(5):
            u = ch.random_incoherent_unitary(2, rng)
            v = ch.random_incoherent_unitary(2, rng)
            rho2 = DensityMatrix(u @ rho.mat @ u.conj().T)
            sigma2 = DensityMatrix(v @ sigma.mat @ v.conj().T)
            assert tr.qubit_decide(rho2, sigma2).verdict == base

    def test_certificate_consistency_on_samples(self):
        for seed in range(60):
            rho = random_density(2, seed)
            sigma = random_density(2, seed + 900)
            dec = tr.qubit_decide(rho, sigma)
            if dec.verdict:
                out = ch.apply(dec.witness, rho)
                assert np.max(np.abs(out.mat - sigma.mat)) < 1e-8
            else:
                assert dec.violation["lhs"] < dec.violation["rhs"] - 1e-9


class TestQubitConstruct:
    def test_peak_target_needs_single_stage(self):
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        p, q = 0.5, 0.8
        t_peak = 0.5 * math.sqrt(q * (1 - q) / (p * (1 - p)))
        sigma = DensityMatrix([[q, t_peak], [t_peak, 1 - q]])
        witness = tr.qubit_construct(rho, sigma)
        assert len(witness.kraus) == 2  # no dephasing stage appended
        out = ch.apply(witness, rho)
        assert np.max(np.abs(out.mat - sigma.mat)) < 1e-10

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            tr.qubit_construct(
                DensityMatrix([[0.8, 0.2], [0.2, 0.2]]),
                DensityMatrix([[0.5, 0.3], [0.3, 0.5]]),
            )

    def test_gauges_are_composed(self):
        rho = DensityMatrix(np.array([[0.3, 0.1j], [-0.1j, 0.7]]))
        sigma = DensityMatrix(np.array([[0.6, -0.05], [-0.05, 0.4]]))
        dec = tr.qubit_decide(rho, sigma)
        assert dec.verdict
        out = ch.apply(dec.witness, rho)
        assert np.max(np.abs(out.mat - sigma.mat)) < 1e-8


class TestPioPure:
    def test_unitary_equivalence_single_block(self):
        rng = np.random.default_rng(41)
        phi = random_pure(4, 13)
        u = ch.random_incoherent_unitary(4, rng)
        psi = PureStateVector(u @ phi.amps)
        dec = tr.pio_pure_decide(psi, phi)
        assert dec.verdict
        assert pio_blocks(dec.witness, psi) == [[0, 1, 2, 3]]
        assert ch.is_pio_rep(dec.witness)

    def test_uniform_four_to_uniform_two(self):
        psi = PureStateVector(np.ones(4) / 2.0)
        phi = PureStateVector(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
        dec = tr.pio_pure_decide(psi, phi)
        assert dec.verdict
        assert sorted(pio_blocks(dec.witness, psi)) == [[0, 1], [2, 3]]
        out = ch.apply(dec.witness, psi.to_density())
        assert np.max(np.abs(out.mat - phi.to_density().mat)) < 1e-10

    def test_disproportionate_pair_fails(self):
        dec = tr.pio_pure_decide(pure([0.7, 0.3]), pure([0.5, 0.5]))
        assert not dec.verdict

    def test_support_size_obstruction(self):
        dec = tr.pio_pure_decide(pure([0.5, 0.3, 0.2]), pure([0.5, 0.5, 0.0]))
        assert not dec.verdict
        assert dec.violation["reason"] == "support sizes incompatible"
        assert dec.violation["source_support"] == [0, 1, 2]
        assert dec.violation["target_support"] == [0, 1]

    def test_failed_partition_names_the_missing_modulus(self):
        # moduli 0.6, 0.6, 0.3, 0.3 against the profile 2:1 pair up, but 0.6,
        # 0.5, 0.3, 0.2 do not: 0.6 heads a block that needs 0.3, then 0.5
        # heads one that needs 0.25
        psi = PureStateVector(np.array([0.6, 0.5, 0.3, 0.2]) / math.sqrt(0.74))
        phi = PureStateVector(np.array([2.0, 1.0, 0.0, 0.0]) / math.sqrt(5.0))
        dec = tr.pio_pure_decide(psi, phi)
        assert not dec.verdict
        record = dec.violation
        assert record["reason"] == "no proportional block partition"
        assert record["profile"] == sorted(np.abs(phi.amps[:2]), reverse=True)
        assert record["top"] == pytest.approx(0.5 / math.sqrt(0.74), abs=1e-15)
        expected = record["top"] * record["profile"][1] / record["profile"][0]
        assert record["missing"] == pytest.approx(expected, rel=1e-15)
        # the record checks against the state: no remaining modulus is the missing one
        assert np.min(np.abs(np.abs(psi.amps) - record["missing"])) > 1e-9
        assert json.loads(json.dumps(record)) == record

    def test_two_block_weighted_partition(self):
        # support splits as {0,1} and {2,3} with weights 0.64 and 0.36
        psi = pure([0.64 * 0.5, 0.64 * 0.5, 0.36 * 0.5, 0.36 * 0.5])
        phi = pure([0.5, 0.5, 0.0, 0.0])
        dec = tr.pio_pure_decide(psi, phi)
        assert dec.verdict
        blocks = pio_blocks(dec.witness, psi)
        assert sorted(map(sorted, blocks)) == [[0, 1], [2, 3]]
        weights = sorted((np.sum(psi.probs[b]) for b in blocks), reverse=True)
        assert weights == pytest.approx([0.64, 0.36])

    @pytest.mark.parametrize("d", [16, 64])
    def test_witness_structure_checked_at_every_d(self, d, monkeypatch):
        # psi: d/4 - 1 blocks, each proportional to phi's 4 amplitudes; the
        # last 4 basis states are the complement
        rng = np.random.default_rng(d)
        profile = rng.random(4) + 0.5
        phi_amps = np.zeros(d, dtype=complex)
        phi_amps[rng.choice(d, 4, replace=False)] = profile * np.exp(2j * np.pi * rng.random(4))
        psi_amps = np.zeros(d, dtype=complex)
        order = rng.permutation(d)
        for b, w in enumerate(rng.dirichlet(np.ones(d // 4 - 1))):
            block = order[4 * b : 4 * b + 4]
            psi_amps[block] = math.sqrt(w) * profile * np.exp(2j * np.pi * rng.random(4))
        psi = PureStateVector(psi_amps / np.linalg.norm(psi_amps))
        phi = PureStateVector(phi_amps / np.linalg.norm(phi_amps))
        dec = tr.pio_pure_decide(psi, phi)
        assert dec.verdict
        assert len(dec.witness) == d // 4

        # one block operator split into two halves: the same channel, so the
        # output check passes, but no longer one PIO group
        make_channel = tr.KrausChannel

        def split_first(ops, **kwargs):
            half = np.asarray(ops[0]) / math.sqrt(2.0)
            return make_channel([half, half, *ops[1:]], **kwargs)

        split = split_first(list(dec.witness.kraus))
        tr._verify_witness(split, psi.to_density(), phi.to_density())
        monkeypatch.setattr(tr, "KrausChannel", split_first)
        with pytest.raises(ArithmeticError, match="projective form"):
            tr.pio_pure_decide(psi, phi)
