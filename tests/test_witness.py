"""Every decider's witness is built and checked in one place: ``transforms._witness``.

These tests pin what each decider returns on seeded inputs (its verdict, and
its witness's bytes or its violation record), check that each construction's
class test fires when its operators are mixed by a coherent rotation, that an
operator set off trace preservation by more than ``CPTP_TOL`` is refused, and
that no construction grows a witness check of its own again.
"""

import ast
import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coherence_kit import channels as ch
from coherence_kit import covariance as cov
from coherence_kit import numerics, states
from coherence_kit import transforms as tr
from coherence_kit.states import PureStateVector, partial_dephase, random_density
from linalg_checks import reference_sio_stack


def _pure(probs, rng) -> PureStateVector:
    amps = np.sqrt(np.asarray(probs, dtype=float))
    return PureStateVector(amps * np.exp(2j * np.pi * rng.random(amps.size)))


def _sio_pairs():
    """Pure pairs with 2 <= d_in, d_out <= 12, unequal in three of four; two
    in three have a target majorizing the source (its sorted probabilities,
    the tail folded into the top entry or zero-padded, mixed with e_0)."""
    rng = np.random.default_rng(2029)
    for trial in range(120):
        d_in = int(rng.integers(2, 13))
        d_out = d_in if trial % 4 == 0 else int(rng.integers(2, 13))
        p = rng.dirichlet(np.ones(d_in))
        if trial % 3 == 2:
            q = rng.dirichlet(np.ones(d_out))
        else:
            s = np.sort(p)[::-1]
            if d_out < d_in:
                s = np.concatenate([[s[0] + s[d_out:].sum()], s[1:d_out]])
            s = np.pad(s, (0, d_out - s.size))
            w = rng.random()
            q = ((1.0 - w) * s + w * np.eye(d_out)[0])[rng.permutation(d_out)]
        yield _pure(p, rng), _pure(q, rng)


def _mio_pairs():
    """The uniform qubit source, exact or read off |+>, against targets of
    dimension 3 to 6, a third of them with zero amplitudes."""
    rng = np.random.default_rng(2030)
    plus = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0)).probs
    for q in ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.9, 0.05, 0.05], [0.6, 0.4, 0.0, 0.0]):
        yield [0.5, 0.5], q
    for trial in range(80):
        d = 3 + trial % 4
        q = rng.dirichlet([40.0] + [1.0] * (d - 1) if trial % 2 else np.ones(d))
        if trial % 3 == 0:
            q[rng.choice(d, int(rng.integers(1, d - 1)), replace=False)] = 0.0
            q /= q.sum()
        yield (plus if trial % 2 else [0.5, 0.5]), q


def _qubit_pairs():
    for seed in range(60):
        rho, sigma = random_density(2, 700 + seed), random_density(2, 800 + seed)
        if seed % 3 == 0:
            sigma = partial_dephase(rho, 0.4)
        yield rho, sigma


def _pio_pairs():
    """At d = 16 and 64: sources split into 1 to d / n blocks proportional to
    the target's n moduli, the rest of the basis left out; one in four has
    one modulus moved by 10%."""
    for d in (16, 64):
        rng = np.random.default_rng(2031 + d)
        for trial in range(12):
            n = (2, 4, 8)[trial % 3]
            profile = rng.random(n) + 0.5
            phi = np.zeros(d, dtype=complex)
            phi[rng.choice(d, n, replace=False)] = profile * np.exp(2j * np.pi * rng.random(n))
            psi = np.zeros(d, dtype=complex)
            order = rng.permutation(d)
            blocks = 1 + int(rng.integers(d // n))
            for b, w in enumerate(rng.dirichlet(np.ones(blocks))):
                psi[order[n * b : n * b + n]] = (
                    math.sqrt(w) * profile * np.exp(2j * np.pi * rng.random(n))
                )
            if trial % 4 == 3:
                psi[order[0]] *= 1.1
            psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
            yield PureStateVector(psi), PureStateVector(phi)


def _n_covariant_pairs():
    """At d = 3 to 8: two in three targets are images under a sampled
    diagonal-unitary-covariant channel, the rest random states."""
    for trial in range(36):
        d = 3 + trial % 6
        rho = random_density(d, 900 + trial)
        if trial % 3:
            channel = cov.random_n_covariant_channel(d, np.random.default_rng(trial))
            sigma = ch.apply(channel, rho)
        else:
            sigma = random_density(d, 950 + trial)
        yield rho, sigma


DECIDERS = {
    "sio": (tr.sio_pure_decide, _sio_pairs),
    "mio-pure": (tr.mio_qubit_pure_decide, _mio_pairs),
    "qubit": (tr.qubit_decide, _qubit_pairs),
    "pio": (tr.pio_pure_decide, _pio_pairs),
    "n-covariant": (cov.n_feasible, _n_covariant_pairs),
}


def _digest(name) -> tuple:
    """sha256 over each decision's verdict and witness bytes or violation
    record, with the number of positive verdicts."""
    decide, pairs = DECIDERS[name]
    digest, positive = hashlib.sha256(), 0
    for source, target in pairs():
        dec = decide(source, target)
        if dec.verdict:
            positive += 1
            k = dec.witness.kraus
            digest.update(b"witness" + repr(k.shape).encode() + k.tobytes())
        else:
            digest.update(b"violation" + json.dumps(dec.violation, sort_keys=True).encode())
    return digest.hexdigest(), positive


# taken before the constructions returned through ``_witness``; "sio" was
# re-pinned when its operators stopped going through dense sorting gauges
# (entries moved by at most 1.6e-16, see ``test_sio_stack_matches_the_dense_gauge_reference``),
# and again when the d_in > d_out fold stopped going through a dense product
# (five stacks lost the sign of some zero entries, -0.0 -> 0.0)
PINNED = {
    "sio": ("0a815f1f55cfc44f8071af43b51624a5d65e35ff3730a972340d6e7c71b98f5a", 95),
    "mio-pure": ("91cf9f2a07c7db7ccbe4c95257a34f90f21c274a6c0a9265a54f33b9aba0f92c", 32),
    "qubit": ("5055bf590ba58044a63f5ccbe31166e15401e64a2763ec86d18b22e0e80f2c46", 37),
    "pio": ("e23c7b241ca503dd2312f24f9416c2ff0479e305ec78f81099b3a30efa7e3740", 18),
    "n-covariant": ("56d6f22ca2e829a6baf7d124974203d196b7476ae728a91be88ea86c26bad6a7", 24),
}


@pytest.mark.parametrize("name", DECIDERS)
def test_witnesses_and_violations_are_pinned(name):
    assert _digest(name) == PINNED[name]


# ---------------------------------------------------------------------------
# Each construction's class test and the trace check fire inside ``_witness``.
# ---------------------------------------------------------------------------


def _pure_pair(source, target):
    def pair():
        return _pure(source, np.random.default_rng(1)), _pure(target, np.random.default_rng(2))

    return pair


def _n_covariant_pair():
    rho = random_density(3, 1)
    return rho, ch.apply(cov.random_n_covariant_channel(3, np.random.default_rng(2)), rho)


# construction -> (its decider, a feasible input)
FEASIBLE = {
    "sio": (tr.sio_pure_decide, _pure_pair([0.5, 0.3, 0.2], [0.8, 0.1, 0.1])),
    "sio, 3 -> 2": (tr.sio_pure_decide, _pure_pair([0.5, 0.3, 0.2], [0.8, 0.2])),
    "sio, 2 -> 3": (tr.sio_pure_decide, _pure_pair([0.5, 0.5], [1.0, 0.0, 0.0])),
    "qubit": (tr.qubit_decide, lambda: next(_qubit_pairs())),
    "mio-pure": (tr.mio_qubit_pure_decide, lambda: ([0.5, 0.5], [0.9, 0.05, 0.05])),
    "pio": (tr.pio_pure_decide, _pure_pair([0.32, 0.08, 0.48, 0.12], [0.8, 0.2, 0.0, 0.0])),
    "n-covariant": (cov.n_feasible, _n_covariant_pair),
}


def _patched(monkeypatch, change):
    """Make ``_witness`` build its channel from ``change(ops)``."""
    make = tr.KrausChannel
    monkeypatch.setattr(tr, "KrausChannel", lambda ops: make(change(np.asarray(ops))))


@pytest.mark.parametrize("name", FEASIBLE)
def test_class_test_fires_on_a_coherently_rotated_witness(name, monkeypatch):
    decide, pair = FEASIBLE[name]
    assert decide(*pair()).verdict
    rot = np.eye(np.asarray(decide(*pair()).witness.kraus).shape[1], dtype=complex)
    c, s = math.cos(0.3), math.sin(0.3)
    rot[:2, :2] = [[c, -s], [s, c]]
    # a unitary on the output keeps the sum rule, so only the class test can refuse
    _patched(monkeypatch, lambda ops: rot @ ops)
    with pytest.raises(ArithmeticError, match="^constructed witness lost "):
        decide(*pair())


@pytest.mark.parametrize("name", FEASIBLE)
def test_trace_defect_above_cptp_tol_is_refused(name, monkeypatch):
    decide, pair = FEASIBLE[name]
    # a defect of 3e-9 passed the 1e-8 trace check the SIO, qubit, PIO and
    # N-covariant witnesses had; 0.5e-9 passes CPTP_TOL = 1e-9
    _patched(monkeypatch, lambda ops: ops * math.sqrt(1.0 + 0.5e-9))
    assert decide(*pair()).verdict
    _patched(monkeypatch, lambda ops: ops * math.sqrt(1.0 + 3e-9))
    with pytest.raises(ValueError, match="not trace preserving"):
        decide(*pair())


@pytest.mark.parametrize("name", ["sio", "sio, 3 -> 2", "sio, 2 -> 3", "mio-pure", "pio"])
def test_a_pure_decision_factorizes_only_the_witness_output(name, monkeypatch):
    decide, pair = FEASIBLE[name]
    args = pair()
    shapes, eig_hermitian = [], numerics.eig_hermitian

    def counted(m):
        shapes.append(np.shape(m))
        return eig_hermitian(m)

    for module in (numerics, states, ch, tr):
        monkeypatch.setattr(module, "eig_hermitian", counted, raising=False)
    dec = decide(*args)
    assert dec.verdict
    # ``_witness_output`` validates the output; the decider's pure states
    # are read through their ``amps`` and ``mat`` and never validated as
    # density matrices
    assert shapes == [(1, dec.witness.dout, dec.witness.dout)]


# ---------------------------------------------------------------------------
# The output check: one Gram product, and it refuses a missed target.
# ---------------------------------------------------------------------------

PLUS = PureStateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))


@pytest.mark.parametrize("name", DECIDERS)
def test_gram_output_is_the_operator_sum(name):
    decide, pairs = DECIDERS[name]
    checked = 0
    for source, target in pairs():
        dec = decide(source, target)
        if dec.verdict:
            state = PLUS if name == "mio-pure" else source
            got = tr._witness_output(dec.witness, state).mat
            assert np.abs(got - ch.apply(dec.witness, state).mat).max() <= 1e-15
            checked += 1
    assert checked == PINNED[name][1]


def test_a_pure_witness_missing_its_target_is_refused():
    psi, phi = FEASIBLE["sio"][1]()
    witness = tr.sio_pure_decide(psi, phi).witness
    tr._verify_witness(witness, psi, phi)
    permuted = PureStateVector(phi.amps[[1, 0, 2]])
    with pytest.raises(ArithmeticError, match="^witness output misses the target by "):
        tr._verify_witness(witness, psi, permuted)


def test_a_density_witness_missing_its_target_is_refused():
    rho, sigma = next(_qubit_pairs())
    witness = tr.qubit_decide(rho, sigma).witness
    tr._verify_witness(witness, rho, sigma)
    with pytest.raises(ArithmeticError, match="^witness output misses the target by "):
        tr._verify_witness(witness, rho, random_density(2, 5))


def _sio_tied_pairs():
    """Pure pairs at d_in, d_out in {2, 5, 16, 33, 64}, unequal in two of
    three, with moduli drawn from four levels (ties and zero amplitudes); the
    target is the source's sorted probabilities, folded or padded and mixed
    with e_0 by w in {0, 1/2, random}, or, one in four, a random vector."""
    rng = np.random.default_rng(2033)
    dims = (2, 5, 16, 33, 64)
    for trial in range(40):
        d_in = int(rng.choice(dims))
        d_out = d_in if trial % 3 == 0 else int(rng.choice(dims))
        p = rng.integers(0, 4, d_in).astype(float)
        p[rng.integers(d_in)] += 1.0
        p /= p.sum()
        if trial % 4 == 3:
            q = rng.integers(0, 4, d_out).astype(float)
            q[0] += 1.0
        else:
            s = np.sort(p)[::-1]
            if d_out < d_in:
                s = np.concatenate([[s[0] + s[d_out:].sum()], s[1:d_out]])
            s = np.pad(s, (0, d_out - s.size))
            w = (0.0, 0.5, rng.random())[trial % 3]
            q = ((1.0 - w) * s + w * np.eye(d_out)[0])[rng.permutation(d_out)]
        yield _pure(p, rng), _pure(q / q.sum(), rng)


def _sio_folded_pairs():
    """Sources of dimension 64 and 32 against targets of dimension 2 and 5,
    where the fold keeps few of its composites: majorized targets (the
    source's sorted probabilities with the tail folded into the top entry,
    mixed with e_0) and one uniform target the source does not reach."""
    rng = np.random.default_rng(2034)
    for d_in, d_out in ((64, 2), (32, 5)):
        for trial in range(4):
            p = rng.dirichlet(np.ones(d_in) if trial % 2 else np.full(d_in, 0.2))
            s = np.sort(p)[::-1]
            s = np.concatenate([[s[0] + s[d_out:].sum()], s[1:d_out]])
            w = (0.0, 0.5, rng.random(), 1.0)[trial]
            q = ((1.0 - w) * s + w * np.eye(d_out)[0])[rng.permutation(d_out)]
            yield _pure(p, rng), _pure(q, rng)
    yield _pure(np.eye(32)[0], rng), _pure(np.full(5, 0.2), rng)


@pytest.mark.parametrize("pairs", [_sio_pairs, _sio_tied_pairs, _sio_folded_pairs])
def test_sio_stack_matches_the_dense_gauge_reference(pairs):
    verdicts = set()
    for psi, phi in pairs():
        dec = tr.sio_pure_decide(psi, phi)
        failing_k, ref = reference_sio_stack(psi, phi)
        verdicts.add(dec.verdict)
        assert dec.verdict == (ref is not None)
        if not dec.verdict:
            assert dec.violation == {"failing_k": failing_k}
            continue
        got = dec.witness.kraus
        assert got.shape == ref.shape
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.abs(got - ref).max() <= 2.2e-16
    assert verdicts == {True, False}


def test_channels_take_no_tolerance_knob():
    for cls in (ch.KrausChannel, ch.ChoiMatrix):
        assert "atol" not in inspect.signature(cls).parameters


# ---------------------------------------------------------------------------
# Guard: one function builds and checks a witness.
# ---------------------------------------------------------------------------

# functions of transforms.py and covariance.py allowed to call KrausChannel
CHANNEL_BUILDERS = {
    "transforms._witness": "builds every decider's witness",
    "covariance.channel_from_n_spec": "the channel of an N-covariant spec, for the sampler",
}


def _raises_lost(tree) -> bool:
    """A raise whose exception mentions "lost" in a string or f-string."""
    return any(
        isinstance(node, ast.Raise)
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and "lost" in part.value
            for part in ast.walk(node)
        )
        for node in ast.walk(tree)
    )


def _calls_kraus_channel(tree) -> bool:
    return any(
        isinstance(node, ast.Call) and _callee(node) == "KrausChannel" for node in ast.walk(tree)
    )


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _functions_matching(test) -> set:
    """Qualified names of the module-level functions and methods of
    transforms.py and covariance.py whose body passes ``test``."""
    found = set()
    for module in (tr, cov):
        tree = ast.parse(Path(module.__file__).read_text())
        stem = Path(module.__file__).stem
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found |= {f"{stem}.{node.name}.{f.name}" for f in node.body if test(f)}
            elif test(node):
                found.add(f"{stem}.{getattr(node, 'name', '<module>')}")
    return found


def test_only_witness_raises_the_lost_error():
    assert _functions_matching(_raises_lost) == {"transforms._witness"}


def test_only_witness_and_the_spec_channel_build_channels():
    assert _functions_matching(_calls_kraus_channel) == set(CHANNEL_BUILDERS)


@pytest.mark.parametrize(
    "line",
    [
        # the checks ``_witness`` replaced, as they were written
        'raise ArithmeticError("constructed operators lost strict incoherence")',
        'raise ArithmeticError("constructed channel lost diagonal-unitary covariance")',
        'raise ArithmeticError(f"constructed witness lost {lost}")',
    ],
)
def test_guard_flags_a_lost_error(line):
    assert _raises_lost(ast.parse(line))


def test_guard_flags_a_channel_built_in_place():
    assert _calls_kraus_channel(ast.parse("channel = KrausChannel(ops, atol=WITNESS_TOL)"))
    assert _calls_kraus_channel(ast.parse("return ch.KrausChannel(ops)"))
    assert not _calls_kraus_channel(ast.parse("channel: KrausChannel = build(ops)"))
