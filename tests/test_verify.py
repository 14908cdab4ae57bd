import pytest

from posetgeo import lattice_1p1, verify
from posetgeo.errors import MixedConfiguration
from posetgeo.projection import Projector


def _raise(exc):
    def simplex_table(*args, **kwargs):
        raise exc

    return simplex_table


def test_simplex_library_error_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(verify, "simplex_table", _raise(MixedConfiguration("mixed")))
    report = verify.suite_simplex()
    assert not report.passed
    assert all("MixedConfiguration" in r.value for r in report.results)


def test_simplex_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(verify, "simplex_table", _raise(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        verify.suite_simplex()


def test_replay_over_triples_matches_replay_over_fences():
    """A chain sequence replays iff each of its consecutive triples does,
    on every window of lattice_1p1(6, 20) and on each window with two
    neighbouring chains swapped."""
    bundle = lattice_1p1(6, 20)
    chains = list(bundle.chains)
    pr = Projector(bundle.poset)
    verdicts = []
    for lo in range(len(chains)):
        for hi in range(lo + 2, len(chains)):
            window = chains[lo : hi + 1]
            swapped = [window[:i] + [window[i + 1], window[i]] + window[i + 2 :]
                       for i in range(len(window) - 1)]
            for seq in [window] + swapped:
                whole = verify.fence_projection_replay(pr, seq)
                by_triple = all(verify.fence_projection_replay(pr, seq[i : i + 3])
                                for i in range(len(seq) - 2))
                assert whole == by_triple
                verdicts.append(whole)
    assert True in verdicts and False in verdicts


def test_replay_rejects_swapped_chain():
    bundle = lattice_1p1(6, 20)
    c0, c1, c2 = bundle.chains[:3]
    pr = Projector(bundle.poset)
    assert verify.fence_projection_replay(pr, [c0, c1, c2])
    assert not verify.fence_projection_replay(pr, [c0, c2, c1])


def test_parallel_replays_every_triple_of_every_fence(monkeypatch):
    fences, replayed = [], []

    def validate_fence(pr, chains):
        fences.append([c.chain_id for c in chains])
        return real_validate(pr, chains)

    def replay(pr, chains):
        replayed.append(tuple(c.chain_id for c in chains))
        return real_replay(pr, chains)

    real_validate, real_replay = verify.validate_fence, verify.fence_projection_replay
    monkeypatch.setattr(verify, "validate_fence", validate_fence)
    monkeypatch.setattr(verify, "fence_projection_replay", replay)
    report = verify.suite_parallel(trials=200, width=8)
    assert report.passed
    triples = {tuple(f[i : i + 3]) for f in fences for i in range(len(f) - 2)}
    assert sorted(replayed) == sorted(triples)
