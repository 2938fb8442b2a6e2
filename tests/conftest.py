import numpy as np
import pytest

from bigjump.laws import JointMarkSpec, TailLaw, WaitLaw


@pytest.fixture
def pareto15():
    return TailLaw("pareto", 1.0, 1.5)


@pytest.fixture
def exp_wait():
    return WaitLaw(TailLaw("exponential", 1.0))


@pytest.fixture
def mb_spec_nu2(pareto15):
    return JointMarkSpec(pareto15, "independent_light_k", k_param=2.0)


@pytest.fixture
def mb_spec_nu0(pareto15):
    return JointMarkSpec(pareto15, "independent_light_k", k_param=0.0)


@pytest.fixture
def hawkes_spec_half(pareto15):
    # phi * E[X] = (1/6) * 3 = 0.5
    return JointMarkSpec(pareto15, "independent_light_k", phi=1.0 / 6.0)


def random_jump_path(rng: np.random.Generator, max_jumps: int = 4, height: float = 5.0):
    from bigjump.paths import build_jump_path

    n = int(rng.integers(0, max_jumps + 1))
    times = rng.random(n)
    sizes = rng.random(n) * height
    return build_jump_path(times, sizes)


def edge_jump_lists(rng: np.random.Generator, n_random: int = 300):
    """(times, sizes) jump lists with the edges of a path build: the empty
    list, jumps at 0 and at 1, tied times (on a coarse grid or repeated),
    zero and signed sizes, then random lists mixing them."""
    yield np.empty(0), np.empty(0)
    yield np.array([0.0]), np.array([1.5])
    yield np.array([1.0]), np.array([2.0])
    yield np.array([0.0, 1.0]), np.array([1.0, 2.0])
    yield np.array([0.5, 0.5, 0.5]), np.array([1.0, -1.0, 0.25])
    yield np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0, -4.0])
    yield np.array([0.3]), np.array([0.0])
    for i in range(n_random):
        n = int(rng.integers(0, 40))
        times = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0], size=n) if i % 3 == 0 else rng.random(n)
        if n and i % 5 == 0:
            times[: n // 2] = rng.choice(times, n // 2)  # repeated times
        if n and i % 7 == 0:
            times[0] = 0.0
        if n and i % 11 == 0:
            times[-1] = 1.0
        sizes = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3, n) if i % 2 else rng.pareto(1.5, n)
        yield times, sizes


@pytest.fixture
def sup_exact_calls(monkeypatch):
    """(replications, jumps) of every call into the sorted ``sup_exceed`` pass."""
    from bigjump import events

    calls = []
    exact = events._sup_sorted

    def spy(rep, t, size, n, cent, x_T):
        calls.append((n, rep.size))
        return exact(rep, t, size, n, cent, x_T)

    monkeypatch.setattr(events, "_sup_sorted", spy)
    return calls
