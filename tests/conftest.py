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
