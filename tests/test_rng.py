import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lurwit.rng import keyed_draws, stream
from lurwit.states import haar_rotated_bell_states


def test_same_key_gives_identical_bits():
    a = stream(42, 7).standard_normal(32)
    b = stream(42, 7).standard_normal(32)
    assert np.array_equal(a, b)


def test_different_tasks_give_different_streams():
    a = stream(42, 0).standard_normal(32)
    b = stream(42, 1).standard_normal(32)
    assert not np.array_equal(a, b)


def test_tasks_are_order_independent():
    # drawing from one stream must not advance another
    g0 = stream(9, 0)
    before = stream(9, 1).standard_normal(8)
    g0.standard_normal(1000)
    after = stream(9, 1).standard_normal(8)
    assert np.array_equal(before, after)


KEYS = [0, 1, 2**64 - 1, 2**64 + 5, -1, -(2**64) - 3]


def _normal_pair(g):
    return g.standard_normal((2, 4))


@pytest.mark.parametrize("seed", KEYS)
def test_keyed_draws_equal_fresh_streams(seed):
    got = keyed_draws(seed, KEYS, _normal_pair)
    want = [_normal_pair(stream(seed, t)) for t in KEYS]
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _numpy_forms(key: int) -> list:
    """The numpy ints of `key`'s value mod 2**64: uint64, and int64 where `key` fits."""
    forms = [np.uint64(key % 2**64)]
    if -(2**63) <= key < 2**63:
        forms.append(np.int64(key))
    return forms


def test_numpy_int_keys_give_the_python_int_streams():
    np_tasks = [form for t in KEYS for form in _numpy_forms(t)]
    for seed in KEYS:
        want = [_normal_pair(stream(seed, t)) for t in KEYS for _ in _numpy_forms(t)]
        for np_seed in _numpy_forms(seed):
            for got in (
                [_normal_pair(stream(np_seed, t)) for t in np_tasks],
                keyed_draws(np_seed, np_tasks, _normal_pair),
            ):
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_numpy_index_arrays_give_the_range_haar_stack():
    _, want = haar_rotated_bell_states("psi-", 3, range(5))
    for seed in (3, np.uint64(3), np.int64(3)):
        _, got = haar_rotated_bell_states("psi-", seed, np.arange(5))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "seed, task", [(3.7, 0), (3.0, 0), (3, 1.0), (np.float64(3.0), 0)], ids=["3.7", "3.0", "task", "numpy"]
)
def test_float_keys_raise_type_error(seed, task):
    with pytest.raises(TypeError):
        stream(seed, task)
    with pytest.raises(TypeError):
        keyed_draws(seed, [task], _normal_pair)


@pytest.mark.parametrize(
    "draw",
    [
        # an odd count of 32-bit integers leaves a buffered half-word behind
        lambda g: (g.integers(0, 2**32, size=3, dtype=np.uint32), g.standard_normal(5)),
        lambda g: (g.multinomial(1000, [0.2, 0.3, 0.5]), g.standard_normal(5)),
    ],
    ids=["half-word", "multinomial"],
)
def test_keyed_draws_do_not_leak_between_keys(draw):
    tasks = [3, 3, 4, 3]  # the repeats follow a draw under the same or another key
    got = keyed_draws(11, tasks, draw)
    for t, parts in zip(tasks, got):
        for a, b in zip(parts, draw(stream(11, t))):
            assert np.array_equal(a, b)


def test_keyed_draws_reject_a_changed_state_layout(monkeypatch):
    class RenamedCounter(np.random.Philox):
        @property
        def state(self):
            state = super().state
            state["state"]["ctr"] = state["state"].pop("counter")
            return state

    monkeypatch.setattr(np.random, "Philox", RenamedCounter)
    with pytest.raises(RuntimeError, match="Philox state layout has changed"):
        keyed_draws(0, [0], _normal_pair)


def test_keyed_draws_reuse_one_generator_across_calls():
    # returning the Generator breaks the rule for `draw`; here it shows which one ran
    first = keyed_draws(1, [0], lambda g: g)
    again = keyed_draws(2, [0, 1], lambda g: g)
    assert first[0] is again[0] is again[1]


def test_nested_keyed_draws_use_their_own_generator():
    # the inner call re-keys a Philox while the outer task still draws after it
    def outer(g):
        inner = keyed_draws(5, [1, 2], _normal_pair)
        return g.standard_normal(3), inner, g

    got = keyed_draws(4, [0, 7], outer)
    for t, (normals, inner, g) in zip([0, 7], got):
        assert np.array_equal(normals, stream(4, t).standard_normal(3))
        assert all(np.array_equal(a, _normal_pair(stream(5, u))) for u, a in zip([1, 2], inner))
    assert got[0][2] is got[1][2]


def test_keyed_draws_in_threads_equal_fresh_streams():
    # more threads than cores and a short switch interval: two calls that shared
    # one Philox would re-key it under each other's draws
    def draw(g):
        return g.standard_normal(2), g.integers(0, 2**32, size=3, dtype=np.uint32), g.standard_normal(2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(keyed_draws, seed, range(30), draw) for seed in range(60)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, got in enumerate(results):
        for t, parts in enumerate(got):
            assert all(np.array_equal(a, b) for a, b in zip(parts, draw(stream(seed, t))))
