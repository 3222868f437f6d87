"""Reproducible random streams for Monte Carlo runs.

Streams are counter-based (Philox) and keyed by (seed, task), so any task in
a batch can be recomputed independently and results never depend on
execution order.

`stream` builds one Generator per key. `keyed_draws` gives the same draws for
many keys from one Generator: it re-keys a single Philox bit generator by
writing its `state` dict, which is far cheaper than constructing a new
Philox (and its SeedSequence, which draws OS entropy that the key then
overrides). The dict it writes holds Python ints, not numpy arrays: the
state setter reads the counter, key and buffer one entry at a time, and a
Python int converts faster than a numpy scalar taken out of an array. That
relies on the layout of numpy's Philox state dict, so `keyed_draws` checks
the layout of every Philox it builds and raises RuntimeError if it has
changed. It keeps one Philox idle between calls, so a call that finds it
idle builds none.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

_WORD = 2**64

# at most one idle (Philox, Generator, state dict) triple; dict pop and
# setdefault are atomic, so two threads never take the same one
_IDLE = {}

# the keys of numpy's Philox `state` dict, top level and under "state"
_PHILOX_LAYOUT = (
    frozenset({"bit_generator", "state", "buffer", "buffer_pos", "has_uint32", "uinteger"}),
    frozenset({"counter", "key"}),
)


def stream(seed: int, task: int = 0) -> np.random.Generator:
    """Generator for the (seed, task) pair; same pair, same bit stream."""
    key = np.array([seed % _WORD, task % _WORD], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyable_generator():
    """A (Philox, Generator, state dict) triple whose Philox `keyed_draws` can re-key.

    The idle triple of an earlier call if there is one and its Philox is of
    the current `np.random.Philox` class; a new one otherwise, whose state
    layout is checked before it is used.
    """
    idle = _IDLE.pop("generator", None)
    if idle is not None and type(idle[0]) is np.random.Philox:
        return idle
    bit_gen = np.random.Philox(key=0)
    state = bit_gen.state
    if (frozenset(state), frozenset(state.get("state", ()))) != _PHILOX_LAYOUT:
        raise RuntimeError(
            "numpy's Philox state layout has changed (keys "
            f"{sorted(state)} / {sorted(state.get('state', ()))}); "
            "keyed_draws cannot re-key it, so its streams would no longer match rng.stream"
        )
    state = dict(
        state,
        state={"counter": [0] * len(state["state"]["counter"]), "key": [0, 0]},
        buffer=[0] * len(state["buffer"]),
        buffer_pos=len(state["buffer"]),
        has_uint32=0,
        uinteger=0,
    )
    return bit_gen, np.random.Generator(bit_gen), state


def keyed_draws(seed: int, tasks: Iterable[int], draw: Callable[[np.random.Generator], object]) -> list:
    """`[draw(stream(seed, t)) for t in tasks]`, bit for bit, on one Generator.

    Before each task the Philox bit generator is reset to the state a fresh
    `stream(seed, t)` starts in: key (seed, t) mod 2**64, counter 0, an empty
    output buffer and no buffered half-word. So nothing drawn for one task
    reaches the next. The Philox and its Generator are kept idle between
    calls and reused; a call takes them out while it draws, so a `draw`
    that calls `keyed_draws` again, or a call in another thread, builds its
    own. So `draw` must not keep the Generator past its own call. A `draw`
    that fills a preallocated array (`standard_normal(out=...)`) writes each
    task's draws straight into it.
    """
    generator = _keyable_generator()
    bit_gen, gen, state = generator
    key = state["state"]["key"]
    key[0] = seed % _WORD
    out = []
    for t in tasks:
        key[1] = t % _WORD
        bit_gen.state = state
        out.append(draw(gen))
    _IDLE.setdefault("generator", generator)
    return out
