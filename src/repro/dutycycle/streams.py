"""Every pseudo-random node's wake-up stream, drawn as one block of arrays.

Node ``u`` of a :class:`~repro.dutycycle.schedule.WakeupSchedule` wakes in
cycle ``k`` at slot ``k*r + rng.integers(1, r + 1)``, where ``rng`` is
``np.random.default_rng(derive_seed(seed, "wakeup", u))`` and the draws
follow one another along the node's stream.  Building one numpy generator
per node costs tens of microseconds before the first draw;
:class:`WakeupStreams` instead runs numpy's own algorithms over all nodes
at once, as array operations, and reproduces every stream bit for bit:

* ``SeedSequence`` mixing (uint32 hashmix over a pool of four words) and
  PCG64 seeding turn each node's seed into its 128-bit LCG state and
  increment, held as two uint64 limbs each (:func:`pcg64_states`);
* stepping is a jump ahead: after ``j`` steps the state is
  ``M**j * s + (1 + M + ... + M**(j-1)) * inc`` (mod 2**128), so every
  ``(node, step)`` pair of a chunk is one element-wise product with a
  table of constants, not a loop over steps;
* each 64-bit XSL-RR output feeds two draws, low half first (numpy buffers
  the high half for the next 32-bit draw), and ``integers(1, r + 1)`` maps
  a 32-bit draw ``x`` to ``1 + (x * r) >> 32`` by Lemire's method.

Lemire's method rejects a draw whose low product word is below
``2**32 mod r`` and draws again, which shifts the rest of the stream.  That
happens with probability below ``r / 2**32`` per draw, so a row that hits a
rejection in a drawing pass is handed to numpy's own ``PCG64``, restored
from the row's state at the start of that pass, and that generator draws
the row's cycles from then on.  So does a row whose rate exceeds ``2**32``,
which numpy draws with 64-bit outputs.  Nodes of rate 1 draw nothing and
have no row here.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["WakeupStreams", "pcg64_states"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence (pool of four uint32 words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Rates up to 2**32 draw 32-bit halves; larger ones draw 64-bit outputs.
_MAX_HALF_RATE = 1 << 32

# Cycles in a row's first chunk.
_FIRST_CYCLES = 16

# One drawing pass covers at most this many steps of a row and about this
# many (row, step) pairs in all, which bounds its temporary arrays.
_PASS_STEPS = 1024
_PASS_PAIRS = 1 << 15


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` successive hash calls.

    Each of numpy's SeedSequence hashes xors the running constant into a
    word, then advances the constant by ``mult`` and multiplies the word by
    the new value.  The sequence does not depend on the data, so it is
    computed once, as two ``(count, 1)`` uint32 columns that broadcast
    against ``(count, nodes)`` words.
    """
    values = [init]
    for _ in range(count):
        values.append((values[-1] * mult) & _MASK32)
    column = np.array(values, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


# Four words of entropy, then every ordered pair of distinct pool words.
_MIX_XOR, _MIX_MULT = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, np.uint64): eight uint32 output words.
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the element-wise 128-bit products ``a * b``."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)


def _mul128(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise ``a * b`` mod ``2**128`` over (low, high) uint64 limbs."""
    return a_lo * b_lo, _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo


def _add128(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise ``a + b`` mod ``2**128`` over (low, high) uint64 limbs."""
    low = a_lo + b_lo
    return low, a_hi + b_hi + (low < a_lo)


def _limbs(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python ints below ``2**128`` as (low, high) uint64 limb arrays."""
    low = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    high = np.array([v >> 64 for v in values], dtype=np.uint64)
    return low, high


def pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The seeded PCG64 state of ``np.random.default_rng(seed)`` for every seed.

    ``seeds`` is a uint64 array.  Returns ``(state_lo, state_hi, inc_lo,
    inc_hi)``: the 128-bit LCG state and increment as uint64 limbs, equal
    to ``PCG64(seed).state["state"]`` before any draw.  A seed below
    ``2**32`` is one entropy word to numpy and a larger one two, but a
    missing second word hashes as a zero word, so one formula serves both.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds & _MASK32
    entropy[1] = seeds >> 32
    pool = _hash(entropy, _MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
    # Each pool word in turn is hashed once per other word and mixed into it.
    calls = _POOL_SIZE
    for source in range(_POOL_SIZE):
        targets = [target for target in range(_POOL_SIZE) if target != source]
        stop = calls + len(targets)
        hashed = _hash(pool[source], _MIX_XOR[calls:stop], _MIX_MULT[calls:stop])
        mixed = np.uint32(_MIX_MULT_L) * pool[targets] - np.uint32(_MIX_MULT_R) * hashed
        pool[targets] = mixed ^ (mixed >> np.uint32(16))
        calls = stop
    words = _hash(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MULT).astype(np.uint64)
    # generate_state(4, np.uint64) pairs the words little-endian; PCG64
    # reads the first two as the initial state and the last two as the
    # stream selector, high word first.
    init_hi, init_lo, seq_hi, seq_lo = (
        words[2 * k] | (words[2 * k + 1] << 32) for k in range(4)
    )
    inc_lo = (seq_lo << 1) | 1
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    # pcg_setseq_128_srandom_r: state = step(step(0) + initstate).
    state_lo, state_hi = _add128(inc_lo, inc_hi, init_lo, init_hi)
    mult_lo, mult_hi = _limbs([_PCG_MULT])
    state_lo, state_hi = _mul128(state_lo, state_hi, mult_lo, mult_hi)
    state_lo, state_hi = _add128(state_lo, state_hi, inc_lo, inc_hi)
    return state_lo, state_hi, inc_lo, inc_hi


@functools.cache
def _jumps() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``M**j`` and ``1 + M + ... + M**(j-1)`` (mod ``2**128``) for ``j <= _PASS_STEPS``.

    Returns ``(power_lo, power_hi, series_lo, series_hi)``; entry ``j - 1``
    serves step ``j``.  A function of PCG64's multiplier alone.
    """
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(_PASS_STEPS):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        powers.append(power)
        sums.append(total)
    return (*_limbs(powers), *_limbs(sums))


class WakeupStreams:
    """The wake-up slots of many pseudo-random nodes, one row per node.

    Row ``i`` has seed ``seeds[i]`` and cycle rate ``rates[i] >= 2``;
    ``slots[i, k]`` is its active slot in cycle ``k`` (slots
    ``[k*r + 1, (k+1)*r]``), and only its first ``drawn[i]`` cycles are
    valid.  When a query needs a cycle past a row's end, every row grows to
    at least twice its length (16 cycles at first), so rows that started
    together stay in lockstep, one chunk of array operations extends them
    all, and a schedule grows in a logarithmic number of chunks.
    """

    __slots__ = (
        "_rates", "_rate_list", "_threshold", "_state_lo", "_state_hi",
        "_inc_lo", "_inc_hi", "_numpy", "_slots", "_drawn",
    )

    def __init__(self, seeds: Sequence[int], rates: Sequence[int]) -> None:
        self._rate_list = [int(r) for r in rates]
        self._rates = np.array(self._rate_list, dtype=np.int64)
        self._state_lo, self._state_hi, self._inc_lo, self._inc_hi = pcg64_states(
            np.array(seeds, dtype=np.uint64)
        )
        # Lemire rejects a draw whose low product word is below 2**32 mod r.
        self._threshold = (_MAX_HALF_RATE % np.minimum(self._rates, _MAX_HALF_RATE)).astype(
            np.uint64
        )
        # Rows drawn by numpy's own generator (see the module docstring).
        self._numpy: dict[int, np.random.Generator] = {
            row: self._restore(row)
            for row in np.flatnonzero(self._rates > _MAX_HALF_RATE).tolist()
        }
        self._slots = np.zeros((len(self._rate_list), 0), dtype=np.int64)
        self._drawn = [0] * len(self._rate_list)

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def _cycle(self, row: int, cycle: int) -> int:
        """The active slot of ``row`` in ``cycle``, drawing ahead if needed."""
        if cycle >= self._drawn[row]:
            need = np.zeros(len(self._drawn), dtype=np.int64)
            need[row] = cycle + 1
            self._grow(need)
        return self._slots.item(row, cycle)

    def is_active(self, row: int, slot: int) -> bool:
        return self._cycle(row, (slot - 1) // self._rate_list[row]) == slot

    def next_active(self, row: int, slot: int) -> int:
        """The smallest active slot of ``row`` that is >= ``slot``."""
        cycle = (slot - 1) // self._rate_list[row]
        active = self._cycle(row, cycle)
        return active if active >= slot else self._cycle(row, cycle + 1)

    def active_slots_until(self, row: int, horizon: int) -> list[int]:
        last = (horizon - 1) // self._rate_list[row]
        self._cycle(row, last)
        slots = self._slots[row, : last + 1].tolist()
        if slots[-1] > horizon:
            slots.pop()
        return slots

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def window_hits(
        self, rows: np.ndarray, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every active slot of the given rows inside ``[start, stop]``.

        Returns ``(positions, slots)``: ``slots[k]`` is active for row
        ``rows[positions[k]]``.  One gather reads the cycles of every row
        that meet the window.
        """
        rates = self._rates[rows]
        first = (start - 1) // rates
        last = (stop - 1) // rates
        need = np.zeros(len(self._drawn), dtype=np.int64)
        need[rows] = last + 1
        self._grow(need)
        counts = last - first + 1
        positions = np.repeat(np.arange(len(rows)), counts)
        offsets = np.arange(len(positions)) - np.repeat(np.cumsum(counts) - counts, counts)
        slots = self._slots[rows[positions], first[positions] + offsets]
        inside = (slots >= start) & (slots <= stop)
        return positions[inside], slots[inside]

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def _grow(self, need: np.ndarray) -> None:
        """Draw until row ``i`` holds ``need[i]`` cycles, doubling every row."""
        drawn = np.array(self._drawn, dtype=np.int64)
        if (need <= drawn).all():
            return
        target = np.maximum(np.maximum(need, 2 * drawn), _FIRST_CYCLES)
        target += target & 1  # whole 64-bit outputs: two cycles per step
        width = int(target.max())
        if width > self._slots.shape[1]:
            wider = np.zeros((len(target), width), dtype=np.int64)
            wider[:, : self._slots.shape[1]] = self._slots
            self._slots = wider
        vector = np.ones(len(target), dtype=bool)
        for row in list(self._numpy):
            vector[row] = False
            self._draw_numpy(row, int(drawn[row]), int(target[row]))
        rows = np.flatnonzero(vector)
        self._draw(rows, drawn[rows], target[rows])
        self._drawn = target.tolist()

    def _draw(self, rows: np.ndarray, have: np.ndarray, want: np.ndarray) -> None:
        """Fill cycles ``have[i]:want[i]`` of every ``rows[i]`` from its PCG64 stream.

        ``have`` and ``want`` are even, so no row holds a buffered half.  A
        pass computes a (row, step) grid by broadcasting each row's state
        against the jump table; it covers at most ``_PASS_STEPS`` steps and
        about ``_PASS_PAIRS`` grid cells, which bounds its temporaries.  A
        row whose pass meets a Lemire rejection moves to numpy's own
        generator from the start of that pass.
        """
        power_lo, power_hi, series_lo, series_hi = _jumps()
        while len(rows):
            per_row = max(1, min(_PASS_STEPS, _PASS_PAIRS // len(rows)))
            steps = np.minimum((want - have) // 2, per_row)
            width = int(steps.max())
            column = slice(0, width)
            state_lo, state_hi = _mul128(
                power_lo[column], power_hi[column],
                self._state_lo[rows, None], self._state_hi[rows, None],
            )
            shift_lo, shift_hi = _mul128(
                series_lo[column], series_hi[column],
                self._inc_lo[rows, None], self._inc_hi[rows, None],
            )
            state_lo, state_hi = _add128(state_lo, state_hi, shift_lo, shift_hi)
            # XSL-RR output, then its low and high halves as consecutive draws.
            mixed = state_hi ^ state_lo
            rotation = state_hi >> 58
            output = (mixed >> rotation) | (mixed << ((64 - rotation) & 63))
            draws = np.stack([output & _MASK32, output >> 32], axis=2).reshape(len(rows), -1)
            product = draws * self._rates[rows, None].astype(np.uint64)
            cycles = have[:, None] + np.arange(2 * width)
            slots = cycles * self._rates[rows, None] + 1 + (product >> 32).astype(np.int64)
            rejects = (product & _MASK32) < self._threshold[rows, None]
            if steps.min() == width:
                self._slots[rows[:, None], cycles] = slots
            else:
                valid = np.arange(2 * width) < 2 * steps[:, None]
                rejects &= valid
                self._slots[np.broadcast_to(rows[:, None], valid.shape)[valid], cycles[valid]] = (
                    slots[valid]
                )
            rejected = rejects.any(axis=1)
            for index in np.flatnonzero(rejected).tolist():
                row = int(rows[index])
                self._numpy[row] = self._restore(row)
                self._draw_numpy(row, int(have[index]), int(want[index]))
            # Each row's last step is its new state.
            last = (np.arange(len(rows)), steps - 1)
            self._state_lo[rows] = state_lo[last]
            self._state_hi[rows] = state_hi[last]
            have = have + 2 * steps
            live = (have < want) & ~rejected
            rows, have, want = rows[live], have[live], want[live]

    def _draw_numpy(self, row: int, have: int, want: int) -> None:
        """Fill cycles ``have:want`` of a fallback row from its numpy generator."""
        if want > have:
            rate = self._rate_list[row]
            offsets = self._numpy[row].integers(1, rate + 1, size=want - have)
            self._slots[row, have:want] = np.arange(have, want) * rate + offsets

    def _restore(self, row: int) -> np.random.Generator:
        """numpy's own generator at ``row``'s current state (nothing buffered)."""
        bit_generator = np.random.PCG64(0)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": (int(self._state_hi[row]) << 64) | int(self._state_lo[row]),
                "inc": (int(self._inc_hi[row]) << 64) | int(self._inc_lo[row]),
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bit_generator)
