"""A NumPy-vectorized replay of :class:`random.Random`'s word stream.

The Monte-Carlo confidence estimator must stay *bit-compatible* with
the historical pure-Python loop: the same seed has to select the same
workloads.  CPython's :class:`random.Random` is a Mersenne Twister
(MT19937) whose integer methods all reduce to ``_randbelow(n)``::

    k = n.bit_length()
    r = getrandbits(k)          # one 32-bit word, top k bits
    while r >= n:
        r = getrandbits(k)      # rejection: one more word per retry

so the whole stream is a deterministic function of the 624-word
generator state.  :class:`MTStream` snapshots that state (via
``Random.getstate()``) and regenerates the identical word sequence with
vectorized twist/temper steps, which lets the estimator draw *millions*
of sample indices in a handful of array operations instead of millions
of interpreter-level calls -- with bit-for-bit identical results.

Only ``getrandbits(k)`` with ``k <= 32`` is replayed (one word per
call), which covers ``randrange``/``_randbelow`` for any population
that fits in memory.

On top of the raw stream, :func:`replay_schedule` replays whole
*schedules* of CPython sampling calls -- both ``random.sample``
algorithms (the selection-set and the partial-Fisher-Yates pool path,
including the ``setsize`` crossover rule that picks between them),
``shuffle`` and runs of ``randrange`` -- for many independent draws in
batched array operations.  The central difficulty is that every
``_randbelow`` consumes a *data-dependent* number of words (rejections,
plus selection-set re-draws on duplicates), so the word offset of each
call depends on every call before it.  The replay resolves that in
three vectorized stages:

1. per distinct bound ``n``, classify every buffered word as accepted
   or rejected once (``word >> (32 - k) < n``), giving prefix counts
   and accepted-position tables;
2. compose, over *all* possible word offsets at once, the per-draw
   advance map ``G[o]`` = "a draw starting at word ``o`` ends at word
   ``G[o]``" (one gather per schedule step), then walk the draws
   through ``G`` -- the only sequential part, one array lookup per
   draw instead of one Python call per pick;
3. gather every draw's accepted values from the tables and map them
   through the pure value-level transforms (Fisher-Yates pool
   mutation, shuffle swaps), which vectorize across draws.

Results are bit-identical to calling ``rng.sample`` / ``rng.shuffle``
/ ``rng.randrange`` in a Python loop, and the caller's generator is
left in exactly the state that loop would have produced.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np

_N = 624                    # state words
_M = 397                    # twist offset
_LAG = _N - _M              # 227: feedback lag of the in-place update
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)


def _twist(state: np.ndarray) -> np.ndarray:
    """One MT19937 state transition, vectorized.

    The reference implementation updates in place, so ``mt[i]`` reads
    ``mt[i + 397 mod 624]`` *after* that word was updated whenever
    ``i >= 227``.  Three chunks, each reading only words earlier chunks
    already produced, replicate the sequential result exactly.
    """
    # y_i mixes the *old* mt[i] and mt[i+1] for every i < 623 (the
    # sequential loop has updated neither when it reaches i); only
    # i = 623 reads the already-updated mt[0], patched scalar below.
    y = state & _UPPER
    y[:-1] |= state[1:] & _LOWER
    mixed = (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * _MATRIX_A)
    new = np.empty_like(state)
    new[:_LAG] = state[_M:] ^ mixed[:_LAG]                   # i in [0, 227)
    new[_LAG:2 * _LAG] = new[:_LAG] ^ mixed[_LAG:2 * _LAG]   # [227, 454)
    new[2 * _LAG:_N - 1] = new[_LAG:_N - 1 - _LAG] \
        ^ mixed[2 * _LAG:_N - 1]                             # [454, 623)
    y_last = (int(state[_N - 1]) & 0x80000000) | (int(new[0]) & 0x7FFFFFFF)
    new[_N - 1] = int(new[_M - 1]) ^ (y_last >> 1) \
        ^ (0x9908B0DF if y_last & 1 else 0)
    return new


def _temper(words: np.ndarray) -> np.ndarray:
    y = words.copy()
    y ^= y >> np.uint32(11)
    y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
    y ^= (y << np.uint32(15)) & np.uint32(0xEFC62000)
    y ^= y >> np.uint32(18)
    return y


class MTStream:
    """The exact 32-bit output stream of one :class:`random.Random`.

    Args:
        rng: the generator whose *future* outputs to replay.  The
            snapshot is taken at construction; the original ``rng`` is
            not advanced or otherwise disturbed.
    """

    def __init__(self, rng: random.Random) -> None:
        version, internal, _gauss = rng.getstate()
        if version != 3:
            raise ValueError(f"unsupported random.Random state v{version}")
        self._state = np.array(internal[:-1], dtype=np.uint32)
        self._pos = int(internal[-1])       # words consumed of the block
        self._block = _temper(self._state)

    def checkpoint(self) -> Tuple[np.ndarray, int, np.ndarray]:
        """An O(1) snapshot of (state, position, tempered block).

        Safe to hold by reference: :meth:`words` never mutates the
        state arrays in place, it rebinds them.  :class:`_WordTape`
        uses this to remember where a replay started.
        """
        return (self._state, self._pos, self._block)

    def _fresh_blocks(self, count: int):
        """``count`` successive raw states, plus their tempered words.

        Twisting is inherently sequential, but tempering is element-wise
        -- doing it once over the concatenated batch turns ~8 array ops
        per block into ~8 ops per *batch*.
        """
        states = []
        state = self._state
        for _ in range(count):
            state = _twist(state)
            states.append(state)
        words = _temper(np.concatenate(states)) if states \
            else np.empty(0, dtype=np.uint32)
        return states, words

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` tempered 32-bit words, as uint32."""
        if count < 0:
            raise ValueError("count must be >= 0")
        remainder = self._block[self._pos:self._pos + count]
        if len(remainder) == count:         # served from the open block
            self._pos += count
            return remainder.copy()
        blocks = -(-(count - len(remainder)) // _N)
        states, fresh = self._fresh_blocks(blocks)
        out = np.concatenate([remainder, fresh[:count - len(remainder)]])
        self._state = states[-1]
        self._block = fresh[(blocks - 1) * _N:]
        self._pos = count - len(remainder) - (blocks - 1) * _N
        return out

    def getrandbits(self, k: int, count: int) -> np.ndarray:
        """``count`` outputs of ``getrandbits(k)``, one word each."""
        if not 0 < k <= 32:
            raise ValueError("k must be in [1, 32]")
        return self.words(count) >> np.uint32(32 - k)

    def randbelow(self, n: int, count: int) -> np.ndarray:
        """``count`` outputs of ``Random._randbelow(n)``, as int64.

        Reproduces the rejection loop exactly: each attempt consumes
        one word and accepted values appear in stream order, so the
        result equals ``[rng.randrange(n) for _ in range(count)]`` and
        the stream ends at the same position the scalar loop would.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        k = n.bit_length()
        if k > 32:
            raise ValueError("populations beyond 2**32 are unsupported")
        shift = np.uint32(32 - k)
        bound = np.uint32(n)
        out = np.empty(count, dtype=np.int64)
        have = 0
        while have < count:
            need = count - have
            # Expected attempts = need / (n / 2**k); draw a batch with
            # ~10% headroom so one round nearly always suffices.
            attempts = need * (1 << k) // n + (need >> 3) + 32
            remainder = self._block[self._pos:]
            blocks = max(0, -(-(attempts - len(remainder)) // _N))
            states, fresh = self._fresh_blocks(blocks)
            pool = np.concatenate([remainder, fresh]) if blocks \
                else remainder
            vals = pool >> shift
            hits = np.flatnonzero(vals < bound)
            if len(hits) >= need:
                # The scalar loop stops right after the need-th
                # acceptance: place the stream exactly there.
                out[have:] = vals[hits[:need]]
                consumed = int(hits[need - 1]) + 1
                have = count
                if consumed <= len(remainder):
                    self._pos += consumed
                else:
                    into_fresh = consumed - len(remainder)
                    which = (into_fresh - 1) // _N
                    self._state = states[which]
                    self._block = fresh[which * _N:(which + 1) * _N]
                    self._pos = into_fresh - which * _N
            else:
                out[have:have + len(hits)] = vals[hits]
                have += len(hits)
                if blocks:
                    self._state = states[-1]
                    self._block = fresh[(blocks - 1) * _N:]
                self._pos = _N      # the whole pool was consumed
        return out


# ----------------------------------------------------------------------
# Schedule replay: random.sample / shuffle / randrange, batched draws.
#
# A *schedule* is the per-draw sequence of sampling calls as
# ``(kind, n, k)`` tuples:
#
#   ("sample", n, k)    -- random.sample(seq_of_len_n, k); emits the k
#                          drawn j-indices, in selection order.  On the
#                          pool path they are partial-Fisher-Yates
#                          indices (map through pool_pick); on the
#                          selection-set path they index the sequence
#                          directly.
#   ("randbelow", n, k) -- k independent randrange(n) calls.
#   ("shuffle", n, 0)   -- random.shuffle of an n-element list; emits
#                          the n-1 swap partners j for i = n-1 .. 1
#                          (map through apply_shuffle).
#
# replay_schedule evaluates the whole schedule for `draws` consecutive
# draws against one generator, exactly as a Python loop would.

#: Extra selection-set window slots provisioned per step before the
#: rare straggler (a draw hitting an improbable duplicate pile-up)
#: falls back to a tiny scalar walk.
_WINDOW_EXTRA = 16


def sample_uses_pool(n: int, k: int) -> bool:
    """Whether ``random.sample(seq_of_len_n, k)`` takes the pool path.

    Replicates CPython's ``setsize`` crossover: below it an n-length
    pool list is cheaper than a k-length selection set, so sample runs
    a partial Fisher-Yates; above it, it draws indices into a set and
    re-draws duplicates.
    """
    setsize = 21                # size of a small set minus an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


def pool_pick(values: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Replay the pool path's value mutation for a batch of draws.

    Args:
        values: the sampled sequence (length n), shared by all draws.
        j: the (draws, k) pool-index matrix a ("sample", n, k) schedule
            entry produced.

    Returns:
        The (draws, k) matrix of selected values: ``result[i] =
        pool[j_i]; pool[j_i] = pool[n-i-1]`` per draw, vectorized over
        the draw axis.
    """
    values = np.asarray(values)
    draws, k = j.shape
    pool = np.broadcast_to(values, (draws, len(values))).copy()
    out = np.empty((draws, k), dtype=values.dtype)
    rows = np.arange(draws)
    n = len(values)
    for i in range(k):
        ji = j[:, i]
        out[:, i] = pool[rows, ji]
        pool[rows, ji] = pool[:, n - i - 1]
    return out


def apply_shuffle(matrix: np.ndarray, j: np.ndarray) -> None:
    """Replay Fisher-Yates swaps in place for a batch of draws.

    Args:
        matrix: (draws, n) rows to shuffle, one draw each.
        j: the (draws, n-1) swap-partner matrix a ("shuffle", n, 0)
            schedule entry produced (columns are i = n-1 .. 1).
    """
    draws, n = matrix.shape
    rows = np.arange(draws)
    for column, i in enumerate(range(n - 1, 0, -1)):
        ji = j[:, column]
        partner = matrix[rows, ji].copy()
        anchor = matrix[:, i].copy()        # copy: ji may equal i
        matrix[rows, ji] = anchor
        matrix[:, i] = partner


class _Step:
    """One ``_randbelow`` run of a schedule: ``q`` accepted values of
    bound ``n``, optionally distinct (the selection-set re-draw rule).

    ``op`` / ``column`` locate where the step's values land in the
    caller-visible output (operation index, first output column).
    """

    __slots__ = ("n", "q", "distinct", "op", "column")

    def __init__(self, n: int, q: int, distinct: bool, op: int,
                 column: int) -> None:
        if n < 1:
            raise ValueError("bound must be positive")
        if n.bit_length() > 32:
            raise ValueError("populations beyond 2**32 are unsupported")
        self.n = n
        self.q = q
        self.distinct = distinct
        self.op = op
        self.column = column


def _expand_schedule(ops: Sequence[Tuple[str, int, int]]
                     ) -> Tuple[List[_Step], List[int]]:
    """Flatten schedule entries into ``_randbelow`` steps + widths."""
    steps: List[_Step] = []
    widths: List[int] = []
    for index, (kind, n, k) in enumerate(ops):
        if kind == "randbelow":
            if k < 0:
                raise ValueError("randbelow count must be >= 0")
            widths.append(k)
            if k:
                steps.append(_Step(n, k, False, index, 0))
        elif kind == "sample":
            if not 0 <= k <= n:
                raise ValueError(
                    "sample larger than population or is negative")
            widths.append(k)
            if k == 0:
                continue
            if sample_uses_pool(n, k):
                for i in range(k):
                    steps.append(_Step(n - i, 1, False, index, i))
            else:
                # k == 1 cannot collide with the (empty) selection set,
                # so it needs none of the duplicate machinery.
                steps.append(_Step(n, k, k > 1, index, 0))
        elif kind == "shuffle":
            widths.append(max(n - 1, 0))
            for column, i in enumerate(range(n - 1, 0, -1)):
                steps.append(_Step(i + 1, 1, False, index, column))
        else:
            raise ValueError(f"unknown schedule op {kind!r}")
    return steps, widths


def _expected_words(steps: Sequence[_Step]) -> Tuple[float, float]:
    """Mean and variance of the words one draw consumes.

    Every accepted value costs a geometric number of words with success
    probability ``n / 2**bit_length(n)``; selection-set steps add the
    expected duplicate re-draws (a coupon-collector correction).
    """
    mean = 0.0
    variance = 0.0
    for step in steps:
        acceptance = step.n / float(1 << step.n.bit_length())
        accepts = float(step.q)
        if step.distinct:
            accepts *= 1.0 + (step.q - 1) / (2.0 * (step.n - step.q + 1))
        mean += accepts / acceptance
        variance += accepts * (1.0 - acceptance) / (acceptance * acceptance)
    return mean, variance


class _Bound:
    """Lazy acceptance bookkeeping of one bound over the word buffer.

    Offsets live in ``[0, length + 1]``; ``length + 1`` is the
    absorbing overflow state, and every padded table routes
    out-of-buffer consumption there.  All positional tables are stored
    *one past* the accepted word (``positions1``), because every
    consumer advances the stream right after accepting.
    """

    __slots__ = ("n", "length", "count", "positions1", "_real", "_mask",
                 "_values", "_prefix", "_nxt1", "_accepted", "_next_diff",
                 "_previous", "_ends")

    def __init__(self, n: int, values: np.ndarray, pad: int) -> None:
        self.n = n
        self.length = len(values)
        self._values = values
        self._mask = values < np.uint32(n)
        # The accepted word indices, in stream order.
        real = np.flatnonzero(self._mask)
        self._real = real
        self.count = len(real)
        # Index `count + j` serves absorbed consumption: one past word
        # `length`, i.e. the overflow state, for overshoot up to `pad`.
        positions1 = np.empty(self.count + pad + 1, dtype=np.int64)
        np.add(real, 1, out=positions1[:self.count])
        positions1[self.count:] = self.length + 1
        self.positions1 = positions1
        self._prefix = None
        self._nxt1 = None
        self._accepted = None
        self._next_diff = None
        self._previous = None
        self._ends = {}

    def rank(self, points) -> np.ndarray:
        """Accepted words strictly before each offset, as int64.

        ``points=None`` means every offset ``0 .. length + 1`` (the
        identity domain).  Large batches amortise a dense prefix table;
        small ones binary-search the accepted positions.
        """
        if points is None or self._prefix is not None \
                or len(points) * 24 > self.length:
            prefix = self._prefix_table()
            gathered = prefix if points is None else prefix[points]
            return gathered.astype(np.int64)
        return np.searchsorted(self._real, points, side="left")

    def _prefix_table(self) -> np.ndarray:
        if self._prefix is None:
            length = self.length
            # int32: a plain int64 cumsum costs ~2x; rank() upcasts the
            # (usually much smaller) gathered batch instead.
            prefix = np.empty(length + 2, dtype=np.int32)
            prefix[0] = 0
            np.cumsum(self._mask.view(np.int8), dtype=np.int32,
                      out=prefix[1:length + 1])
            prefix[length + 1] = prefix[length]
            self._prefix = prefix
        return self._prefix

    def next_map(self) -> np.ndarray:
        """One past the first accepted word at-or-after every offset.

        The fused single-accept advance map: composing a step is then
        one gather.  Built only for bounds consumed by several steps
        (one-shot bounds go through :meth:`rank`, which is cheaper).
        """
        if self._nxt1 is None:
            self._nxt1 = self.positions1[self.rank(None)]
        return self._nxt1

    def accepted(self) -> np.ndarray:
        """The accepted values, in stream order."""
        if self._accepted is None:
            self._accepted = self._values[self._real]
        return self._accepted

    def next_diff(self) -> np.ndarray:
        """First later accepted index with a *different* value.

        The k = 2 selection-set fast path: the second distinct value is
        found by skipping the (rare) run of consecutive equal values,
        because any duplicate of the first pick is by definition equal
        to it.  ``next_diff()[count]`` absorbs into the overflow state.
        """
        if self._next_diff is None:
            count = self.count
            nd = np.arange(1, count + 2, dtype=np.int64)
            nd[count] = count
            if count:
                accepted = self.accepted()
                for t in np.flatnonzero(accepted[1:] == accepted[:-1])[::-1]:
                    nd[t] = nd[t + 1]
            self._next_diff = nd
        return self._next_diff

    def previous(self) -> np.ndarray:
        """Per accepted value, the index of its previous equal
        occurrence (-1 if none): the general selection-set duplicate
        test ``previous[t] >= window_start``."""
        if self._previous is None:
            accepted = self.accepted()
            order = np.argsort(accepted, kind="stable")
            previous = np.full(self.count, -1, dtype=np.int64)
            same = accepted[order[1:]] == accepted[order[:-1]]
            previous[order[1:][same]] = order[:-1][same]
            self._previous = previous
        return self._previous

    def window_ends(self, q: int) -> np.ndarray:
        """Selection-set window ends for every accepted-start index.

        For each start ``T`` over the accepted-value sequence, the
        index completing ``q`` distinct selections when consuming from
        ``T`` (re-drawing duplicates), or -1 when the buffer ends
        first.  Vectorized over all starts; a scalar walk mops up
        starts whose window outlives the provisioned cap.
        """
        ends = self._ends.get(q)
        if ends is not None:
            return ends
        previous = self.previous()
        total = self.count
        starts = np.arange(total + 1, dtype=np.int64)
        found = np.zeros(total + 1, dtype=np.int64)
        ends = np.full(total + 1, -1, dtype=np.int64)
        active = np.ones(total + 1, dtype=bool)
        cap = q + _WINDOW_EXTRA
        for offset in range(cap):
            index = starts + offset
            inside = index < total
            active &= inside            # window ran off the buffer: -1
            if not active.any():
                break
            safe = np.minimum(index, max(total - 1, 0))
            fresh = active & (previous[safe] < starts)
            found += fresh
            hit = fresh & (found == q)
            ends[hit] = index[hit]
            active &= ~hit
        else:
            # Stragglers: duplicate pile-ups beyond the cap (each extra
            # slot needs another same-value repeat -- vanishingly rare).
            for start in np.flatnonzero(active):
                start = int(start)
                seen = int(found[start])
                index = start + cap
                while index < total:
                    if previous[index] < start:
                        seen += 1
                        if seen == q:
                            ends[start] = index
                            break
                    index += 1
        self._ends[q] = ends
        return ends


def replay_schedule(rng: random.Random, ops: Sequence[Tuple[str, int, int]],
                    draws: int) -> List[np.ndarray]:
    """Replay ``draws`` repetitions of a sampling schedule, batched.

    Args:
        rng: the generator to replay (and advance: afterwards it sits
            exactly where the equivalent scalar loop would leave it).
        ops: the per-draw call sequence (see the module docstring).
        draws: number of schedule repetitions.

    Returns:
        One int64 ``(draws, width)`` matrix per schedule entry: the
        drawn j-indices (sample), the randrange values (randbelow), or
        the swap partners (shuffle) -- bit-identical to the scalar
        calls, draw by draw.
    """
    if draws < 0:
        raise ValueError("draws must be >= 0")
    steps, widths = _expand_schedule(ops)
    outs = [np.empty((draws, width), dtype=np.int64) for width in widths]
    if draws == 0 or not steps:
        return outs
    tape = _WordTape(rng)
    mean, variance = _expected_words(steps)
    budget = int(draws * mean
                 + 6.0 * math.sqrt(max(draws * variance, 1.0))) + 64
    buffer = tape.words(budget)
    while True:
        consumed = _replay_buffer(buffer, steps, draws, outs)
        if consumed is not None:
            break
        # The buffer ran out mid-schedule (an unlucky rejection streak):
        # extend it and redo the bookkeeping over the longer buffer.
        buffer = tape.words(len(buffer) + max(len(buffer) // 2, 1024))
    tape.commit(consumed, rng)
    return outs


class _WordTape:
    """A growable word buffer remembering its generator block states.

    Unlike :meth:`MTStream.words`, the tape keeps each 624-word block's
    raw state, so once the replay knows how many words were actually
    consumed the caller's generator is positioned with one ``setstate``
    instead of regenerating the whole stream.
    """

    def __init__(self, rng: random.Random) -> None:
        stream = MTStream(rng)
        self._state0, self._pos0, block = stream.checkpoint()
        self._head_len = len(block) - self._pos0
        self._states: List[np.ndarray] = []
        self._words = block[self._pos0:]

    def words(self, count: int) -> np.ndarray:
        """The buffer, grown to at least ``count`` words."""
        missing = count - len(self._words)
        if missing > 0:
            blocks = -(-missing // _N)
            state = self._states[-1] if self._states else self._state0
            fresh = []
            for _ in range(blocks):
                state = _twist(state)
                fresh.append(state)
            self._states.extend(fresh)
            self._words = np.concatenate(
                [self._words, _temper(np.concatenate(fresh))])
        return self._words

    def commit(self, consumed: int, rng: random.Random) -> None:
        """Advance ``rng`` exactly ``consumed`` words past the start."""
        if consumed <= self._head_len:
            state, position = self._state0, self._pos0 + consumed
        else:
            block = (consumed - self._head_len - 1) // _N
            state = self._states[block]
            position = consumed - self._head_len - block * _N
        _version, _internal, gauss = rng.getstate()
        rng.setstate((3, tuple(int(w) for w in state) + (position,), gauss))


def _replay_buffer(buffer: np.ndarray, steps: Sequence[_Step], draws: int,
                   outs: List[np.ndarray]):
    """One replay attempt against a fixed word buffer.

    Returns the number of words consumed, or None if any draw ran past
    the end of the buffer (the caller then extends it and retries).

    The composed per-draw advance map ("a draw starting at word ``o``
    ends at word ``G[o]``") is built over every possible offset at
    once: each step costs a couple of array gathers, after which the
    inherently sequential draw chain is one lookup per draw instead of
    one Python sampling call per pick.
    """
    length = len(buffer)
    sentinel = length + 1
    values_by_kappa = {}

    def values_for(n: int) -> np.ndarray:
        kappa = n.bit_length()
        values = values_by_kappa.get(kappa)
        if values is None:
            values = buffer >> np.uint32(32 - kappa)
            values_by_kappa[kappa] = values
        return values

    pad = {}
    single_steps = {}
    for step in steps:
        pad[step.n] = max(pad.get(step.n, 0),
                          step.q + (_WINDOW_EXTRA if step.distinct else 0))
        if step.q == 1 and not step.distinct:
            single_steps[step.n] = single_steps.get(step.n, 0) + 1
    bounds = {n: _Bound(n, values_for(n), amount)
              for n, amount in pad.items()}

    # Stage 2a: compose the per-draw advance map over every offset at
    # once (a couple of gathers per step; bounds feeding two or more
    # single-accept steps fuse them into one next-word map each).
    advance = None
    for step in steps:
        bound = bounds[step.n]
        if step.q == 1 and not step.distinct \
                and single_steps[step.n] > 1:
            fused = bound.next_map()
            advance = fused.copy() if advance is None else fused[advance]
            continue
        t = bound.rank(advance)
        if not step.distinct:
            advance = bound.positions1[t + (step.q - 1)]
        elif step.q == 2:
            advance = bound.positions1[bound.next_diff()[t]]
        else:
            ends = bound.window_ends(step.q)[t]
            advance = np.where(ends >= 0, bound.positions1[ends], sentinel)

    # Stage 2b: walk the draws through the composed map -- the only
    # sequential part, one array lookup per draw.
    starts = np.empty(draws, dtype=np.int64)
    cursor = 0
    for draw in range(draws):
        starts[draw] = cursor
        cursor = int(advance[cursor])
        if cursor > length:
            return None
    consumed = cursor

    # Stage 3: gather every step's accepted values at the now-known
    # offsets (vectorized across draws) into the output matrices.
    offsets = starts
    for step in steps:
        bound = bounds[step.n]
        out = outs[step.op]
        t = bound.rank(offsets)
        if not step.distinct:
            after = bound.positions1[t[:, None] + np.arange(step.q)]
            out[:, step.column:step.column + step.q] = \
                bound._values[after - 1]
            offsets = after[:, -1]
            continue
        accepted = bound.accepted()
        if step.q == 2:
            second = bound.next_diff()[t]
            out[:, step.column] = accepted[t]
            out[:, step.column + 1] = accepted[second]
            offsets = bound.positions1[second]
            continue
        ends = bound.window_ends(step.q)[t]
        previous = bound.previous()
        taken = np.zeros(draws, dtype=np.int64)
        active = np.ones(draws, dtype=bool)
        rows = np.arange(draws)
        offset = 0
        while active.any():
            index = t + offset
            fresh = active & (previous[np.minimum(
                index, bound.count - 1)] < t)
            chosen = rows[fresh]
            out[chosen, step.column + taken[chosen]] = \
                accepted[index[fresh]]
            taken[fresh] += 1
            active &= taken < step.q
            offset += 1
        offsets = bound.positions1[ends]
    return consumed
