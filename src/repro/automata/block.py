"""Vectorised NFA simulation backend for automata with many states.

The integer-mask :class:`~repro.automata.bitset.BitsetEngine` is excellent
while a state set fits a few machine words: its byte-chunked lookup loop
costs ``ceil(m / 8)`` Python-level iterations per simulation step.  For the
regime the paper's FPRAS actually targets — automata with hundreds of
states, where the polynomial advantage over brute force matters — that
Python loop becomes the bottleneck.  :class:`BlockEngine` removes it by
keeping every state set as a fixed-width vector of ``uint64`` *blocks* and
every per-symbol relation as a dense packed chunk-table tensor, so one
simulation step is a handful of NumPy array operations whose Python-level
cost is independent of ``m``:

* a handle is the little-endian ``bytes`` of the block vector (hashable,
  equal iff the decoded state sets are equal, exactly like the integer
  masks of the bitset backend; state ``j`` lives in byte ``j // 8``, bit
  ``j % 8``);
* each relation is stored as a flattened ``(chunks * 256, blocks)``
  ``uint64`` tensor: row ``c * 256 + v`` holds the packed image of the
  state set whose mask is ``v << 8c`` — the bitset backend's byte-chunked
  lookup tables, materialised as one NumPy array;
* ``step`` / ``pre`` / ``step_all`` view the handle as its ``chunks``
  bytes, gather the matching tensor rows in one fancy-index and OR-reduce
  them — a fixed-size gather regardless of how many states are set;
* the batched ``simulate_batch`` / ``membership_batch`` paths reuse the
  same gather-and-reduce kernel through an overridden
  :meth:`~BlockEngine._extend_batch`, keeping the trie-walk accounting
  bit-identical to the other backends.

The backend registers itself as ``"numpy"`` (NumPy is a hard dependency
of the package).  It is selected explicitly with ``backend="numpy"``;
``benchmarks/bench_block.py`` records where its batched membership path
overtakes the bitset backend.

Example::

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = BlockEngine(nfa)
    >>> sorted(engine.decode(engine.simulate("01")))
    ['t']
    >>> engine.accepts("01"), engine.accepts("00")
    (True, False)
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.automata.engine import (
    DECODE_CACHE_LIMIT,
    Engine,
    decode_mask,
    register_engine,
)
from repro.automata.nfa import NFA, State, Symbol, as_word
from repro.errors import AutomatonError

#: Bits per block of the packed state-set representation.
BLOCK_BITS = 64

#: Explicit little-endian dtype so handles are platform-independent bytes.
_BLOCK_DTYPE = "<u8"


class BlockEngine(Engine):
    """NumPy block-vector implementation of the :class:`Engine` interface.

    Handles are the raw little-endian bytes of a fixed-width ``uint64``
    block vector; all set algebra happens on NumPy views of those bytes.
    The engine is observationally identical to the ``reference`` and
    ``bitset`` backends — the three-way differential suites in
    ``tests/test_engine_parity.py`` / ``tests/test_batch_parity.py`` pin
    estimates, RNG streams and the locked work counters bit for bit.

    Memory note: each relation tensor holds ``4 m^2`` bytes (``m / 8``
    chunks x 256 entries x ``m / 8`` image bytes), i.e. ~1 MiB per symbol
    and direction at ``m = 512`` — the same entry count as the bitset
    backend's chunk tables, materialised contiguously for vectorised
    gathers.

    >>> from repro.automata.nfa import NFA
    >>> nfa = NFA.build(
    ...     [("s", "0", "s"), ("s", "1", "t"), ("t", "0", "t"), ("t", "1", "t")],
    ...     initial="s", accepting=["t"])
    >>> engine = BlockEngine(nfa)
    >>> engine.blocks  # one 64-bit block suffices for two states
    1
    >>> engine.membership_batch(["0", "01"], ["s", "t"])
    [0, 1]
    """

    name = "numpy"

    def __init__(self, nfa: NFA) -> None:
        super().__init__(nfa)
        ordered: List[State] = sorted(nfa.states, key=repr)
        self._states: Tuple[State, ...] = tuple(ordered)
        self._index: Dict[State, int] = {
            state: position for position, state in enumerate(ordered)
        }
        size = len(ordered)
        self._size = size
        #: Number of 64-bit blocks per handle (at least one).
        self.blocks = max(1, (size + BLOCK_BITS - 1) // BLOCK_BITS)
        self._width = self.blocks * 8  # handle width in bytes
        self._chunks = self._width  # one 8-bit chunk per handle byte
        #: Gather offsets: chunk ``c`` indexes rows ``[256 c, 256 (c+1))``.
        self._base = (np.arange(self._chunks, dtype=np.intp) << 8)

        # Per-symbol boolean relations, then packed chunk-table tensors.
        fwd_bool: Dict[Symbol, "np.ndarray"] = {
            symbol: np.zeros((size, size), dtype=bool) for symbol in nfa.alphabet
        }
        rev_bool: Dict[Symbol, "np.ndarray"] = {
            symbol: np.zeros((size, size), dtype=bool) for symbol in nfa.alphabet
        }
        for source, symbol, target in nfa.transitions:
            source_index = self._index[source]
            target_index = self._index[target]
            fwd_bool[symbol][source_index, target_index] = True
            rev_bool[symbol][target_index, source_index] = True
        any_bool = np.zeros((size, size), dtype=bool)
        for matrix in fwd_bool.values():
            any_bool |= matrix
        self._fwd = {
            symbol: self._chunk_tensor(matrix) for symbol, matrix in fwd_bool.items()
        }
        self._rev = {
            symbol: self._chunk_tensor(matrix) for symbol, matrix in rev_bool.items()
        }
        self._fwd_all = self._chunk_tensor(any_bool)

        self._empty = bytes(self._width)
        self._initial = self._mask_to_bytes(1 << self._index[nfa.initial])
        accepting_mask = 0
        for state in nfa.accepting:
            accepting_mask |= 1 << self._index[state]
        self._accepting = self._mask_to_bytes(accepting_mask)
        self._accepting_blocks = np.frombuffer(self._accepting, dtype=_BLOCK_DTYPE)
        self._decode_cache: Dict[bytes, FrozenSet[State]] = {
            self._empty: frozenset()
        }

    # ------------------------------------------------------------------
    # Internal representation helpers
    # ------------------------------------------------------------------
    def _mask_to_bytes(self, mask: int) -> bytes:
        """Little-endian bytes of an integer state mask, at handle width."""
        return mask.to_bytes(self._width, "little")

    def _pack_rows(self, rows_bool: "np.ndarray") -> "np.ndarray":
        """Pack a boolean ``(m, m)`` relation into ``(m, blocks)`` uint64 rows."""
        packed_bytes = np.packbits(rows_bool, axis=1, bitorder="little")
        padded = np.zeros((rows_bool.shape[0], self._width), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        return np.ascontiguousarray(padded).view(_BLOCK_DTYPE)

    def _chunk_tensor(self, rows_bool: "np.ndarray") -> "np.ndarray":
        """Flattened chunk-table tensor of a relation.

        Row ``c * 256 + v`` is the packed image of the state set whose mask
        is ``v << 8c``; built incrementally (the image of ``v`` is the image
        of ``v`` without its lowest bit, OR the row of that bit), vectorised
        across all chunks at once.
        """
        rows = self._pack_rows(rows_bool)  # (m, blocks) uint64
        padded = np.zeros((self._chunks * 8, self.blocks), dtype=_BLOCK_DTYPE)
        padded[: self._size] = rows
        by_chunk = padded.reshape(self._chunks, 8, self.blocks)
        tensor = np.zeros((self._chunks, 256, self.blocks), dtype=_BLOCK_DTYPE)
        for value in range(1, 256):
            low = value & -value
            tensor[:, value] = tensor[:, value ^ low] | by_chunk[:, low.bit_length() - 1]
        return np.ascontiguousarray(tensor.reshape(self._chunks * 256, self.blocks))

    def _image_blocks(self, tensor: "np.ndarray", chunk_bytes: "np.ndarray") -> "np.ndarray":
        """The step kernel: gather one tensor row per chunk, OR-reduce them."""
        return np.bitwise_or.reduce(tensor[chunk_bytes + self._base], axis=0)

    def _image(self, tensor: "np.ndarray", handle: bytes) -> bytes:
        """Apply a chunk-table tensor to a packed handle (step / pre / step_all)."""
        chunk_bytes = np.frombuffer(handle, dtype=np.uint8)
        return self._image_blocks(tensor, chunk_bytes).tobytes()

    # ------------------------------------------------------------------
    # Primitive handles
    # ------------------------------------------------------------------
    @property
    def initial(self) -> bytes:
        """Packed block vector with only the initial state's bit set."""
        return self._initial

    @property
    def accepting(self) -> bytes:
        """Packed block vector of the accepting state set ``F``."""
        return self._accepting

    @property
    def empty(self) -> bytes:
        """The all-zero block vector."""
        return self._empty

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def encode(self, states: Iterable[State]) -> bytes:
        """Pack ``states`` into a block vector (unknown states are an error)."""
        mask = 0
        index = self._index
        for state in states:
            try:
                mask |= 1 << index[state]
            except KeyError:
                raise AutomatonError(
                    f"state {state!r} is not a state of the automaton"
                ) from None
        return self._mask_to_bytes(mask)

    def decode(self, handle: bytes) -> FrozenSet[State]:
        """Frozenset of the set bits, memoised per distinct block vector.

        The memo is bounded by
        :data:`~repro.automata.engine.DECODE_CACHE_LIMIT` so that engines
        pinned by the shared registry cannot accumulate unbounded decoded
        sets over a long-running process.
        """
        cached = self._decode_cache.get(handle)
        if cached is not None:
            return cached
        self.decode_ops += 1
        result = decode_mask(self._states, int.from_bytes(handle, "little"))
        if len(self._decode_cache) < DECODE_CACHE_LIMIT:
            self._decode_cache[handle] = result
        return result

    def state_index(self, state: State) -> int:
        """Dense index of a state (stable across engines for one NFA)."""
        return self._index[state]

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def step(self, handle: bytes, symbol: Symbol) -> bytes:
        """Forward image via the per-symbol chunk-table tensor."""
        self.step_ops += 1
        tensor = self._fwd.get(symbol)
        if tensor is None:
            # Symbols outside the alphabet have no transitions (mirrors the
            # reference engine, whose successor map is empty for them).
            return self._empty
        return self._image(tensor, handle)

    def step_all(self, handle: bytes) -> bytes:
        """Forward image under any symbol (one unrolling level)."""
        self.step_ops += 1
        return self._image(self._fwd_all, handle)

    def pre(self, handle: bytes, symbol: Symbol) -> bytes:
        """Reverse image via the per-symbol reverse tensor."""
        self.pre_ops += 1
        tensor = self._rev.get(symbol)
        if tensor is None:
            return self._empty
        return self._image(tensor, handle)

    def intersect(self, first: bytes, second: bytes) -> bytes:
        """Blockwise AND of two handles."""
        return (
            np.frombuffer(first, dtype=_BLOCK_DTYPE)
            & np.frombuffer(second, dtype=_BLOCK_DTYPE)
        ).tobytes()

    def union(self, first: bytes, second: bytes) -> bytes:
        """Blockwise OR of two handles."""
        return (
            np.frombuffer(first, dtype=_BLOCK_DTYPE)
            | np.frombuffer(second, dtype=_BLOCK_DTYPE)
        ).tobytes()

    def contains(self, handle: bytes, state: State) -> bool:
        """Single-bit membership test (unknown states are never contained)."""
        index = self._index.get(state)
        if index is None:
            return False
        return bool(handle[index >> 3] >> (index & 7) & 1)

    def is_empty(self, handle: bytes) -> bool:
        """Whether the block vector is all zeros (fixed-width bytes compare)."""
        return handle == self._empty

    def intersects(self, first: bytes, second: bytes) -> bool:
        """Whether the block vectors share a set bit."""
        return bool(
            np.any(
                np.frombuffer(first, dtype=_BLOCK_DTYPE)
                & np.frombuffer(second, dtype=_BLOCK_DTYPE)
            )
        )

    def count(self, handle: bytes) -> int:
        """Population count of the block vector."""
        return int.from_bytes(handle, "little").bit_count()

    # ------------------------------------------------------------------
    # Derived word-level operations (vectorised fast paths)
    # ------------------------------------------------------------------
    def simulate(self, word) -> bytes:
        """Word simulation keeping the block vector resident between steps.

        The current state set stays a ``(blocks,)`` uint64 array for the
        whole word (the chunk view needed by the gather kernel is a free
        reinterpret-cast of it); the handle is packed to bytes only once at
        the end.  Step accounting — one ``step_ops`` per performed step,
        early exit on the empty set — matches :meth:`Engine.simulate`
        exactly.
        """
        symbols = as_word(word)
        if not symbols:
            return self._initial
        fwd = self._fwd
        image = None
        chunk_bytes = np.frombuffer(self._initial, dtype=np.uint8)
        for symbol in symbols:
            self.step_ops += 1
            tensor = fwd.get(symbol)
            if tensor is None:
                return self._empty
            image = self._image_blocks(tensor, chunk_bytes)
            if not image.any():
                return self._empty
            chunk_bytes = image.view(np.uint8)
        return image.tobytes()

    def accepts(self, word) -> bool:
        """Acceptance via one blockwise AND against the accepting vector."""
        final = self.simulate(word)
        return bool(
            np.any(np.frombuffer(final, dtype=_BLOCK_DTYPE) & self._accepting_blocks)
        )

    # ------------------------------------------------------------------
    # Batched simulation (level-synchronous vectorised trie walk)
    # ------------------------------------------------------------------
    def simulate_batch(self, words: Sequence["str | Tuple[Symbol, ...]"]) -> List[bytes]:
        """Vectorised trie walk over a whole word multiset.

        The generic implementation walks the multiset's prefix trie in
        sorted order, stepping each distinct prefix with a live parent
        exactly once.  This override visits the *same* trie nodes but
        level-synchronously: all distinct ``(parent node, symbol)``
        children of a level are stepped with one gather-and-reduce per
        alphabet symbol, so a batch of hundreds of words costs a few NumPy
        calls per trie level instead of a few per simulation step.  Results
        (per-word final handles, in input order) and the work counters
        (``step_ops``, ``batch_steps_saved``) are bit-identical to the
        generic sorted walk — the three-way batch parity suite enforces it.
        """
        normalized: List[Tuple[Symbol, ...]] = [
            word if type(word) is tuple else as_word(word) for word in words
        ]
        self.batch_calls += 1
        self.batch_words += len(normalized)
        count = len(normalized)
        results: List[bytes] = [self._initial] * count
        if not count:
            return results
        blocks = self.blocks
        empty = self._empty
        # Level-0 trie: every word sits at the root, whose state set is the
        # (never empty) initial singleton.
        node_states = np.frombuffer(self._initial, dtype=_BLOCK_DTYPE).reshape(1, blocks)
        word_node: List[int] = [0] * count
        active: List[int] = list(range(count))
        # ``full_cost[w]`` is what per-word simulation would have stepped:
        # the word length, clipped to the level its prefix chain dies at.
        full_cost: List[int] = [len(word) for word in normalized]
        performed = 0
        level = 0
        while active:
            extending: List[int] = []
            for position in active:
                if len(normalized[position]) == level:
                    results[position] = node_states[word_node[position]].tobytes()
                else:
                    extending.append(position)
            if not extending:
                break
            # Distinct (parent node, next symbol) pairs are the level's
            # trie children; each is stepped exactly once.
            child_of: Dict[Tuple[int, Symbol], int] = {}
            word_child: Dict[int, int] = {}
            for position in extending:
                key = (word_node[position], normalized[position][level])
                child = child_of.get(key)
                if child is None:
                    child = child_of[key] = len(child_of)
                word_child[position] = child
            performed += len(child_of)
            child_states = np.zeros((len(child_of), blocks), dtype=_BLOCK_DTYPE)
            by_symbol: Dict[Symbol, Tuple[List[int], List[int]]] = {}
            for (parent, symbol), child in child_of.items():
                parents, children = by_symbol.setdefault(symbol, ([], []))
                parents.append(parent)
                children.append(child)
            for symbol, (parents, children) in by_symbol.items():
                tensor = self._fwd.get(symbol)
                if tensor is None:
                    continue  # unknown symbol: children stay empty
                chunk_bytes = np.ascontiguousarray(node_states[parents]).view(np.uint8)
                gathered = tensor[
                    chunk_bytes.astype(np.intp).reshape(len(parents), self._chunks)
                    + self._base
                ]
                child_states[children] = np.bitwise_or.reduce(gathered, axis=1)
            alive = child_states.any(axis=1)
            survivors: List[int] = []
            for position in extending:
                child = word_child[position]
                if alive[child]:
                    word_node[position] = child
                    survivors.append(position)
                else:
                    # The chain died one step in: per-word simulation would
                    # have stopped here, returning the empty handle.
                    results[position] = empty
                    full_cost[position] = level + 1
            node_states = child_states
            active = survivors
            level += 1
        self.batch_steps_saved += sum(full_cost) - performed
        self.step_ops += performed
        return results

    def accepts_batch(self, words: Sequence["str | Tuple[Symbol, ...]"]) -> List[bool]:
        """Vector of acceptance answers: one blockwise AND over the batch."""
        handles = self.simulate_batch(words)
        if not handles:
            return []
        stacked = np.frombuffer(b"".join(handles), dtype=_BLOCK_DTYPE).reshape(
            len(handles), self.blocks
        )
        return (stacked & self._accepting_blocks).any(axis=1).tolist()

    # ------------------------------------------------------------------
    # Batched membership
    # ------------------------------------------------------------------
    def batch_checker(self, states: Sequence[State]) -> Callable[[bytes, int], int]:
        """Positional membership over a fixed state list, one byte test each.

        States outside the automaton get a zero probe, so they can never be
        contained in a handle (matching the reference engine's "not in
        frozenset" behaviour).
        """
        index = self._index
        probes = tuple(
            (index[state] >> 3, 1 << (index[state] & 7)) if state in index else (0, 0)
            for state in states
        )

        def check(handle: bytes, upto: int) -> int:
            for position in range(upto):
                byte, bit = probes[position]
                if handle[byte] & bit:
                    return position
            return -1

        return check


register_engine(BlockEngine.name, BlockEngine)
