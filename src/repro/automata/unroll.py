"""The unrolled automaton and its membership oracles.

Algorithm 3 of the paper first unrolls the input NFA ``A`` into an acyclic
layered graph ``A_unroll`` with ``n + 1`` copies of every state, then runs a
dynamic program over the layers.  :class:`UnrolledAutomaton` captures exactly
the structure the algorithms need:

* the set of *live* states per level (states ``q`` with ``L(q^l)`` non-empty
  — the paper assumes all states of the unrolling are reachable);
* the predecessor sets ``Pred(q, b)`` restricted to live states;
* membership oracles "is word ``w`` in ``L(q^|w|)``" and "is ``w`` in
  ``⋃_{q in P} L(q^|w|)``", implemented by simulating the original NFA and
  memoising the reachable-state set per word.  This memoisation realises the
  paper's amortisation argument (reachable sets of all stored samples are
  precomputed once, so each oracle call is O(1) afterwards).

All simulation is delegated to a pluggable :class:`repro.automata.engine
.Engine`: the default bitset backend turns every step into a handful of
word-sized integer operations, while the frozenset reference backend keeps
the original semantics available for differential testing.  Handle-returning
methods (``reachable_handle``, ``live_handle``, ``predecessor_handle``) are
the hot-path API used by the counting layer; the frozenset-returning methods
remain for compatibility and convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.automata.engine import Engine, LevelKernel, acquire_engine
from repro.automata.nfa import NFA, State, Symbol, Word, as_word
from repro.errors import AutomatonError

#: Keys the predecessor-fan memo of one :class:`UnrolledAutomaton` holds
#: before it is cleared.  Far above the distinct ``(level, handle)`` frontiers
#: of ordinary runs, so the clear only fires on long-word runs (one key per
#: level at least), where it bounds the memo at ``O(cap * |alphabet|)``
#: handles instead of ``O(n)``.  A constant rather than a knob: the
#: clearing pattern feeds ``pre_ops``, which must not depend on the
#: backend, store or worker count.
FAN_MEMO_CAP = 1 << 13


@dataclass
class ReachabilityCache:
    """Memoises, per word, the set of NFA states reachable on that word.

    The cache is keyed by the word tuple and stores engine handles.  Prefix
    sharing is exploited by storing every prefix encountered while simulating
    a new word, so the incremental cost of caching a word that extends an
    already-cached one is a single simulation step.
    :meth:`reachable_handle_batch` answers a whole multiset at once —
    duplicates cost one dictionary probe and fresh words are materialised in
    sorted order so they extend each other's prefixes through the cache.

    The engine is acquired through the shared
    :class:`~repro.automata.engine.EngineRegistry` unless ``use_engine_cache``
    is ``False`` (or an explicit ``engine`` is supplied), so several caches
    over the same automaton share one set of transition tables.
    """

    nfa: NFA
    backend: Optional[str] = None
    engine: Optional[Engine] = None
    use_engine_cache: bool = True
    #: Optional bound on cached words: when set, the cache is flushed back
    #: to the empty word whenever it exceeds this many entries (keeping the
    #: word just materialised).  ``None`` (the default) is the historical
    #: unbounded behaviour, bit-identical including ``simulated_steps``.
    max_words: Optional[int] = None
    #: Optional bound on prefix caching: words longer than this skip
    #: caching their intermediate prefixes (only the full word is stored).
    #: Long-word streaming runs use it to keep one cached word O(word)
    #: instead of O(word^2).  ``None`` (the default) caches every prefix,
    #: the historical behaviour.  Both bounds only shift engine-level
    #: diagnostics (``simulated_steps``, ``cache_words``); oracle answers
    #: are unchanged.
    prefix_limit: Optional[int] = None
    #: Optional budget on the *total symbols* held by cached words.  A
    #: ``max_words`` bound alone still lets 64 words of length 20k pin
    #: megabytes; this budget flushes (same mechanics as ``max_words``,
    #: keeping the word just materialised so incremental prefix chains
    #: survive the flush) once the cached words jointly exceed it.
    #: ``None`` (the default) is unbounded, the historical behaviour.
    max_symbols: Optional[int] = None
    #: Level-kernel policy: ``"auto"`` negotiates a
    #: :class:`~repro.automata.engine.LevelKernel` through the engine's
    #: declared capabilities, ``"off"`` forces the scalar path.  The kernel
    #: only engages when the cache is unbounded (all three bounds ``None``),
    #: because the batched trie walk relies on the cache being
    #: prefix-closed; bounded caches always fall back to the scalar loop.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.kernel not in ("auto", "off"):
            raise AutomatonError(
                f"unknown kernel policy {self.kernel!r}: expected 'auto' or 'off'"
            )
        self.engine_cache_hit = False
        if self.engine is None:
            self.engine, self.engine_cache_hit = acquire_engine(
                self.nfa, self.backend, use_cache=self.use_engine_cache
            )
        self.backend = self.engine.name
        self._cache: Dict[Word, object] = {(): self.engine.initial}
        self.lookups = 0
        self.simulated_steps = 0
        self.batch_lookups = 0
        self.batch_words = 0
        self.batch_hits = 0
        self.cache_flushes = 0
        self._cached_symbols = 0
        self._level_kernel: Optional[LevelKernel] = None
        if (
            self.kernel != "off"
            and self.max_words is None
            and self.prefix_limit is None
            and self.max_symbols is None
            and self.engine.capabilities().level_kernel
        ):
            self._level_kernel = self.engine.level_kernel()
        self.kernel_active = self._level_kernel is not None
        self.kernel_batches = 0

    def _materialise(self, word: Word) -> object:
        """Handle for ``word``, extending the longest cached prefix."""
        cache = self._cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        engine = self.engine
        prefix_length = len(word) - 1
        while prefix_length > 0 and word[:prefix_length] not in cache:
            prefix_length -= 1
        current = cache[word[:prefix_length]]
        store_prefixes = self.prefix_limit is None or len(word) <= self.prefix_limit
        last = len(word) - 1
        for position in range(prefix_length, len(word)):
            current = engine.step(current, word[position])
            self.simulated_steps += 1
            if store_prefixes or position == last:
                cache[word[: position + 1]] = current
                self._cached_symbols += position + 1
        if (self.max_words is not None and len(cache) > self.max_words) or (
            self.max_symbols is not None
            and self._cached_symbols > self.max_symbols
        ):
            cache.clear()
            cache[()] = engine.initial
            cache[word] = current
            self._cached_symbols = len(word)
            self.cache_flushes += 1
        return current

    def _materialise_level_batch(self, words: Sequence[Word]) -> None:
        """Materialise fresh ``words`` through the level kernel.

        Only engaged when the cache is unbounded, hence prefix-closed: the
        words' missing trie nodes are then exactly their prefixes absent
        from the cache.  Nodes are grouped by ``(level, symbol)`` and each
        group becomes one
        :meth:`~repro.automata.engine.LevelKernel.step_level` call — a
        stacked gather over all words at once instead of a per-word step
        chain.  Handles, ``simulated_steps``, ``cache_words`` and the
        engine's ``step_ops`` are bit-identical to looping
        :meth:`_materialise` over the words in sorted order: every new
        prefix is computed and cached exactly once either way.
        """
        cache = self._cache
        kernel = self._level_kernel
        # Per-level symbol buckets; ``by_level[l - 1]`` holds level ``l``'s
        # ``symbol -> [(parent prefix, prefix)]`` groups.  The list index
        # is free and a symbol object caches its own hash, where a
        # ``(level, symbol)`` tuple key would be allocated and re-hashed
        # per node — measurable, since the Python-side walk is what the
        # kernel leaves as overhead.  Carrying the parent tuple spares the
        # processing loop a slice (and tuple re-hash) per node.
        by_level: List[Dict[Symbol, List[Tuple[Word, Word]]]] = []
        previous: Word = ()
        for word in words:
            total = len(word)
            if total == 0:
                continue
            if total > len(by_level):
                by_level.extend({} for _ in range(len(by_level), total))
            # Words arrive sorted, so the prefix shared with the previous
            # word is the longest prefix shared with *any* earlier word in
            # the batch: everything beyond it belongs to this word alone.
            # That makes the walk probe-light — grouped nodes need no
            # tombstone in the cache, because no later word can reach them
            # before the processing loop fills in their real handles.
            shared = 0
            bound = min(total, len(previous))
            while shared < bound and word[shared] == previous[shared]:
                shared += 1
            previous = word
            parent = word[:shared]
            # Probe phase: only earlier *batches* can have cached these
            # prefixes, and their entries are prefix-closed — the first
            # miss means every longer prefix misses too.
            index = shared
            while index < total:
                prefix = parent + (word[index],)
                if prefix not in cache:
                    break
                parent = prefix
                index += 1
            # Fresh phase: everything from the first miss on is new.
            for level_index, symbol in enumerate(word[index:], index):
                prefix = parent + (symbol,)
                bucket = by_level[level_index]
                items = bucket.get(symbol)
                if items is None:
                    items = bucket[symbol] = []
                items.append((parent, prefix))
                parent = prefix
        for level_index, bucket in enumerate(by_level):
            if not bucket:
                continue
            level = level_index + 1
            for symbol in sorted(bucket, key=repr):
                items = bucket[symbol]
                parents = [cache[parent] for parent, _ in items]
                images = kernel.step_level(parents, symbol)
                for (_, prefix), image in zip(items, images):
                    cache[prefix] = image
                self._cached_symbols += level * len(items)
                self.simulated_steps += len(items)
                self.kernel_batches += 1

    def reachable_handle(self, word: "str | Word") -> object:
        """Engine handle of the states reachable on ``word`` (hot path)."""
        word = as_word(word)
        self.lookups += 1
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        return self._materialise(word)

    def reachable_handle_batch(
        self, words: Sequence["str | Word"]
    ) -> List[object]:
        """Handles for a whole multiset of words, in input order.

        Cached words (the common case once Algorithm 3 has warmed the
        stored samples) cost one dictionary probe each; the remaining
        distinct words are materialised in sorted order, so a fresh word
        extends the prefixes just cached by its predecessors.  The
        ``lookups`` / ``simulated_steps`` accounting is identical to
        looping over :meth:`reachable_handle` — the cache stores every
        prefix, making the total step count order-independent.
        """
        normalized = [
            word if type(word) is tuple else as_word(word) for word in words
        ]
        self.lookups += len(normalized)
        self.batch_lookups += 1
        self.batch_words += len(normalized)
        cache = self._cache
        results: List[object] = [None] * len(normalized)
        missing: List[int] = []
        for position, word in enumerate(normalized):
            handle = cache.get(word)
            if handle is None:
                missing.append(position)
            else:
                self.batch_hits += 1
                results[position] = handle
        if missing:
            ordered = sorted(missing, key=normalized.__getitem__)
            if self._level_kernel is not None:
                self._materialise_level_batch(
                    [normalized[position] for position in ordered]
                )
                for position in ordered:
                    results[position] = cache[normalized[position]]
            else:
                for position in ordered:
                    results[position] = self._materialise(normalized[position])
        return results

    def reachable(self, word: "str | Word") -> FrozenSet[State]:
        """Return the set of states reachable from the initial state on ``word``."""
        return self.engine.decode(self.reachable_handle(word))

    def contains(self, state: State, word: "str | Word") -> bool:
        """Whether ``word`` belongs to ``L(state^{|word|})``."""
        return self.engine.contains(self.reachable_handle(word), state)

    def contains_any(self, states: Iterable[State], word: "str | Word") -> bool:
        """Whether ``word`` belongs to ``⋃_{q in states} L(q^{|word|})``."""
        handle = self.reachable_handle(word)
        engine = self.engine
        return any(engine.contains(handle, state) for state in states)

    def __len__(self) -> int:
        return len(self._cache)


class UnrolledAutomaton:
    """The layered DAG ``A_unroll`` for a given NFA and maximum length ``n``.

    Parameters
    ----------
    nfa:
        The input automaton ``A``.
    length:
        The word length ``n`` (number of layers beyond layer 0).
    backend:
        Simulation backend name (``"bitset"`` / ``"reference"``); ``None``
        selects the default backend.  Ignored when ``engine`` is given.
    engine:
        An existing :class:`Engine` for ``nfa`` to share.
    use_engine_cache:
        When ``True`` (the default) the engine is acquired from the shared
        :class:`~repro.automata.engine.EngineRegistry`, so unrollings of the
        same automaton reuse one set of transition tables; ``False`` builds
        a private engine (the CLI's ``--no-engine-cache``).
    kernel:
        Level-kernel policy of the :class:`ReachabilityCache`: ``"auto"``
        (the default) negotiates a
        :class:`~repro.automata.engine.LevelKernel` when the engine's
        declared :class:`~repro.automata.engine.EngineCapabilities` carry
        ``level_kernel=True``; ``"off"`` forces the scalar path.
        :attr:`kernel_active` reports the cache's outcome.  Negotiation
        never changes observable behaviour — estimates, RNG streams, and
        the representation-independent work counters are bit-identical
        with the kernel on or off.

    Notes
    -----
    States of the unrolling are pairs ``(q, l)`` conceptually; the class
    never materialises them explicitly — it exposes the per-level live state
    sets and predecessor queries, which is all the FPRAS needs.

    Because engines may be shared, the instance snapshots the engine's work
    counters at construction; :meth:`engine_counters` reports the delta, i.e.
    the work attributable to this unrolling (exact when instances do not
    interleave engine use, which is the case for sequential FPRAS runs).
    """

    def __init__(
        self,
        nfa: NFA,
        length: int,
        backend: Optional[str] = None,
        engine: Optional[Engine] = None,
        use_engine_cache: bool = True,
        cache_max_words: Optional[int] = None,
        cache_prefix_limit: Optional[int] = None,
        cache_max_symbols: Optional[int] = None,
        kernel: str = "auto",
    ) -> None:
        if length < 0:
            raise AutomatonError("unrolling length must be non-negative")
        self.nfa = nfa
        self.length = length
        if engine is not None:
            self.engine = engine
            self.engine_cache_hit = False
        else:
            self.engine, self.engine_cache_hit = acquire_engine(
                nfa, backend, use_cache=use_engine_cache
            )
        self.backend = self.engine.name
        self._counter_base: Dict[str, int] = dict(self.engine.counters())
        self.cache = ReachabilityCache(
            nfa,
            engine=self.engine,
            max_words=cache_max_words,
            prefix_limit=cache_prefix_limit,
            max_symbols=cache_max_symbols,
            kernel=kernel,
        )
        self.kernel = kernel
        # Predecessor-fan memo, keyed on ``(level, handle)``; see
        # :meth:`predecessor_fan`.
        self._fan_memo: Dict[Tuple[int, object], Tuple[Tuple[Symbol, object], ...]] = {}
        self._live_handles: List[object] = self._compute_live_handles()
        # Live-set frozensets are decoded lazily: eager decoding cost
        # O(n * m) up front even for runs that only ever touch handles, and
        # for n in the tens of thousands it dominated construction time.
        # ``live_states`` memoises per level, so the decoded view is still
        # paid for at most once per level.
        self._live_sets: List[Optional[FrozenSet[State]]] = [None] * (
            length + 1
        )
        # Latest witness per state (bounded: one entry per NFA state).  The
        # backward witness walk is deterministic, so a memoised word for
        # ``(state, level)`` is exactly what re-walking would produce.
        self._witness_memo: Dict[State, Tuple[int, Word]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _compute_live_handles(self) -> List[object]:
        """Level-by-level forward reachability: live(l) = {q : L(q^l) != {}}."""
        engine = self.engine
        levels: List[object] = [engine.initial]
        for _ in range(self.length):
            levels.append(engine.step_all(levels[-1]))
        return levels

    def live_states(self, level: int) -> FrozenSet[State]:
        """States ``q`` whose language slice ``L(q^level)`` is non-empty.

        Decoded from the level's handle on first use and memoised; hot
        paths work on handles and may never trigger the decode at all.
        """
        self._check_level(level)
        decoded = self._live_sets[level]
        if decoded is None:
            decoded = self.engine.decode(self._live_handles[level])
            self._live_sets[level] = decoded
        return decoded

    def live_handle(self, level: int) -> object:
        """Engine handle of :meth:`live_states` (hot-path variant)."""
        self._check_level(level)
        return self._live_handles[level]

    def is_live(self, state: State, level: int) -> bool:
        """Whether ``L(state^level)`` is non-empty."""
        self._check_level(level)
        return self.engine.contains(self._live_handles[level], state)

    def predecessors(self, state: State, symbol: Symbol, level: int) -> FrozenSet[State]:
        """``Pred(q, b)`` restricted to states live at ``level - 1``.

        Restricting to live predecessors is sound — dead predecessors
        contribute empty languages to the union — and keeps the number of
        sets passed to AppUnion as small as possible.
        """
        self._check_level(level)
        if level == 0:
            return frozenset()
        return self.nfa.predecessors(state, symbol) & self.live_states(level - 1)

    def predecessor_handle(self, handle: object, symbol: Symbol, level: int) -> object:
        """``Pred(Q', b)`` of a handle, restricted to live states (hot path)."""
        self._check_level(level)
        engine = self.engine
        if level == 0:
            return engine.empty
        return engine.intersect(
            engine.pre(handle, symbol), self._live_handles[level - 1]
        )

    def predecessor_fan(
        self, handle: object, level: int
    ) -> Tuple[Tuple[Symbol, object], ...]:
        """The non-empty ``(b, Pred(Q', b))`` pairs of a handle, in alphabet order.

        Each predecessor handle is restricted to the states live at
        ``level - 1``; symbols whose restricted predecessor set is empty are
        left out, so every returned branch carries mass.  The backward
        sampler asks for the fan of its frontier handle at every level of
        every draw, but the answer depends only on ``(level, handle)`` over
        frozen tables, so it is memoised on that key: the engine's
        ``pre_ops`` count the fans actually computed, not the calls.  The
        memo holds at most :data:`FAN_MEMO_CAP` keys and is cleared when
        full — a fixed constant, so the clearing pattern (and with it every
        counter) is the same on every backend, store and worker count.
        """
        memo = self._fan_memo
        key = (level, handle)
        fan = memo.get(key)
        if fan is not None:
            return fan
        is_empty = self.engine.is_empty
        branches = []
        for symbol in self.nfa.alphabet:
            predecessors = self.predecessor_handle(handle, symbol, level)
            if not is_empty(predecessors):
                branches.append((symbol, predecessors))
        fan = tuple(branches)
        if len(memo) >= FAN_MEMO_CAP:
            memo.clear()
        memo[key] = fan
        return fan

    def predecessors_of_set(
        self, states: Iterable[State], symbol: Symbol, level: int
    ) -> FrozenSet[State]:
        """Union of ``Pred(q, b)`` over ``q`` in ``states`` (live only)."""
        handle = self.predecessor_handle(self.engine.encode(states), symbol, level)
        return self.engine.decode(handle)

    def accepting_live_states(self) -> FrozenSet[State]:
        """Accepting states live at the final level ``n``."""
        return self.live_states(self.length) & self.nfa.accepting

    # ------------------------------------------------------------------
    # Membership oracles
    # ------------------------------------------------------------------
    def member(self, state: State, word: "str | Word") -> bool:
        """Oracle: is ``word`` in ``L(state^{|word|})``?"""
        return self.cache.contains(state, word)

    def member_of_union(self, states: Iterable[State], word: "str | Word") -> bool:
        """Oracle: is ``word`` in ``⋃_{q in states} L(q^{|word|})``?"""
        return self.cache.contains_any(states, word)

    def membership_oracle(self, state: State):
        """A zero-argument-closure style oracle for a single unrolled state.

        Returned callables have the signature ``oracle(word) -> bool`` and
        are what :func:`repro.counting.union.approximate_union` consumes.
        """

        def oracle(word: "str | Word") -> bool:
            return self.member(state, word)

        return oracle

    def first_containing(
        self, states: Sequence[State]
    ) -> Callable[["str | Word", int], int]:
        """Batched AppUnion membership over an ordered state list.

        Returns ``check(word, upto)`` — the smallest position ``j < upto``
        with ``word`` in ``L(states[j]^{|word|})``, or ``-1``.  One cached
        reachability handle answers all the queried states at once, which is
        the batching the bitset backend turns into single-mask tests.
        """
        checker = self.engine.batch_checker(states)
        reachable_handle = self.cache.reachable_handle

        def check(word: "str | Word", upto: int) -> int:
            return checker(reachable_handle(word), upto)

        return check

    def first_containing_batch(
        self, states: Sequence[State]
    ) -> Callable[[Sequence[Tuple["str | Word", int]]], List[int]]:
        """Batched form of :meth:`first_containing` over a query multiset.

        Returns ``check_batch(queries)`` where ``queries`` is a sequence of
        ``(word, upto)`` pairs; the result list holds, per query, the
        smallest position ``j < upto`` with ``word`` in
        ``L(states[j]^{|word|})``, or ``-1``.  All reachability handles are
        resolved by one :meth:`ReachabilityCache.reachable_handle_batch`
        pass, so a whole AppUnion trial block costs one dictionary probe per
        stored sample instead of a call chain per trial.  Answers and
        accounting are identical to looping over :meth:`first_containing`.
        """
        checker = self.engine.batch_checker(states)
        reachable_handle_batch = self.cache.reachable_handle_batch

        def check_batch(
            queries: Sequence[Tuple["str | Word", int]]
        ) -> List[int]:
            handles = reachable_handle_batch([word for word, _ in queries])
            return [
                checker(handle, upto)
                for handle, (_, upto) in zip(handles, queries)
            ]

        return check_batch

    def warm_cache(self, words: Iterable["str | Word"]) -> None:
        """Precompute reachable sets for ``words`` (the amortisation step)."""
        for word in words:
            self.cache.reachable_handle(word)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def witness(self, state: State, level: int) -> Optional[Word]:
        """One word of ``L(state^level)``, or ``None`` if the slice is empty.

        Used by Algorithm 3's padding step.  Found by walking backwards from
        ``(state, level)`` through live predecessor layers.  Because the walk
        is deterministic (smallest live predecessor by ``repr``, first
        matching symbol), each state's latest witness is memoised and the
        walk short-circuits when it reaches a state whose memoised witness is
        at the current level — the remaining descent would reproduce exactly
        that word.  The memo holds one entry per NFA state, so it is bounded
        by ``m`` regardless of the unrolling length.
        """
        self._check_level(level)
        if not self.is_live(state, level):
            return None
        memo = self._witness_memo
        suffix: List[Symbol] = []
        current = state
        word: Optional[Word] = None
        for current_level in range(level, 0, -1):
            hit = memo.get(current)
            if hit is not None and hit[0] == current_level:
                suffix.reverse()
                word = hit[1] + tuple(suffix)
                break
            step_found = False
            for symbol in self.nfa.alphabet:
                candidates = self.predecessors(current, symbol, current_level)
                if candidates:
                    chosen = sorted(candidates, key=repr)[0]
                    suffix.append(symbol)
                    current = chosen
                    step_found = True
                    break
            if not step_found:  # pragma: no cover - liveness guarantees a predecessor
                return None
        if word is None:
            suffix.reverse()
            word = tuple(suffix)
        memo[state] = (level, word)
        return word

    def slice_size_upper_bound(self, level: int) -> int:
        """Trivial upper bound ``|alphabet|^level`` used for sanity checks."""
        return len(self.nfa.alphabet) ** level

    def engine_counters(self) -> Dict[str, int]:
        """Mask-level work counters for diagnostics / benchmark reporting.

        Engine-level counts (``step_ops``, ``pre_ops``, ``decode_ops`` and
        the ``batch_*`` family) are reported relative to the snapshot taken
        at construction, so a shared registry engine still yields per-run
        numbers.  Cache-level counts (``cache_*``, ``simulated_steps``) are
        per-instance already.  ``engine_cache_hit`` records whether the
        engine came out of the shared registry (1) or was freshly built (0).
        """
        snapshot = self.engine.counters()
        counters = {
            key: value - self._counter_base.get(key, 0)
            for key, value in snapshot.items()
        }
        counters["cache_words"] = len(self.cache)
        counters["cache_lookups"] = self.cache.lookups
        counters["simulated_steps"] = self.cache.simulated_steps
        counters["cache_batch_lookups"] = self.cache.batch_lookups
        counters["cache_batch_words"] = self.cache.batch_words
        counters["cache_batch_hits"] = self.cache.batch_hits
        counters["cache_flushes"] = self.cache.cache_flushes
        counters["engine_cache_hit"] = int(self.engine_cache_hit)
        return counters

    @property
    def kernel_active(self) -> bool:
        """Whether the reachability cache negotiated a level kernel."""
        return self.cache.kernel_active

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.length:
            raise AutomatonError(
                f"level {level} outside the unrolling range [0, {self.length}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnrolledAutomaton(states={self.nfa.num_states}, length={self.length}, "
            f"backend={self.backend!r})"
        )
