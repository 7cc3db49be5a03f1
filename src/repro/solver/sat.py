"""An iterative CDCL SAT solver over CNF clauses, tuned for enumeration.

Clauses are lists of non-zero integers; a positive integer ``v`` is the
variable ``v``, a negative integer its negation (DIMACS convention).

The engine implements the conflict-driven machinery the lazy SMT loop
actually needs to be fast (the MiniSat/Glucose lineage), rebuilt around
the hint pipeline's real hot path: blocking-clause model enumeration.

* **flat clause arena** -- all clause literals live in one flat integer
  buffer; a clause is an integer offset (``cref``) into that buffer, with
  its size at ``arena[cref - 1]`` and its LBD score at ``arena[cref - 2]``
  (zero for permanent clauses).  Watcher lists are flat
  ``[cref, blocker, cref, blocker, ...]`` integer lists indexed by
  literal, so the propagation inner loop walks contiguous ints instead of
  chasing per-clause list objects.  (A plain Python list is used for the
  buffer rather than ``array('i')``: CPython's ``array`` re-boxes every
  indexed read into a fresh int object, which measures ~1.7x slower per
  probe than a list of cached small ints; the layout is identical.)
* **two-watched-literal propagation with blocker literals** -- each clause
  watches two of its literals, so propagation touches only the clauses
  whose watch just became false; every watcher entry carries a cached
  *blocker* literal whose truth lets the visit skip the clause with a
  single assignment probe (the overwhelmingly common case in
  blocking-clause enumeration loops);
* **first-UIP conflict analysis with recursive minimization** -- on
  conflict the implication graph is walked backward from the conflicting
  clause until a single literal of the conflict level remains; dominated
  literals are dropped before the learned clause is stored;
* **chronological backtracking** -- a conflict clause with exactly one
  literal of the current decision level skips analysis entirely: the
  search backtracks one level and enqueues that literal with the conflict
  clause as its reason (Moehle & Biere's "backing backtracking").  Falsified
  clause *additions* (the enumeration path: every blocking clause arrives
  falsified) unwind only the deepest level the clause actually
  invalidates and assert the clause as unit there.  Analyzed conflicts
  whose backjump would discard more than 100 levels also backtrack
  chronologically (Nadel & Ryvchin's threshold rule).  Counted by
  ``chrono_backtracks``;
* **trail saving** -- literals popped by a backtrack are remembered with
  their reasons; at the next decision points the saved suffix is
  replayed: a saved propagation whose reason clause is still unit
  re-propagates without a search step (``saved_trail_literals``), and a
  saved decision is re-decided while its activity still dominates the
  branching heap (van der Tak-style trail reuse, so restarts keep their
  point);
* **one-flip condensation of permanent clauses** -- a permanent clause
  addition that differs from a live permanent clause in exactly one
  flipped literal replaces both with their resolvent (C \\/ l and C \\/ -l
  are together equivalent to C), cascading until no partner matches.
  Blocking-clause enumeration telescopes under this rule: the live
  blocking set (and with it the watch lists the propagation loop walks)
  stays logarithmic in the number of enumerated models, and a full
  enumeration condenses down to the empty clause -- UNSAT with a
  near-empty database;
* **LBD-EMA adaptive restarts** -- fast/slow exponential moving averages
  of learned-clause LBD trigger a restart when recent conflicts are
  markedly worse than the long-run average (Glucose-style), with a Luby
  schedule as a fallback cap.  Chronological conflicts feed neither
  average, so model enumeration -- whose conflicts never analyze -- does
  not restart away its trail;
* **an LBD-scored learned-clause database with periodic reduction** --
  when the learned database outgrows its cap the worst half (highest
  LBD, then longest) is deleted, keeping binary, glue (LBD <= 2), and
  reason-locked clauses; deleted bodies stay in the arena (no
  compaction), which keeps saved-trail reasons valid forever;
* **VSIDS branching with exponential decay** (lazy max-heap, stale
  entries tolerated) and **phase saving**;
* **incremental solving under assumptions with trail reuse** --
  ``solve(assumptions)`` asserts assumptions as pseudo-decisions below
  the search; watch lists, learned clauses, and saved phases persist
  across calls, and the trail itself is kept between calls whenever it
  is still consistent.  Chronological backtracking never unwinds into
  the assumption prefix.  After UNSAT, :meth:`unsat_core` names the
  failed assumptions (MiniSat's ``analyzeFinal``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.obs.journal import CHRONO_SAMPLE, JOURNAL as _JOURNAL

#: Mask form of the chrono-event sampling period (power of two).
_CHRONO_MASK = CHRONO_SAMPLE - 1

_ACTIVITY_DECAY = 0.95
_ACTIVITY_LIMIT = 1e100

#: Analyzed conflicts whose backjump would discard more than this many
#: levels backtrack chronologically instead (Nadel & Ryvchin's T).
_CHRONO_JUMP_LIMIT = 100

#: Learned clauses before the LBD EMAs are trusted for restart decisions.
_LBD_WARMUP = 128


def _luby(i):
    """The ``i``-th term (1-based) of the Luby sequence: 1 1 2 1 1 2 4 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class SatSolver:
    """Incremental CDCL solver (arena, watched literals, chrono, restarts)."""

    def __init__(self, restart_base=64, reduce_base=300, reduce_growth=1.15):
        # Clause arena: [lbd, size, lit0, .., litn-1] per clause; a cref
        # points at lit0.  Two leading zeros keep every cref >= 2 so the
        # metadata reads arena[cref-1] / arena[cref-2] never wrap, and 0
        # can mean "no clause" in reason slots.
        self._arena = [0, 0]
        self._learned_refs = []  # crefs of live learned clauses
        # Live *permanent* clauses, keyed for one-flip condensation:
        # sorted-variable tuple -> {polarity bitmask: cref}.
        self._clause_index = {}
        # Memoized (sorted key tuple, {var: bit}, top var) per literal
        # variable sequence (order-sensitive; see ``_add``).
        self._key_cache = {}
        self._num_vars = 0
        self._cap = 64  # allocated variable capacity of the literal maps
        self._assign = [None] * (2 * self._cap + 1)  # literal -> truth
        self._watchlists = [None] * (2 * self._cap + 1)  # lit -> flat pairs
        self._levels = [0]  # var -> decision level of the assignment
        self._reasons = [0]  # var -> antecedent cref (0 = none)
        self._phase = [False]  # var -> saved polarity
        self._activity = [0.0]  # var -> VSIDS activity
        self._trail = []  # assigned literals in assignment order
        self._trail_lim = []  # trail length at the start of each level
        self._qhead = 0  # propagation frontier into the trail
        self._pending = []  # unit literals awaiting top-level propagation
        self._unsat = False  # the database is unsatisfiable outright
        self._act_inc = 1.0
        self._heap = []  # lazy max-heap of (-activity, var)
        # Unassigned vars with zero activity, kept in a LIFO instead of
        # the heap: before the first conflict every activity is zero, so
        # heap order carries no information and a plain list pop is
        # several times cheaper.  Once conflicts exist the list is
        # drained back into the heap at the next decision.
        self._free = []
        self._last_model = None  # {var: bool} snapshot of the last SAT solve
        self._model_size = 0  # variable count backing that snapshot
        self._model_master = None  # persistent mirror the snapshot aliases
        self._dirty_vars = []  # vars unassigned since the mirror was built
        self._assumptions = []  # assumptions of the solve in progress
        self._assumed = []  # assumptions backing the kept trail (last SAT)
        self._conflict_core = None  # failed-assumption core of the last UNSAT
        self._saved = []  # flat [lit, reason_cref, ...] of the last backtrack
        self._saved_pos = 0  # replay frontier into ``_saved``
        self._lbd_fast = 0.0  # fast EMA of learned-clause LBD (1/32)
        self._lbd_slow = 0.0  # slow EMA of learned-clause LBD (1/4096)
        self._lbd_count = 0  # learned clauses feeding the EMAs
        self.restart_base = restart_base
        self._luby_index = 1
        self._restart_limit = 2 * restart_base  # 2 * base * _luby(1)
        self._max_learned = reduce_base
        self._reduce_growth = reduce_growth
        self.stats = {
            "solve_calls": 0,
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "learned_clauses": 0,
            "restarts": 0,
            "deleted_clauses": 0,
            "minimized_literals": 0,
            "assumption_cores": 0,
            "core_literals": 0,
            "chrono_backtracks": 0,
            "saved_trail_literals": 0,
        }

    @property
    def num_vars(self):
        return self._num_vars

    @property
    def _learned_clauses(self):
        """Live learned clauses as literal lists (tests and debugging)."""
        arena = self._arena
        return [arena[ref:ref + arena[ref - 1]] for ref in self._learned_refs]

    def model(self):
        """A copy of the most recent satisfying assignment, or None.

        The snapshot is taken when :meth:`solve` returns SAT and is
        cleared by an UNSAT result.  Adding clauses does not invalidate
        the snapshot -- it describes the database as of the last solve.
        """
        if self._last_model is None:
            return None
        return dict(self._last_model)

    def new_var(self):
        self.ensure_vars(self._num_vars + 1)
        return self._num_vars

    def ensure_vars(self, count):
        if count <= self._num_vars:
            return
        if count > self._cap:
            new_cap = max(count, 2 * self._cap)
            fresh = [None] * (2 * new_cap + 1)
            fresh_watch = [None] * (2 * new_cap + 1)
            assign = self._assign
            watchlists = self._watchlists
            for var in range(1, self._num_vars + 1):
                fresh[var] = assign[var]
                fresh[-var] = assign[-var]
                fresh_watch[var] = watchlists[var]
                fresh_watch[-var] = watchlists[-var]
            self._assign = fresh
            self._watchlists = fresh_watch
            self._cap = new_cap
        levels = self._levels
        reasons = self._reasons
        phase = self._phase
        activity = self._activity
        watchlists = self._watchlists
        heap = self._heap
        for var in range(self._num_vars + 1, count + 1):
            levels.append(0)
            reasons.append(0)
            phase.append(False)
            activity.append(0.0)
            watchlists[var] = []
            watchlists[-var] = []
            heappush(heap, (0.0, var))
        self._num_vars = count

    # ------------------------------------------------------------------
    # Clause addition
    # ------------------------------------------------------------------

    def add_clause(self, literals):
        """Add a permanent clause; an empty clause makes the DB UNSAT.

        Clauses may be added between ``solve`` calls; the watch lists and
        everything learned so far are kept.  The clause is simplified
        against the permanent (level-0) assignment on the way in, and the
        trail is only unwound as far as the new clause forces: a clause
        falsified by the current assignment backtracks chronologically to
        the deepest level it invalidates and, when it is unit there,
        asserts it with the clause as reason -- this is what makes
        blocking-clause enumeration loops incremental.
        """
        self._add(literals, False)

    def add_learned_clause(self, literals):
        """Add a deletable clause (a lemma, e.g. a theory blocking clause).

        Semantically identical to :meth:`add_clause`, but the clause joins
        the learned database and may be dropped by a later reduction; use
        for clauses that are *implied* (re-derivable) rather than part of
        the problem.
        """
        self._add(literals, True)

    def _add(self, literals, learned):
        key = mask = None
        if learned:
            litset = set(literals)
            top_var = 0
            for lit in litset:
                if -lit in litset:
                    return  # tautology
                var = lit if lit > 0 else -lit
                if var > top_var:
                    top_var = var
        else:
            # The condensation key (sorted variable tuple), each
            # variable's bit position, and the top variable are memoized
            # per *variable sequence*: enumeration adds thousands of
            # blocking clauses spelling the same variables in the same
            # order, so a repeat shape costs one tuple build and one
            # dict probe -- no set, no sort, no max, no tautology scan
            # (a cached entry guarantees the variables are distinct).
            varseq = tuple(map(abs, literals))
            entry = self._key_cache.get(varseq)
            if entry is None:
                varset = frozenset(varseq)
                if len(varset) != len(varseq):
                    # Duplicate literal or tautology: normalise, recheck.
                    litset = set(literals)
                    varset = frozenset(map(abs, litset))
                    if len(varset) != len(litset):
                        return  # tautology
                    literals = list(litset)
                    varseq = tuple(map(abs, literals))
                key = tuple(sorted(varset))
                bitpos = {v: 1 << j for j, v in enumerate(key)}
                top_var = key[-1] if key else 0
                self._key_cache[varseq] = (key, bitpos, top_var)
            else:
                key, bitpos, top_var = entry
            mask = 0
            for lit in literals:
                if lit > 0:
                    mask |= bitpos[lit]
            # One-flip condensation (self-subsuming resolution).  If a
            # live permanent clause has the same variables and differs in
            # exactly one flipped literal, the pair is *equivalent* to
            # its resolvent: C \/ l and C \/ -l <=> C.  Replace both by
            # the resolvent and repeat.  Blocking-clause enumeration
            # telescopes under this rule -- the clause of the model just
            # blocked always one-flip-matches its sibling subtree's
            # clause -- so the live blocking set stays logarithmic in
            # the number of enumerated models instead of linear, and with
            # it the watch lists the hot propagation loop must walk.
            # The partner probe walks the bucket's live masks (their
            # count is that same logarithm) rather than trying all
            # single-bit flips of ``mask``.
            index = self._clause_index
            while True:
                bucket = index.get(key)
                if bucket is None:
                    break
                if mask in bucket:
                    return  # duplicate of a live permanent clause
                partner_mask = -1
                for m2 in bucket:
                    d = mask ^ m2
                    if not (d & (d - 1)):  # exactly one bit: d != 0 here
                        partner_mask = m2
                        break
                if partner_mask < 0:
                    break
                partner = bucket.pop(partner_mask)
                if not bucket:
                    del index[key]
                # Inline ``_detach(partner)``: unhook it from both watch
                # lists (swap-remove); the body stays in the arena so any
                # reason cref naming it remains readable.
                arena = self._arena
                watchlists = self._watchlists
                for wlit in (arena[partner], arena[partner + 1]):
                    watchers = watchlists[wlit]
                    for i in range(0, len(watchers), 2):
                        if watchers[i] == partner:
                            end = len(watchers) - 2
                            watchers[i] = watchers[end]
                            watchers[i + 1] = watchers[end + 1]
                            del watchers[end:]
                            break
                j = (mask ^ partner_mask).bit_length() - 1
                v = key[j]
                literals = [l for l in literals if l != v and l != -v]
                # Drop position j from key and squeeze the mask.
                key = key[:j] + key[j + 1:]
                mask = (mask & ((1 << j) - 1)) | ((mask >> (j + 1)) << j)
                if not literals:
                    # Condensed away entirely: the DB is UNSAT outright.
                    self._backtrack(0)
                    self._unsat = True
                    return
            litset = literals
        if top_var > self._num_vars:
            self.ensure_vars(top_var)
        assign = self._assign
        levels = self._levels
        # One pass: classify every literal against the current (possibly
        # deep) assignment and track the two deepest false literals for
        # watch selection.  Only counters and watch candidates are kept --
        # no per-class lists -- because the dominant caller (blocking
        # clauses during enumeration) lands on the all-false path, where
        # the clause body is rebuilt straight from ``litset``.  Literals
        # false at level 0 stay in the body (they are never picked as
        # watches, so the watch invariant ignores them); dropping them
        # only shrinks scans on clauses that mix level-0 facts in, which
        # is not worth a second pass here.
        nf_count = 0  # literals not false under the assignment
        f_count = 0  # literals false above level 0
        w0 = 0  # first non-false literal
        w1 = 0  # second non-false literal
        top = 0  # deepest false-literal level
        deepest = 0  # a false literal at that level
        second = 0  # second-deepest false-literal level
        runner = 0  # a false literal at that level
        count_top = 0  # false literals at the deepest level
        for lit in litset:
            value = assign[lit]
            if value is None:
                if nf_count:
                    w1 = w1 or lit
                else:
                    w0 = lit
                nf_count += 1
                continue
            lvl = levels[lit if lit > 0 else -lit]
            if value:
                if lvl == 0:
                    return  # satisfied by a permanent assignment
                if nf_count:
                    w1 = w1 or lit
                else:
                    w0 = lit
                nf_count += 1
                continue
            if lvl == 0:
                continue  # permanently false; stays in the body unwatched
            f_count += 1
            if lvl > top:
                second, runner = top, deepest
                top, deepest = lvl, lit
                count_top = 1
            else:
                if lvl == top:
                    count_top += 1
                if lvl > second:
                    second, runner = lvl, lit
        if nf_count >= 2:
            if nf_count == len(litset):
                ordered = list(litset)
            else:
                ordered = [w0, w1]
                ordered += [
                    l for l in litset if l is not w0 and l is not w1
                ]
            ref = self._attach(ordered, learned)
            if key is not None:
                # ``bucket`` is the condensation loop's final lookup for
                # ``key`` -- reuse it instead of re-hashing.
                if bucket is None:
                    self._clause_index[key] = {mask: ref}
                else:
                    bucket[mask] = ref
            return
        if not f_count:
            self._backtrack(0)
            if not nf_count:
                self._unsat = True
            else:
                self._pending.append(w0)
            return
        if nf_count == 1:
            # Unit (or already satisfied) under the current assignment:
            # watch the non-false literal plus the deepest false one (a
            # false second watch is sound here because the clause is being
            # satisfied through the first watch right now; the deepest
            # choice un-falsifies the watch soonest on churn).
            ordered = [w0, deepest]
            ordered += [
                l for l in litset if l is not w0 and l is not deepest
            ]
            ref = self._attach(ordered, learned)
            if key is not None:
                # ``bucket`` is the condensation loop's final lookup for
                # ``key`` -- reuse it instead of re-hashing.
                if bucket is None:
                    self._clause_index[key] = {mask: ref}
                else:
                    bucket[mask] = ref
            if assign[w0] is None:
                self._enqueue(w0, ref)
            return
        if f_count == 1:
            self._backtrack(0)
            self._pending.append(deepest)
            return
        # Falsified by the current assignment: chronological repair.
        # Unwind only back to the deepest level the clause invalidates
        # (not to the root, and not to the assumption frontier).  The pop
        # must be a level *suffix*: unassigning a middle level while its
        # dependents stay assigned lets a popped variable reassign the
        # other way, after which conflict analysis -- whose per-variable
        # ``seen`` set assumes one polarity per variable across the
        # implication graph -- silently drops a tautology and learns an
        # unsound clause.  On enumeration workloads the invalidated level
        # is the deepest level anyway, so the suffix pop costs nothing.
        if count_top == 1:
            # Unit once the deepest level is gone: assert it with the
            # clause as reason.  ``deepest`` leads (reason slot-0
            # invariant) and the deepest remaining false literal takes
            # the second watch.  The suffix pop and the attach are
            # inlined here -- this is the once-per-model path of
            # blocking-clause enumeration.
            trail = self._trail
            tlim = self._trail_lim
            reasons = self._reasons
            phase = self._phase
            activity = self._activity
            heap = self._heap
            dirty = self._dirty_vars
            free = self._free
            target = tlim[top - 1]
            saved = []
            push = saved.append
            for lit in trail[target:]:
                var = lit if lit > 0 else -lit
                push(lit)
                push(reasons[var])
                dirty.append(var)
                phase[var] = lit > 0
                assign[lit] = None
                assign[-lit] = None
                reasons[var] = 0
                act = activity[var]
                if act:
                    heappush(heap, (-act, var))
                else:
                    free.append(var)
            self._saved = saved
            self._saved_pos = 0
            del trail[target:]
            del tlim[top - 1:]
            ordered = [deepest, runner]
            ordered += [
                l for l in litset if l is not deepest and l is not runner
            ]
            arena = self._arena
            arena.append(len(ordered) if learned else 0)
            arena.append(len(ordered))
            ref = len(arena)
            arena.extend(ordered)
            if learned:
                self._learned_refs.append(ref)
            watchlists = self._watchlists
            watchers = watchlists[deepest]
            watchers.append(ref)
            watchers.append(runner)
            watchers = watchlists[runner]
            watchers.append(ref)
            watchers.append(deepest)
            if key is not None:
                # ``bucket`` is the condensation loop's final lookup for
                # ``key`` -- reuse it instead of re-hashing.
                if bucket is None:
                    self._clause_index[key] = {mask: ref}
                else:
                    bucket[mask] = ref
            assign[deepest] = True
            assign[-deepest] = False
            dvar = deepest if deepest > 0 else -deepest
            levels[dvar] = len(tlim)
            reasons[dvar] = ref
            trail.append(deepest)
            self._qhead = len(trail) - 1
            stats = self.stats
            stats["propagations"] += 1
            stats["chrono_backtracks"] += 1
            if not stats["chrono_backtracks"] & _CHRONO_MASK:
                _JOURNAL.record(
                    "solver.chrono",
                    backtracks=stats["chrono_backtracks"],
                    propagations=stats["propagations"],
                )
        else:
            # Several literals of the deepest level are now unassigned:
            # any two of them are valid watches.
            self._backtrack(top - 1)
            unassigned = [
                l for l in litset
                if levels[l if l > 0 else -l] == top
            ]
            ordered = unassigned + [
                l for l in litset
                if levels[l if l > 0 else -l] != top
            ]
            ref = self._attach(ordered, learned)
            if key is not None:
                # ``bucket`` is the condensation loop's final lookup for
                # ``key`` -- reuse it instead of re-hashing.
                if bucket is None:
                    self._clause_index[key] = {mask: ref}
                else:
                    bucket[mask] = ref

    def _detach(self, ref):
        """Remove a clause from both watch lists; the body stays in the
        arena, so any reason slot naming this cref remains readable."""
        arena = self._arena
        watchlists = self._watchlists
        for lit in (arena[ref], arena[ref + 1]):
            watchers = watchlists[lit]
            for i in range(0, len(watchers), 2):
                if watchers[i] == ref:
                    end = len(watchers) - 2
                    watchers[i] = watchers[end]
                    watchers[i + 1] = watchers[end + 1]
                    del watchers[end:]
                    break

    def _attach(self, literals, learned, lbd=0):
        """Append a clause to the arena and watch its first two literals."""
        arena = self._arena
        arena.append((lbd or len(literals)) if learned else 0)
        arena.append(len(literals))
        ref = len(arena)
        arena.extend(literals)
        if learned:
            self._learned_refs.append(ref)
        watchlists = self._watchlists
        watchers = watchlists[literals[0]]
        watchers.append(ref)
        watchers.append(literals[1])
        watchers = watchlists[literals[1]]
        watchers.append(ref)
        watchers.append(literals[0])
        return ref

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self, assumptions=()):
        """Return a model as {var: bool}, or None if unsatisfiable.

        ``assumptions`` hold only for this call; clauses learned under
        them are derived by resolution from the database alone, so
        everything learned stays valid for every future call.  The trail
        of a SAT result is kept; the next call backtracks only to the
        longest assumption prefix shared with this one (full reuse for
        assumption-free enumeration loops).

        After an UNSAT result :meth:`unsat_core` names the subset of
        ``assumptions`` actually responsible.
        """
        self.stats["solve_calls"] += 1
        self._last_model = None
        self._conflict_core = None
        if not assumptions and not self._assumed and not self._pending:
            # Enumeration fast path: no assumptions now or on the kept
            # trail and no pending units means there is nothing to set
            # up or unwind -- go straight to the search.
            if self._unsat:
                self._conflict_core = ()
                return None
            self._assumptions = []
            result = self._search()
            if result is None and self._conflict_core is None:
                self._conflict_core = ()
            return result
        assumptions = list(assumptions)
        result = self._solve_under(assumptions)
        if result is None:
            if self._conflict_core is None:
                self._conflict_core = ()
            if assumptions:
                self.stats["assumption_cores"] += 1
                self.stats["core_literals"] += len(self._conflict_core)
        return result

    def unsat_core(self):
        """The failed-assumption core of the most recent UNSAT solve.

        Returns a tuple: a subset of the last ``solve`` call's assumptions
        such that the clause database conjoined with just those literals
        is already unsatisfiable (empty when the database alone is UNSAT).
        Returns None when the most recent solve was satisfiable.  The core
        is *a* small explanation, not guaranteed minimal -- it is read off
        the final implication graph (MiniSat's ``analyzeFinal``), so it
        costs no extra solving.
        """
        if self._conflict_core is None:
            return None
        return tuple(self._conflict_core)

    def _solve_under(self, assumptions):
        if self._unsat:
            return None
        for lit in assumptions:
            self.ensure_vars(lit if lit > 0 else -lit)
        if self._pending:
            self._backtrack(0)
            self._assumed = []
            while self._pending:
                if not self._enqueue(self._pending.pop()):
                    self._unsat = True
                    return None
            if self._propagate():
                self._unsat = True
                return None
        if assumptions or self._assumed:
            # Keep the trail prefix whose pseudo-decision levels assert the
            # same assumptions as this call; everything above must go.
            shared = 0
            old = self._assumed
            limit = min(len(assumptions), len(old), len(self._trail_lim))
            while shared < limit and assumptions[shared] == old[shared]:
                shared += 1
            self._backtrack(shared)
        self._assumed = []
        self._assumptions = assumptions
        return self._search()

    def _search(self):
        # The hot loop.  Propagation is inlined rather than calling
        # :meth:`_propagate` (which cold paths still use): the kernel
        # workload is hundreds of thousands of tiny solve calls, and the
        # per-call preamble of a method that binds a dozen locals costs
        # more than the propagation itself.  Counter writes are batched
        # into locals and flushed at the return points for the same
        # reason.
        assumptions = self._assumptions
        num_assumptions = len(assumptions)
        assign = self._assign
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        watchlists = self._watchlists
        trail = self._trail
        trail_lim = self._trail_lim
        stats = self.stats
        conflicts_here = 0
        restart_limit = self._restart_limit
        propagated = 0
        while True:
            # ---- inlined two-watched-literal propagation ----
            conflict = 0
            qhead = self._qhead
            depth = len(trail_lim)
            while qhead < len(trail):
                false_lit = -trail[qhead]
                qhead += 1
                watchers = watchlists[false_lit]
                if not watchers:
                    continue
                i = 0
                end = len(watchers)
                while i < end:
                    if assign[watchers[i + 1]] is True:
                        i += 2  # blocker satisfied: clause already true
                        continue
                    ref = watchers[i]
                    first = arena[ref]
                    if first == false_lit:
                        first = arena[ref + 1]
                        arena[ref] = first
                        arena[ref + 1] = false_lit
                    value = assign[first]
                    size = arena[ref - 1]
                    # Look for a replacement watch even when the clause is
                    # already satisfied by the other watch.  The textbook
                    # move is to cache ``first`` as the blocker and keep the
                    # watch here, but enumeration piles thousands of
                    # satisfied blocking clauses onto the few literals that
                    # flip every model; migrating the watch to a body
                    # literal parks the clause on a literal the counting
                    # search touches far less often, and a clause that
                    # cannot migrate is exactly one the search is about to
                    # need (unit or conflicting).
                    for k in range(ref + 2, ref + size):
                        other = arena[k]
                        if assign[other] is not False:
                            arena[ref + 1] = other
                            arena[k] = false_lit
                            moved = watchlists[other]
                            moved.append(ref)
                            moved.append(first)
                            break
                    else:
                        if value is True:
                            watchers[i + 1] = first  # cache the true watch
                            i += 2
                            continue
                        if value is False:
                            conflict = ref  # both watches false
                            break
                        assign[first] = True  # clause is unit
                        assign[-first] = False
                        var = first if first > 0 else -first
                        levels[var] = depth
                        reasons[var] = ref
                        trail.append(first)
                        propagated += 1
                        i += 2
                        continue
                    end -= 2  # watch moved: swap-remove from this list
                    watchers[i] = watchers[end]
                    watchers[i + 1] = watchers[end + 1]
                    del watchers[end:]
                if conflict:
                    break
            self._qhead = qhead
            if conflict:
                stats["conflicts"] += 1
                level = depth
                if level == 0:
                    # Conflict with no decisions at all: the DB is UNSAT.
                    stats["propagations"] += propagated
                    self._unsat = True
                    return None
                # Chronological fast path: exactly one literal of the
                # conflict clause sits at the current level, so the clause
                # is unit one level down -- no analysis, no learning, just
                # step back and flip it with the clause as reason.
                size = arena[conflict - 1]
                count = 0
                unit_lit = 0
                for k in range(conflict, conflict + size):
                    q = arena[k]
                    if levels[q if q > 0 else -q] == level:
                        count += 1
                        if count > 1:
                            break
                        unit_lit = q
                if count == 1 and level > num_assumptions:
                    self._backtrack(level - 1)
                    if arena[conflict] != unit_lit:
                        # The unit literal is the other watch: swap it into
                        # slot 0 (the reason slot-0 invariant).  Watcher
                        # lists are position-agnostic, so no re-wiring.
                        arena[conflict + 1] = arena[conflict]
                        arena[conflict] = unit_lit
                    assign[unit_lit] = True
                    assign[-unit_lit] = False
                    uvar = unit_lit if unit_lit > 0 else -unit_lit
                    levels[uvar] = len(trail_lim)
                    reasons[uvar] = conflict
                    trail.append(unit_lit)
                    propagated += 1
                    stats["chrono_backtracks"] += 1
                    if not stats["chrono_backtracks"] & _CHRONO_MASK:
                        _JOURNAL.record(
                            "solver.chrono",
                            backtracks=stats["chrono_backtracks"],
                            propagations=stats["propagations"],
                        )
                    continue
                self._act_inc /= _ACTIVITY_DECAY
                conflicts_here += 1
                learned, backjump, lbd = self._analyze(conflict)
                if (level - backjump > _CHRONO_JUMP_LIMIT
                        and level - 1 > num_assumptions):
                    # A huge backjump tears down a trail chronological
                    # stepping can keep; the learned clause is unit at
                    # level - 1 too (every non-UIP literal sits at or
                    # below the backjump level).
                    backjump = level - 1
                    stats["chrono_backtracks"] += 1
                    if not stats["chrono_backtracks"] & _CHRONO_MASK:
                        _JOURNAL.record(
                            "solver.chrono",
                            backtracks=stats["chrono_backtracks"],
                            propagations=stats["propagations"],
                        )
                self._backtrack(backjump)
                self._learn(learned, lbd)
                continue
            if conflicts_here and (
                conflicts_here >= restart_limit
                or (
                    self._lbd_count >= _LBD_WARMUP
                    and conflicts_here >= self.restart_base
                    and self._lbd_fast > self._lbd_slow * 1.25
                )
            ):
                stats["restarts"] += 1
                _JOURNAL.record(
                    "solver.restart",
                    restarts=stats["restarts"],
                    conflicts=stats["conflicts"],
                    learned=len(self._learned_refs),
                )
                self._luby_index += 1
                restart_limit = 2 * self.restart_base * _luby(self._luby_index)
                self._restart_limit = restart_limit
                conflicts_here = 0
                self._backtrack(0)
                # fall through: assumptions are re-asserted by the
                # decision loop below; trail saving and phases replay
                # the useful prefix cheaply
            if len(self._learned_refs) >= self._max_learned:
                self._reduce_db()
            depth = len(trail_lim)
            if depth < num_assumptions:
                lit = assumptions[depth]
                value = assign[lit]
                if value is None:
                    trail_lim.append(len(trail))
                    self._enqueue(lit)
                elif value:
                    # Dummy level: keeps level k <-> assumption k aligned.
                    trail_lim.append(len(trail))
                else:
                    # The assumption is falsified by the others + the DB.
                    stats["propagations"] += propagated
                    self._conflict_core = self._analyze_final(lit)
                    self._backtrack(0)
                    return None
                continue
            saved = self._saved
            spos = self._saved_pos
            send = len(saved)
            if spos < send:
                # Skip the already-re-derived prefix inline; the real
                # replay machinery only runs when an unassigned saved
                # entry is actually pending.
                while spos < send and assign[saved[spos]] is not None:
                    spos += 2
                self._saved_pos = spos
                if spos < send:
                    if not stats["conflicts"]:
                        # The solver has never had a conflict, so every
                        # activity is still zero and the replay gate
                        # ("no strictly better heap candidate") holds
                        # trivially -- replay inline without consulting
                        # the heap or the replay machinery.
                        lit = saved[spos]
                        ref = saved[spos + 1]
                        var = lit if lit > 0 else -lit
                        if ref and (
                            arena[ref] == lit or arena[ref + 1] == lit
                        ):
                            size = arena[ref - 1]
                            for k in range(ref, ref + size):
                                q = arena[k]
                                if q != lit and assign[q] is not False:
                                    break
                            else:
                                # Still unit on lit: re-propagate with
                                # the saved reason, no decision level.
                                if arena[ref] != lit:
                                    arena[ref + 1] = arena[ref]
                                    arena[ref] = lit
                                assign[lit] = True
                                assign[-lit] = False
                                levels[var] = len(trail_lim)
                                reasons[var] = ref
                                trail.append(lit)
                                propagated += 1
                                stats["saved_trail_literals"] += 1
                                self._saved_pos = spos + 2
                                continue
                        stats["decisions"] += 1
                        trail_lim.append(len(trail))
                        assign[lit] = True
                        assign[-lit] = False
                        levels[var] = len(trail_lim)
                        reasons[var] = 0
                        trail.append(lit)
                        propagated += 1
                        self._saved_pos = spos + 2
                        continue
                    if self._replay_saved():
                        continue
            num = self._num_vars
            if len(trail) == num:
                # Every variable is assigned, so the assignment *is* the
                # model; the trail is kept, and saved phases need no
                # refresh because ``_backtrack`` records polarities as
                # literals are popped.  Detecting this from the trail
                # length skips draining stale heap entries and the
                # all-vars fallback scan on the per-model hot path.
                # The model dict is rebuilt incrementally: only vars
                # unassigned since the last model (tracked by
                # ``_backtrack``) can have changed value, so patch those
                # into the persistent mirror and hand out a copy.
                master = self._model_master
                if master is None or len(master) != num:
                    master = dict(zip(range(1, num + 1), assign[1:num + 1]))
                    self._model_master = master
                else:
                    for v in self._dirty_vars:
                        master[v] = assign[v]
                self._dirty_vars.clear()
                self._last_model = master
                self._model_size = num
                self._assumed = assumptions
                stats["propagations"] += propagated
                return master.copy()
            var = None
            free = self._free
            if free:
                if stats["conflicts"]:
                    # Activities exist now: merge the zero-activity pool
                    # back into the heap so VSIDS order is respected.
                    activity = self._activity
                    heap = self._heap
                    for v in free:
                        if assign[v] is None:
                            heappush(heap, (-activity[v], v))
                    del free[:]
                else:
                    while free:
                        v = free.pop()
                        if assign[v] is None:
                            var = v
                            break
            if var is None:
                heap = self._heap
                while heap:
                    v = heappop(heap)[1]
                    if assign[v] is None:
                        var = v
                        break
                if var is None:
                    for v in range(1, num + 1):  # safety net
                        if assign[v] is None:
                            var = v
                            break
            stats["decisions"] += 1
            trail_lim.append(len(trail))
            lit = var if self._phase[var] else -var
            assign[lit] = True
            assign[-lit] = False
            levels[var] = len(trail_lim)
            reasons[var] = 0
            trail.append(lit)
            propagated += 1

    # ------------------------------------------------------------------
    # Trail saving
    # ------------------------------------------------------------------

    def _replay_saved(self):
        """Replay the saved trail suffix at a decision point.

        Saved propagations whose reason clause is still unit on their
        literal re-propagate at the current level without a decision;
        a saved decision is re-decided only while its activity still
        matches the branching heap's preference (otherwise replaying
        would neuter restarts).  Returns True when anything was enqueued
        (the caller must propagate before replaying further); a literal
        saved one way but now assigned the other way invalidates the
        whole suffix.
        """
        saved = self._saved
        pos = self._saved_pos
        end = len(saved)
        assign = self._assign
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        trail_lim = self._trail_lim
        stats = self.stats
        enqueued = False
        while pos < end:
            lit = saved[pos]
            if assign[lit] is not None:
                # Already re-derived (True) or the search flipped it
                # (False): either way this entry carries no work.
                pos += 2
                continue
            ref = saved[pos + 1]
            if ref:
                # Still a valid unit implication?  The literal must still
                # be watched (guards against watch migration) and every
                # other literal of the reason must be false.
                if arena[ref] == lit or arena[ref + 1] == lit:
                    size = arena[ref - 1]
                    for k in range(ref, ref + size):
                        q = arena[k]
                        if q != lit and assign[q] is not False:
                            break
                    else:
                        if arena[ref] != lit:
                            arena[ref + 1] = arena[ref]
                            arena[ref] = lit
                        var = lit if lit > 0 else -lit
                        assign[lit] = True
                        assign[-lit] = False
                        levels[var] = len(trail_lim)
                        reasons[var] = ref
                        trail.append(lit)
                        stats["propagations"] += 1
                        stats["saved_trail_literals"] += 1
                        pos += 2
                        enqueued = True
                        continue
            # A saved decision, or a propagation whose reason is no
            # longer unit: re-decide the literal while the branching
            # heap has no strictly better candidate (van der Tak trail
            # reuse -- without the gate, replaying would neuter
            # restarts).
            top = self._peek_branch()
            lit_var = lit if lit > 0 else -lit
            activity = self._activity
            if top is None or activity[lit_var] >= activity[top]:
                stats["decisions"] += 1
                trail_lim.append(len(trail))
                self._enqueue(lit)
                pos += 2
                enqueued = True
                break  # propagate before replaying further
            # The heap outgrew the suffix: drop the rest.
            self._saved = []
            pos = 0
            break
        self._saved_pos = pos
        return enqueued

    def _peek_branch(self):
        """The unassigned variable the branch heap would pick next."""
        heap = self._heap
        assign = self._assign
        while heap and assign[heap[0][1]] is not None:
            heappop(heap)
        return heap[0][1] if heap else None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict):
        """First-UIP analysis: learned clause, backjump level, and LBD.

        Resolves the conflicting clause backward along the trail on the
        recorded antecedents until exactly one literal of the conflict
        level remains.  The learned clause is ``[-UIP] + rest`` with the
        deepest literal of ``rest`` in the first-watch slot, asserting at
        ``max(level(rest))``.
        """
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        current = len(self._trail_lim)
        seen = set()
        learned = [0]  # slot 0 becomes the asserting (negated UIP) literal
        counter = 0
        index = len(trail)
        p = None
        ref = conflict
        start = 0  # the conflict clause contributes every literal
        while True:
            size = arena[ref - 1]
            for k in range(ref + start, ref + size):
                q = arena[k]
                var = q if q > 0 else -q
                if var in seen:
                    continue
                lvl = levels[var]
                if lvl == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if lvl == current:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                index -= 1
                p = trail[index]
                if (p if p > 0 else -p) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            ref = reasons[p if p > 0 else -p]
            start = 1  # antecedent slot 0 is the resolved literal itself
        learned[0] = -p
        if len(learned) > 2:
            self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0, 1
        max_i = 1
        max_lvl = levels[abs(learned[1])]
        for i in range(2, len(learned)):
            lvl = levels[abs(learned[i])]
            if lvl > max_lvl:
                max_lvl = lvl
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        lbd = len({levels[abs(q)] for q in learned[1:]}) + 1
        return learned, max_lvl, lbd

    def _minimize(self, learned, seen):
        """Recursive clause minimization: drop dominated literals.

        A literal is redundant when every path of its antecedent subgraph
        terminates in a level-0 fact or another literal of the clause
        (``seen`` doubles as the memo of proven-redundant variables).
        """
        kept = [learned[0]]
        removed = 0
        for lit in learned[1:]:
            if self._redundant(lit, seen):
                removed += 1
            else:
                kept.append(lit)
        if removed:
            self.stats["minimized_literals"] += removed
            learned[:] = kept

    def _redundant(self, lit, seen):
        arena = self._arena
        reasons = self._reasons
        levels = self._levels
        reason = reasons[lit if lit > 0 else -lit]
        if not reason:
            return False  # a decision (or assumption): not derivable
        stack = [reason]
        added = []
        while stack:
            ref = stack.pop()
            size = arena[ref - 1]
            for k in range(ref + 1, ref + size):
                q = arena[k]
                var = q if q > 0 else -q
                if var in seen or levels[var] == 0:
                    continue
                antecedent = reasons[var]
                if not antecedent:
                    for v in added:
                        seen.discard(v)
                    return False
                seen.add(var)
                added.append(var)
                stack.append(antecedent)
        return True

    def _learn(self, learned, lbd):
        """Store the analyzed clause and assert its UIP literal."""
        self.stats["learned_clauses"] += 1
        self._lbd_fast += (lbd - self._lbd_fast) * 0.03125
        self._lbd_slow += (lbd - self._lbd_slow) * 0.000244140625
        self._lbd_count += 1
        if len(learned) == 1:
            self._enqueue(learned[0])
            return
        ref = self._attach(learned, True, lbd)
        self._enqueue(learned[0], ref)

    def _analyze_final(self, lit):
        """Assumptions responsible for the assumption ``lit`` being false.

        Walks the implication graph backward from ``-lit`` (which is on
        the trail): every reached pseudo-decision is an assumption of the
        current solve and joins the core; propagated literals expand into
        their antecedents.  Level-0 facts never contribute.  Must run
        before the failing trail is backtracked away.
        """
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        var = lit if lit > 0 else -lit
        core = {lit}
        if levels[var] == 0 or not self._trail_lim:
            # ``-lit`` is a permanent consequence of the database: the
            # assumption conflicts with the DB all by itself.
            return (lit,)
        seen = {var}
        start = self._trail_lim[0]
        for trail_lit in reversed(self._trail[start:]):
            trail_var = trail_lit if trail_lit > 0 else -trail_lit
            if trail_var not in seen:
                continue
            reason = reasons[trail_var]
            if not reason:
                core.add(trail_lit)  # a pseudo-decision == an assumption
                continue
            size = arena[reason - 1]
            for k in range(reason + 1, reason + size):
                # slot 0 is the propagated literal itself
                q = arena[k]
                q_var = q if q > 0 else -q
                if levels[q_var] > 0:
                    seen.add(q_var)
        # Preserve the caller's assumption order (lit is among them).
        return tuple(a for a in self._assumptions if a in core)

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _reduce_db(self):
        """Delete the worst half of the learned clauses (by LBD, length).

        Binary clauses, glue clauses (LBD <= 2), and clauses locked as the
        reason of a current assignment survive.  Deleted clause bodies
        stay in the arena (no compaction), so crefs remembered by the
        saved trail keep reading valid -- and still implied -- literals.
        The cap grows geometrically after every reduction, so only
        finitely many deletions can ever happen on a fixed instance
        (termination).
        """
        arena = self._arena
        reasons = self._reasons
        learned = self._learned_refs
        locked = set()
        for lit in self._trail:
            ref = reasons[lit if lit > 0 else -lit]
            if ref:
                locked.add(ref)
        learned.sort(key=lambda ref: (arena[ref - 2], arena[ref - 1]))
        keep = len(learned) // 2
        kept = []
        deleted = set()
        for i, ref in enumerate(learned):
            if (i < keep or arena[ref - 2] <= 2 or arena[ref - 1] == 2
                    or ref in locked):
                kept.append(ref)
            else:
                deleted.add(ref)
        if deleted:
            self._learned_refs = kept
            for watchers in self._watchlists:
                if watchers:
                    write = 0
                    for read in range(0, len(watchers), 2):
                        ref = watchers[read]
                        if ref not in deleted:
                            watchers[write] = ref
                            watchers[write + 1] = watchers[read + 1]
                            write += 2
                    del watchers[write:]
            self.stats["deleted_clauses"] += len(deleted)
            _JOURNAL.record(
                "solver.reduce_db",
                deleted=len(deleted),
                kept=len(kept),
                total_deleted=self.stats["deleted_clauses"],
            )
        self._max_learned = int(self._max_learned * self._reduce_growth) + 1

    # ------------------------------------------------------------------
    # Propagation / trail
    # ------------------------------------------------------------------

    def _enqueue(self, lit, reason=0):
        assign = self._assign
        value = assign[lit]
        if value is not None:
            return value
        assign[lit] = True
        assign[-lit] = False
        var = lit if lit > 0 else -lit
        self._levels[var] = len(self._trail_lim)
        if reason:
            self._reasons[var] = reason
        self._trail.append(lit)
        self.stats["propagations"] += 1
        return True

    def _propagate(self):
        """Propagate until fixpoint; return a conflicting cref or 0.

        Watcher lists are flat ``[cref, blocker, ...]`` int pairs edited
        in place (swap-remove); a true blocker skips the clause with a
        single probe, clause literals are read straight out of the arena,
        and unit enqueues are inlined.
        """
        assign = self._assign
        watchlists = self._watchlists
        arena = self._arena
        trail = self._trail
        levels = self._levels
        reasons = self._reasons
        depth = len(self._trail_lim)
        qhead = self._qhead
        enqueued = 0
        conflict = 0
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watchlists[false_lit]
            if not watchers:
                continue
            i = 0
            end = len(watchers)
            while i < end:
                if assign[watchers[i + 1]] is True:
                    i += 2  # blocker satisfied: clause already true
                    continue
                ref = watchers[i]
                first = arena[ref]
                if first == false_lit:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = false_lit
                value = assign[first]
                if value is True:
                    watchers[i + 1] = first  # cache the satisfied watch
                    i += 2
                    continue
                size = arena[ref - 1]
                for k in range(ref + 2, ref + size):
                    other = arena[k]
                    if assign[other] is not False:
                        arena[ref + 1] = other
                        arena[k] = false_lit
                        moved = watchlists[other]
                        moved.append(ref)
                        moved.append(first)
                        break
                else:
                    if value is False:
                        conflict = ref  # both watches false
                        break
                    assign[first] = True  # clause is unit
                    assign[-first] = False
                    var = first if first > 0 else -first
                    levels[var] = depth
                    reasons[var] = ref
                    trail.append(first)
                    enqueued += 1
                    i += 2
                    continue
                end -= 2  # watch moved: swap-remove from this list
                watchers[i] = watchers[end]
                watchers[i + 1] = watchers[end + 1]
                del watchers[end:]
            if conflict:
                break
        self._qhead = qhead
        self.stats["propagations"] += enqueued
        return conflict

    def _backtrack(self, depth):
        if len(self._trail_lim) <= depth:
            return
        target = self._trail_lim[depth]
        trail = self._trail
        assign = self._assign
        reasons = self._reasons
        phase = self._phase
        activity = self._activity
        heap = self._heap
        # Remember the popped suffix (with reasons) for trail saving --
        # each backtrack overwrites the previous snapshot -- and unwind
        # in the same pass (pop order is unobservable mid-backtrack).
        saved = []
        push = saved.append
        dirty = self._dirty_vars
        free = self._free
        for lit in trail[target:]:
            var = lit if lit > 0 else -lit
            push(lit)
            push(reasons[var])
            dirty.append(var)
            phase[var] = lit > 0
            assign[lit] = None
            assign[-lit] = None
            reasons[var] = 0
            act = activity[var]
            if act:
                heappush(heap, (-act, var))
            else:
                free.append(var)
        self._saved = saved
        self._saved_pos = 0
        del trail[target:]
        del self._trail_lim[depth:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # Branching heuristic
    # ------------------------------------------------------------------

    def _bump(self, var):
        activity = self._activity
        bumped = activity[var] + self._act_inc
        activity[var] = bumped
        if bumped > _ACTIVITY_LIMIT:
            scale = 1.0 / _ACTIVITY_LIMIT
            for v in range(1, self._num_vars + 1):
                activity[v] *= scale
            self._act_inc *= scale
            bumped = activity[var]
        if self._assign[var] is None:
            heappush(self._heap, (-bumped, var))

    def _pick_branch(self):
        heap = self._heap
        assign = self._assign
        while heap:
            _, var = heappop(heap)
            if assign[var] is None:
                return var
        for var in range(1, self._num_vars + 1):  # safety net
            if assign[var] is None:
                return var
        return None


def solve_cnf(clauses, num_vars=0):
    """One-shot convenience wrapper around :class:`SatSolver`."""
    solver = SatSolver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
