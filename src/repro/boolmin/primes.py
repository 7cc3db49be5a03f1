"""Prime implicants as minimal hitting sets (the blocking-matrix view).

An implicant over ``n`` variables is a pair ``(value, mask)`` of ints: bit
``i`` of ``mask`` set means variable ``i`` is unconstrained (a dash);
otherwise bit ``i`` of ``value`` gives the required polarity.

A cube containing on-minterm ``m`` avoids off-minterm ``o`` exactly when
one of its fixed variables differs between the two, i.e. when its set of
fixed variables meets the difference mask ``m ^ o``.  The primes covering
``m`` are therefore the *minimal* fixed-variable sets hitting every
difference mask: the minimal transversals of the blocking hypergraph
``{m ^ o : o in off-set}`` (ESPRESSO's blocking matrix; Brayton et al.,
*Logic Minimization Algorithms for VLSI Synthesis*, 1984).  They are
enumerated with Berge's incremental transversal algorithm.

The search runs over the on- and off-sets only, so its cost does not grow
with the don't-care set -- unlike Quine-McCluskey, which expands every
prime of on ∪ dc.  MinFix truth tables are mostly don't-cares (theory-infeasible
rows), which is where this matters.  Quine-McCluskey stays in
:mod:`repro.boolmin.quine_mccluskey` as the test oracle.
"""

from __future__ import annotations


def implicant_covers(implicant, minterm):
    value, mask = implicant
    return (minterm | mask) == (value | mask)


def implicant_literals(implicant, num_vars):
    """Number of literals (non-dash positions) in the implicant."""
    return num_vars - implicant[1].bit_count()


def minimal_transversals(singles, edges):
    """Berge's algorithm: every minimal bitmask meeting each edge.

    The hypergraph is given as ``singles``, the OR of its one-bit edges,
    plus ``edges``, its other edges as bitmasks, none of which meets
    ``singles``.  An empty hypergraph has the single transversal 0.
    """
    # Every transversal contains each one-bit edge, so they seed the
    # recursion; only the inclusion-minimal other edges constrain it.
    minimal = []
    for edge in sorted(set(edges), key=int.bit_count):
        if all(k & edge != k for k in minimal):
            minimal.append(edge)
    transversals = [singles]
    for edge in minimal:
        hit = [t for t in transversals if t & edge]
        grown = set()
        for t in transversals:
            if t & edge:
                continue
            bits = edge
            while bits:
                low = bits & -bits
                bits ^= low
                grown.add(t | low)
        # Sets already hitting ``edge`` stay minimal, and no grown set
        # contains another (the old sets form an antichain), so a grown set
        # is minimal unless it contains one of ``hit``.
        transversals = hit + [
            g for g in grown if all(h & g != h for h in hit)
        ]
    return transversals


def prime_implicants(minterms, dont_cares, num_vars):
    """Every prime implicant that covers at least one on-minterm.

    ``minterms`` and ``dont_cares`` are iterables of ints in
    ``[0, 2**num_vars)``; every other row is off.  Returns a sorted list
    of ``(value, mask)`` pairs: the primes of on ∪ dc that a cover can
    use, in the order Quine-McCluskey's sorted output lists them.
    """
    minterms = set(minterms)
    full = (1 << num_vars) - 1
    specified = minterms.union(dont_cares)
    off_set = [m for m in range(full + 1) if m not in specified]
    off_lookup = set(off_set)
    bits = [1 << b for b in range(num_vars)]
    primes = set()
    for m in minterms:
        # Off-rows one flip away give one-bit difference masks; every
        # other mask containing such a bit is already hit.
        singles = 0
        for bit in bits:
            if m ^ bit in off_lookup:
                singles |= bit
        edges = [d for o in off_set if not (d := m ^ o) & singles]
        for fixed in minimal_transversals(singles, edges):
            primes.add((m & fixed, full & ~fixed))
    return sorted(primes)
