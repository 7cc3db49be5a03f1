"""Quine-McCluskey prime implicant generation with don't-cares.

The slow reference for :mod:`repro.boolmin.primes`: the differential tests
check that the hitting-set generator returns exactly the primes listed
here that cover an on-minterm.  Implicants are ``(value, mask)`` pairs as
described there.
"""

from __future__ import annotations


def prime_implicants(minterms, dont_cares, num_vars):
    """Compute all prime implicants of the on-set given don't-cares.

    ``minterms`` and ``dont_cares`` are iterables of ints in
    ``[0, 2**num_vars)``.  Returns a sorted list of ``(value, mask)``
    pairs, including primes that cover only don't-cares.
    """
    current = {(m, 0) for m in set(minterms) | set(dont_cares)}
    primes = set()
    while current:
        merged = set()
        next_level = set()
        by_mask = {}
        for value, mask in current:
            by_mask.setdefault(mask, set()).add(value)
        for mask, values in by_mask.items():
            # Two implicants merge only if they share a mask and differ in
            # exactly one free bit, i.e. their popcounts differ by one.
            # Group by popcount so each value only probes the next group,
            # and hoist the free-bit list out of the inner loop.
            free_bits = [
                1 << b for b in range(num_vars) if not mask & (1 << b)
            ]
            by_count = {}
            for value in values:
                by_count.setdefault(bin(value).count("1"), set()).add(value)
            for count, group in by_count.items():
                partners = by_count.get(count + 1)
                if not partners:
                    continue
                for value in group:
                    for bit in free_bits:
                        if value & bit:
                            continue
                        partner = value | bit
                        if partner in partners:
                            merged.add((value, mask))
                            merged.add((partner, mask))
                            next_level.add((value, mask | bit))
        primes |= current - merged
        current = next_level
    return sorted(primes)
