"""Reference chunk counts for METEOR-lite, used only by tests.

`backtrack_chunks` is the exact backtracking search the package used
before its pruned search, kept as the reference: it returns None where
it runs out of its node budget instead of guessing. `brute_chunks`
enumerates every maximum alignment and is only fit for short inputs.
"""

from collections import Counter
from itertools import combinations, permutations

BACKTRACK_BUDGET = 200_000


def backtrack_chunks(cand, ref, m):
    """Minimum chunks, or None when the search spends its budget."""
    counts = Counter(cand) & Counter(ref)
    best = [m]  # upper bound: every match its own chunk
    nodes = [0]

    def search(ci, remaining, used, chunks, last_ref, taken):
        """last_ref = ref index matched at candidate position ci-1, else -2."""
        if nodes[0] > BACKTRACK_BUDGET or chunks >= best[0]:
            return
        nodes[0] += 1
        if used == m:
            best[0] = chunks
            return
        if ci == len(cand):
            return
        need = m - used
        if need > len(cand) - ci:
            return
        w = cand[ci]
        if remaining[w] > 0:
            for rj in range(len(ref)):
                if ref[rj] != w or rj in taken:
                    continue
                extra = 0 if rj == last_ref + 1 and last_ref >= 0 else 1
                remaining[w] -= 1
                taken.add(rj)
                search(ci + 1, remaining, used + 1, chunks + extra, rj, taken)
                taken.remove(rj)
                remaining[w] += 1
        search(ci + 1, remaining, used, chunks, -2, taken)

    search(0, counts.copy(), 0, 0, -2, set())
    return None if nodes[0] > BACKTRACK_BUDGET else best[0]


def alignment_chunks(pairs):
    """Chunks of an alignment given as (candidate, reference) index pairs."""
    pairs = sorted(pairs)
    return len(pairs) - sum(c2 == c1 + 1 and r2 == r1 + 1
                            for (c1, r1), (c2, r2) in zip(pairs, pairs[1:]))


def brute_chunks(cand, ref):
    """Minimum chunks over all maximum alignments, by enumeration."""
    best = None
    words = sorted(set(cand) & set(ref))
    options = []
    for w in words:
        cs = [i for i, t in enumerate(cand) if t == w]
        rs = [j for j, t in enumerate(ref) if t == w]
        k = min(len(cs), len(rs))
        options.append([list(zip(c, r)) for c in combinations(cs, k)
                        for r in permutations(rs, k)])

    def walk(i, pairs):
        nonlocal best
        if i == len(options):
            chunks = alignment_chunks(pairs)
            best = chunks if best is None else min(best, chunks)
            return
        for choice in options[i]:
            walk(i + 1, pairs + choice)

    walk(0, [])
    return best
