"""Exact values of alpha_k and chi_k on small graphs.

Two independent exact methods are provided for alpha_k: a bitmask
branch-and-bound (the workhorse, decomposing by connected components) and a
full subset enumeration (the cross-check for tiny graphs).  Every derived
quantity in the package ultimately leans on these, so they are kept simple
enough to audit.
"""

from __future__ import annotations

from . import algorithms
from .graph import (CertificateError, Graph, GraphError, WitnessSet, induced_subgraph,
                    verify_k_independent)

DEFAULT_ALPHA_LIMIT = 40
DEFAULT_CHI_LIMIT = 20
_BRUTEFORCE_CAP = 18


class OracleLimitError(GraphError):
    """The instance exceeds the configured exhaustive-search limit."""


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in g.neighbor_set(v):
            m |= 1 << u
        masks[v] = m
    return masks


def _components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue, comp = [s], [s]
        while queue:
            u = queue.pop()
            for w in g.neighbor_set(u):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
                    comp.append(w)
        comps.append(sorted(comp))
    return comps


class _BranchAndBound:
    """Maximize |C| over C inducing max degree <= k within one component.

    State is the candidate mask C.  If some v in C has more than k
    neighbors inside C, any feasible S contained in C either omits v or
    omits one of k+1 fixed neighbors of v (keeping all of them would push
    v's degree past k), so branching on those k+2 single-vertex removals
    covers every feasible subset.  Feasible C are records themselves.
    """

    def __init__(self, masks: list[int], k: int):
        self.masks = masks
        self.k = k
        self.best_size = -1
        self.best_mask = 0
        self.visited: set[int] = set()

    def seed(self, mask: int) -> None:
        size = mask.bit_count()
        if size > self.best_size:
            self.best_size = size
            self.best_mask = mask

    def search(self, candidates: int) -> None:
        if candidates in self.visited:
            return
        self.visited.add(candidates)
        size = candidates.bit_count()
        if size <= self.best_size:
            return
        worst_v, worst_d = -1, self.k
        m = candidates
        while m:
            bit = m & -m
            m ^= bit
            dv = (self.masks[bit.bit_length() - 1] & candidates).bit_count()
            if dv > worst_d:
                worst_v, worst_d = bit.bit_length() - 1, dv
        if worst_v < 0:
            self.best_size = size
            self.best_mask = candidates
            return
        self.search(candidates & ~(1 << worst_v))
        nbrs = self.masks[worst_v] & candidates
        for _ in range(self.k + 1):
            bit = nbrs & -nbrs
            nbrs ^= bit
            self.search(candidates & ~bit)


def alpha_k_exact(
    g: Graph, k: int, limit: int | None = None
) -> tuple[int, WitnessSet]:
    """Exact k-independence number with a witness set.

    Branch-and-bound per connected component, seeded with the deletion
    greedy's certified set.  Refuses graphs larger than `limit` (default
    40) rather than silently running for hours.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    eff_limit = DEFAULT_ALPHA_LIMIT if limit is None else limit
    if g.n > eff_limit:
        raise OracleLimitError(f"order n={g.n} exceeds oracle limit {eff_limit}")
    if g.n == 0:
        return 0, WitnessSet((), k)

    masks = _adjacency_masks(g)
    chosen: list[int] = []
    for comp in _components(g):
        comp_mask = 0
        for v in comp:
            comp_mask |= 1 << v
        sub, mapping = induced_subgraph(g, comp)
        seed_set, _ = algorithms.caro_tuza_greedy(sub, k)
        seed_mask = 0
        for v in seed_set.vertices:
            seed_mask |= 1 << mapping[v]
        bb = _BranchAndBound(masks, k)
        bb.seed(seed_mask)
        bb.search(comp_mask)
        best = bb.best_mask
        while best:
            bit = best & -best
            best ^= bit
            chosen.append(bit.bit_length() - 1)
    witness = WitnessSet(tuple(sorted(chosen)), k)
    if not verify_k_independent(g, witness.vertices, k):
        raise CertificateError("oracle witness is not k-independent")
    return witness.size, witness


def alpha_k_bruteforce(g: Graph, k: int) -> int:
    """alpha_k by checking all 2^n subsets; the independent cross-check."""
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    if g.n > _BRUTEFORCE_CAP:
        raise OracleLimitError(
            f"order n={g.n} exceeds enumeration cap {_BRUTEFORCE_CAP}"
        )
    masks = _adjacency_masks(g)
    best = 0
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= best:
            continue
        m = subset
        ok = True
        while m:
            bit = m & -m
            m ^= bit
            if (masks[bit.bit_length() - 1] & subset).bit_count() > k:
                ok = False
                break
        if ok:
            best = size
    return best


def chi_k_exact(g: Graph, k: int, limit: int | None = None) -> int:
    """Smallest number of classes each inducing max degree <= k.

    Tries class counts in ascending order with a backtracking assignment;
    classes are interchangeable, so a vertex may only open one fresh class
    beyond those already used.
    """
    if k < 0:
        raise GraphError(f"k must be nonnegative, got {k}")
    eff_limit = DEFAULT_CHI_LIMIT if limit is None else limit
    if g.n > eff_limit:
        raise OracleLimitError(f"order n={g.n} exceeds oracle limit {eff_limit}")
    if g.n == 0:
        return 0
    cap = -((g.max_degree() + 1) // -(k + 1))
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cls = [-1] * g.n
    own = [0] * g.n

    def place(pos: int, t: int, used: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        for c in range(min(used + 1, t)):
            cnt = 0
            blocked = False
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    cnt += 1
                    if cnt > k or own[u] >= k:
                        blocked = True
                        break
            if blocked:
                continue
            cls[v] = c
            own[v] = cnt
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    own[u] += 1
            if place(pos + 1, t, max(used, c + 1)):
                return True
            for u in g.neighbor_set(v):
                if cls[u] == c:
                    own[u] -= 1
            cls[v] = -1
        return False

    for t in range(1, cap + 1):
        for v in range(g.n):
            cls[v] = -1
            own[v] = 0
        if place(0, t, 0):
            return t
    raise CertificateError("equal-capacity partition bound violated")
