"""Exact values of alpha_k and chi_k on small graphs.

Two independent exact methods are provided for alpha_k: a bitmask
branch-and-bound (the workhorse, decomposing by connected components) and a
full subset enumeration (the cross-check for tiny graphs).  Every derived
quantity in the package ultimately leans on these, so they are kept simple
enough to audit.

Both searches walk explicit stacks, so deep searches need no recursion.
The branch-and-bound prunes with a k-aware degree-sum bound (a
k-independent set of G is a (k+1)-plex of the complement, so k-plex degree
bounds apply; see `_BranchAndBound`).  Its memo of visited states is
capped at `_MEMO_CAP` per component; a search that needs more raises
OracleLimitError, which the CLI reports with exit code 2.
"""

from __future__ import annotations

from . import algorithms
from .graph import (CertificateError, Graph, GraphError, WitnessSet, induced_subgraph,
                    verify_k_independent)

DEFAULT_ALPHA_LIMIT = 40
DEFAULT_CHI_LIMIT = 20
_BRUTEFORCE_CAP = 18
_MEMO_CAP = 2_000_000  # states the alpha_k search may remember per component


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

    `search` is one depth-first loop over an explicit stack, so depth costs
    no interpreter stack.  v is the max-degree vertex with the smallest
    index; removing v is tried first, then removing each of its k+1
    lowest-index neighbors.  A memo of the states seen skips repeats; past
    `_MEMO_CAP` states the search raises OracleLimitError.  `nodes` counts
    the states taken off the stack, repeats included.

    Degree-sum bound, with d(v) the degree of v inside C and
    need = best_size + 1.  Let S in C be k-independent with |S| = need and
    R = C - S.  Each v in S has d(v) <= k + |R|, and
    sum_S (d(v) - k)+ <= e(S, R) <= sum_R d(u), so
    sum_S [d(v) + (d(v) - k)+] <= sum_C d.  That cost grows with d(v), so
    C is pruned when the need-th smallest degree exceeds k + |C| - need,
    or the costs of the need smallest degrees sum past sum_C d.  A pruned
    state holds no set beating the best, so the search finds the same
    records in the same order as without the bound.
    """

    def __init__(self, masks: list[int], k: int):
        self.masks = masks
        self.k = k
        self.best_size = -1
        self.best_mask = 0
        self.visited: set[int] = set()
        self.nodes = 0

    def seed(self, mask: int) -> None:
        size = mask.bit_count()
        if size > self.best_size:
            self.best_size = size
            self.best_mask = mask

    def search(self, root: int) -> None:
        masks, k, visited = self.masks, self.k, self.visited
        memo_cap = _MEMO_CAP
        verts = [v for v in range(root.bit_length()) if root >> v & 1]
        stack = [root]
        while stack:
            candidates = stack.pop()
            self.nodes += 1
            if candidates in visited:
                continue
            if len(visited) >= memo_cap:
                raise OracleLimitError(
                    f"the search memo passed {memo_cap} states;"
                    " use a smaller graph or a lower --limit"
                )
            visited.add(candidates)
            size = candidates.bit_count()
            if size <= self.best_size:
                continue
            degrees = []
            worst_v, worst_d = -1, k
            for v in verts:
                if candidates >> v & 1:
                    dv = (masks[v] & candidates).bit_count()
                    degrees.append(dv)
                    if dv > worst_d:
                        worst_v, worst_d = v, dv
            if worst_v < 0:
                self.best_size = size
                self.best_mask = candidates
                continue
            # Degree-sum bound; see the class docstring.
            need = self.best_size + 1
            degrees.sort()
            if degrees[need - 1] > k + size - need:
                continue
            low = degrees[:need]
            if sum(low) + sum(d - k for d in low if d > k) > sum(degrees):
                continue
            nbrs = masks[worst_v] & candidates
            children = [candidates & ~(1 << worst_v)]
            for _ in range(k + 1):
                bit = nbrs & -nbrs
                nbrs ^= bit
                children.append(candidates & ~bit)
            stack.extend(reversed(children))


def alpha_k_exact(
    g: Graph, k: int, limit: int | None = None
) -> tuple[int, WitnessSet]:
    """Exact k-independence number with a witness set.

    Branch-and-bound per connected component, seeded with the deletion
    greedy's certified set.  Refuses graphs larger than `limit` (default
    40) rather than silently running for hours, and raises
    OracleLimitError when a component's search memo passes `_MEMO_CAP`.
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

    Tries class counts in ascending order with a backtracking assignment
    over vertices in decreasing degree order, one depth-first loop over an
    explicit stack; classes are interchangeable, so a vertex may only open
    one fresh class beyond those already used.  The counts start at
    ceil(|Q| / (k+1)) for a greedy clique Q, since a class meets a clique
    in at most k+1 vertices; every count skipped would have been refuted.
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
    cls = [-1] * g.n  # class of each placed vertex, -1 if unplaced
    own = [0] * g.n  # neighbors of a placed vertex inside its class

    def options(v: int, t: int, used: int) -> list[tuple[int, int]]:
        """(class, v's neighbors in it) for each class in 0..used that v may
        join: v gets at most k neighbors there, none of which has k already.
        Placed vertices fill classes 0..used-1."""
        count = [0] * min(used + 1, t)
        for u in g.neighbors(v):
            c = cls[u]
            if c >= 0:
                # A neighbor that already has k closes its class to v.
                count[c] += 1 if own[u] < k else k + 1
        return [(c, n) for c, n in enumerate(count) if n <= k]

    clique: set[int] = set()
    for v in order:
        if clique <= g.neighbor_set(v):
            clique.add(v)
    for t in range(-(len(clique) // -(k + 1)), cap + 1):
        # One entry per placed or pending position: (position, the classes
        # left to try there, classes used before it).  Every failed count
        # unwinds to all vertices unplaced.
        stack = [(0, iter(options(order[0], t, 0)), 0)]
        while stack:
            pos, untried, used = stack[-1]
            v = order[pos]
            c = cls[v]
            if c >= 0:  # undo the previous try at this position
                for u in g.neighbors(v):
                    if cls[u] == c:
                        own[u] -= 1
                cls[v] = -1
            nxt = next(untried, None)
            if nxt is None:
                stack.pop()
                continue
            c, own[v] = nxt
            cls[v] = c
            for u in g.neighbors(v):
                if cls[u] == c:
                    own[u] += 1
            if pos + 1 == g.n:
                return t
            used = max(used, c + 1)
            stack.append((pos + 1, iter(options(order[pos + 1], t, used)), used))
    raise CertificateError("equal-capacity partition bound violated")
