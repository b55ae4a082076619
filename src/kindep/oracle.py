"""Exact values of alpha_k and chi_k on small graphs.

alpha_k comes from a bitmask branch-and-bound that decomposes by connected
components, chi_k from a backtracking assignment to class masks; both, and
the components, read the same adjacency masks.  Every derived quantity in
the package leans on these, so they are kept simple enough to audit.

Both searches walk explicit stacks of immutable states, so deep searches
need no recursion and no move is ever undone.
The branch-and-bound carries a forced set along each branch: the vertices
every set beating the best in that subtree must contain.  It prunes with a
partition bound over the vertices that can still join the forced set,
tightened by a packing of disjoint stars K_{1,k+1} among the vertices with
no forced neighbor, and a k-aware degree-sum bound (a k-independent set of
G is a (k+1)-plex of the complement, so k-plex bounds apply; see
`_BranchAndBound`).  The forced sets also keep sibling subtrees disjoint,
so the search never meets a state twice and keeps no memo: its memory is a
stack at most n levels deep.
"""

from __future__ import annotations

from .graph import CertificateError, Graph, GraphError, WitnessSet, _check_k, verify_k_independent

DEFAULT_ALPHA_LIMIT = 40
DEFAULT_CHI_LIMIT = 20


class OracleLimitError(GraphError):
    """The instance exceeds the configured exhaustive-search limit."""


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in g.neighbors(v):
            m |= 1 << u
        masks[v] = m
    return masks


def _components(masks: list[int]) -> list[list[int]]:
    """Sorted vertex lists of the components, in order of least vertex."""
    comps = []
    rest = (1 << len(masks)) - 1
    while rest:
        comp = added = rest & -rest
        verts = []
        while added:  # grow by the neighbours of the vertices added last
            reach = 0
            while added:
                bit = added & -added
                added ^= bit
                verts.append(bit.bit_length() - 1)
                reach |= masks[verts[-1]]
            added = reach & ~comp
            comp |= added
        rest &= ~comp
        comps.append(sorted(verts))
    return comps


class _BranchAndBound:
    """Maximize |C| over C inducing max degree <= k within one component.

    A state is a candidate mask C and a forced mask P within it.  If some v
    in C has more than k neighbors inside C, any feasible S contained in C
    either omits v or omits one of k+1 fixed neighbors u_1..u_{k+1} of v
    (keeping all of them would push v's degree past k), so branching on
    those k+2 single-vertex removals covers every feasible subset.
    Feasible C are records themselves.

    `search` is one depth-first loop over the explicit stack `stack`, so
    depth costs no interpreter stack.  v is the max-degree vertex with the
    smallest index; removing v is tried first, then removing each u_i in
    index order.  `nodes` counts the states taken off the stack.

    Forced set.  Invariant: when (C, P) is popped, every feasible S in C
    with |S| > best contains P.  Child 0 (remove v) inherits P; child i
    (remove u_i) gets P + {v, u_1..u_{i-1}}.  Let S in C - u_i beat the
    best and contain P.  If S omits one of v, u_1..u_{i-1}, take the first
    it omits: S lies in that earlier child's candidates and contains its
    forced set, and that child's subtree was searched to the end before
    child i was popped, so best >= |S| already.  So S contains them all.
    A child that would remove a vertex of P holds no such S and is not
    pushed, so P stays inside C.  The same argument makes sibling subtrees
    disjoint: every state under child j lacks u_j (v for j = 0), and every
    state under a later child holds it in P.  So no state is popped twice
    and no memo is needed.  Each level of depth removes a vertex and leaves
    at most k+1 entries behind, so the stack holds O(n) states for fixed k.

    Bounds, with need = best + 1; each prunes only states that hold no set
    beating the best, so the search finds the same records in the same
    order as without them:

    * P itself is not k-independent.
    * Partition bound (after Jiang et al., IJCAI 2021).  A vertex w of
      C - P can join a feasible S containing P only if it is open: w has
      at most k neighbors in P and none of them already has k there.  Each
      open w with a neighbor in P joins the group of its lowest-index
      neighbor p in P; S takes at most k - deg_P(p) vertices of that group,
      since they are all neighbors of p.  So |S| <= |P| + (open vertices
      with no neighbor in P) + sum over p of min(|group p|,
      k - deg_P(p)), and the state is pruned when that is below need.
      It runs before the record test and often spares the degree pass: a
      feasible C is itself such an S, so its bound is |C| > best.
    * Star packing (after Moser, Niedermeier & Sorge, DMKD 2012).  Call
      the open vertices with no neighbor in P free; the partition bound
      counts each of them.  A k-independent S cannot hold a vertex c
      together with k+1 of its neighbors, so it misses a vertex of every
      star of G[free] with k+1 leaves, and vertex-disjoint stars lower the
      bound by one each.  Pruning takes gap = bound - need + 1 stars of
      k+2 vertices, so the packing runs only if gap(k+2) <= |free|: below
      that no packing prunes, so the trigger loses nothing.  It is greedy:
      centers in index order among the free vertices still unused, each
      with its k+1 lowest unused free neighbors as leaves, stopping at gap
      stars.  Like the partition bound it runs before the record test,
      which it never preempts: a feasible C holds no such star.
    * Degree-sum bound on T = P + open, which holds every S above.  With
      d(v) the degree of v inside T, let S in T be k-independent with
      |S| = need and R = T - S.  Each v in S has d(v) <= k + |R|, and
      sum_S (d(v) - k)+ <= e(S, R) <= sum_R d(u), so
      sum_S [d(v) + (d(v) - k)+] <= sum_T d.  That cost grows with d(v),
      so T fails when the need-th smallest degree exceeds k + |T| - need,
      or the costs of the need smallest degrees sum past sum_T d.  (A
      k-independent set of G is a (k+1)-plex of the complement, so k-plex
      degree bounds apply.)

    First dive.  Until the first record P is empty and need = 0, so no
    bound prunes: the partition bound is at least 0, gap = bound + 1
    exceeds |free|, and `search` skips the degree-sum tests, which could
    not prune either.  Each of those states removes the max-degree vertex
    with the smallest index, the vertex `graph._peel` deletes, so the
    first record is the greedy's set.
    """

    def __init__(self, masks: list[int], k: int):
        self.masks = masks
        self.k = k
        self.best_size = -1
        self.best_mask = 0
        self.nodes = 0
        self.stack: list[tuple[int, int]] = []

    def search(self, verts: list[int]) -> None:
        """Search the component on the sorted vertex list `verts`."""
        masks, k, stack = self.masks, self.k, self.stack
        stack.append((sum(1 << v for v in verts), 0))
        while stack:
            candidates, forced = stack.pop()
            self.nodes += 1
            size = candidates.bit_count()
            if size <= self.best_size:
                continue
            # room[p]: neighbors p in P may still gain; blocked: the
            # neighborhoods of the p in P with none to spare; cover[j]: the
            # vertices with more than j neighbors in P.
            room = {}
            blocked = 0
            cover = [0] * (k + 1)
            rest = forced
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                m = masks[p]
                for j in range(k, 0, -1):
                    cover[j] |= cover[j - 1] & m
                cover[0] |= m
                room[p] = spare = k - (m & forced).bit_count()
                if spare == 0:
                    blocked |= m
            if forced & cover[k]:  # P is not k-independent
                continue
            need = self.best_size + 1
            rest = candidates & ~forced
            free = rest & ~cover[0]
            bound = forced.bit_count() + free.bit_count()
            shut = rest & (blocked | cover[k])
            rest &= cover[0] & ~shut
            for p, spare in room.items():  # ascending: the lowest p takes w
                bound += min((masks[p] & rest).bit_count(), spare)
                rest &= ~masks[p]
            if bound < need:
                continue
            gap = bound - need + 1  # disjoint stars in G[free] needed to prune
            if gap * (k + 2) <= free.bit_count():
                untried = free
                while untried and gap:
                    bit = untried & -untried
                    untried ^= bit
                    leaves = masks[bit.bit_length() - 1] & free
                    if leaves.bit_count() > k:
                        free ^= bit
                        for _ in range(k + 1):
                            free ^= leaves & -leaves
                            leaves &= leaves - 1
                        untried &= free
                        gap -= 1
                if not gap:
                    continue
            alive = [v for v in verts if candidates >> v & 1]
            degrees = [(masks[v] & candidates).bit_count() for v in alive]
            if (worst_d := max(degrees)) <= k:
                self.best_size = size
                self.best_mask = candidates
                continue
            worst_v = alive[degrees.index(worst_d)]
            if need:  # else degrees[-1] < k + len(degrees) and low is empty
                if shut:
                    inside = candidates & ~shut
                    degrees = [(masks[v] & inside).bit_count() for v in alive if inside >> v & 1]
                degrees.sort()
                if degrees[need - 1] > k + len(degrees) - need:
                    continue
                low = degrees[:need]
                if sum(low) + sum(d - k for d in low if d > k) > sum(degrees):
                    continue
            nbrs = masks[worst_v] & candidates
            children = []
            if not forced >> worst_v & 1:
                children.append((candidates & ~(1 << worst_v), forced))
            forced |= 1 << worst_v
            for _ in range(k + 1):
                bit = nbrs & -nbrs
                nbrs ^= bit
                if not forced & bit:
                    children.append((candidates & ~bit, forced))
                forced |= bit
            stack.extend(reversed(children))


def alpha_k_exact(g: Graph, k: int, limit: int | None = None) -> tuple[int, WitnessSet]:
    """Exact k-independence number with a witness set.

    Branch-and-bound per connected component with no incumbent, so each
    first record is the deletion greedy's set on the component, which is
    the greedy's set on G restricted to it (see `_BranchAndBound`).
    The witness is the union of each component's first maximum set in the
    remove-a-vertex search order of `_BranchAndBound`, read off one mask
    in index order; the bounds only skip subtrees holding no better set,
    so they never change the witness.
    Refuses graphs larger than `limit` (default 40) rather than silently
    running for hours.  The search never repeats a state, so it keeps no
    memo and its memory is a stack at most n levels deep however long it
    runs.
    """
    _check_k(k)
    eff_limit = DEFAULT_ALPHA_LIMIT if limit is None else _check_k(limit, "limit")
    if g.n > eff_limit:
        raise OracleLimitError(f"order n={g.n} exceeds oracle limit {eff_limit}")
    masks = _adjacency_masks(g)
    chosen = 0
    for verts in _components(masks):
        # A k >= n exceeds every degree, so k = n searches the same states
        # and keeps the search's per-state lists small however large k is.
        bb = _BranchAndBound(masks, min(k, g.n))
        bb.search(verts)
        chosen |= bb.best_mask
    # A list: tuple() of a generator resizes as it grows, which raised peak RSS.
    witness = WitnessSet(tuple([v for v in range(g.n) if chosen >> v & 1]), k)
    if not verify_k_independent(g, witness.vertices, k):
        raise CertificateError("oracle witness is not k-independent")
    return witness.size, witness


def chi_k_exact(g: Graph, k: int, limit: int | None = None) -> int:
    """Smallest number of classes each inducing max degree <= k.

    Tries class counts in ascending order with a depth-first assignment of
    vertices, in decreasing degree order, over an explicit stack.  A state
    is the next position and the tuple of used classes as vertex masks; a
    child is a new tuple, so nothing is undone.  v may join a class where
    it has at most k neighbours, none of which has k already, or open one
    fresh class, since classes are interchangeable.  The counts start at
    ceil(|Q| / (k+1)) for a greedy clique Q, since a class meets a clique
    in at most k+1 vertices; every count skipped would have been refuted.
    """
    _check_k(k)
    eff_limit = DEFAULT_CHI_LIMIT if limit is None else _check_k(limit, "limit")
    if g.n > eff_limit:
        raise OracleLimitError(f"order n={g.n} exceeds oracle limit {eff_limit}")
    masks = _adjacency_masks(g)
    cap = -((g.max_degree() + 1) // -(k + 1))
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    clique = 0
    for v in order:
        if not clique & ~masks[v]:
            clique |= 1 << v
    for t in range(-(clique.bit_count() // -(k + 1)), cap + 1):
        stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        while stack:
            pos, classes = stack.pop()
            if pos == g.n:
                return t
            v = order[pos]
            bit = 1 << v
            children = []
            for i, cm in enumerate(classes):
                inside = masks[v] & cm
                if inside.bit_count() > k:
                    continue
                while inside:  # a neighbour that already has k closes cm to v
                    low = inside & -inside
                    if (masks[low.bit_length() - 1] & cm).bit_count() >= k:
                        break
                    inside ^= low
                else:
                    children.append((pos + 1, classes[:i] + (cm | bit,) + classes[i + 1:]))
            if len(classes) < t:
                children.append((pos + 1, classes + (bit,)))
            stack.extend(reversed(children))  # ascending classes pop first
    raise CertificateError("equal-capacity partition bound violated")
