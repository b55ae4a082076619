"""Generators for the named graph families used by the bound catalogue.

Vertex layout conventions are fixed so outputs are reproducible:

* ``j_graph(n)``: complete graph minus the perfect matching {(2i, 2i+1)}.
* ``complete_minus_clique(n, q)``: the removed clique sits on 0..q-1.
* ``complete_minus_cycle(n)``: the removed cycle is 0-1-...-(n-1)-0.
* ``star(m)``: center 0, leaves 1..m.
* ``wagner_r8()``: the 8-cycle i~i+1 plus the four diameters i~i+4.
* unions list their components left to right, indices shifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, GraphError, build, copies, disjoint_union, remove_edges_of

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny platform-independent 64-bit PRNG."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def complete(n: int) -> Graph:
    if n < 0:
        raise GraphError(f"n must be nonnegative, got {n}")
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def j_graph(n: int) -> Graph:
    """Complete graph on an even number of vertices minus a perfect matching."""
    if n < 2 or n % 2:
        raise GraphError(f"j_graph needs an even n >= 2, got {n}")
    return remove_edges_of(complete(n), [(2 * i, 2 * i + 1) for i in range(n // 2)])


def complete_minus_clique(n: int, q: int) -> Graph:
    if not 0 <= q <= n:
        raise GraphError(f"need 0 <= q <= n, got q={q}, n={n}")
    return remove_edges_of(
        complete(n), [(u, v) for u in range(q) for v in range(u + 1, q)]
    )


def complete_minus_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle removal needs n >= 3, got {n}")
    return remove_edges_of(complete(n), [(i, (i + 1) % n) for i in range(n)])


def star(m: int) -> Graph:
    if m < 0:
        raise GraphError(f"star needs m >= 0, got {m}")
    return build(m + 1, [(0, i) for i in range(1, m + 1)])


def wagner_r8() -> Graph:
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    return build(8, edges)


def thm14_5(d: int, q: int) -> Graph:
    """(K_{d+2} - E(K_3)) plus q copies of (K_{d+1} - E(K_3))."""
    if d < 2:
        raise GraphError(f"thm14_5 needs d >= 2, got {d}")
    if q < 0:
        raise GraphError(f"thm14_5 needs q >= 0, got {q}")
    if d > 4 + 6 * q:
        raise GraphError(f"thm14_5 needs d <= 4+6q, got d={d}, q={q}")
    g = complete_minus_clique(d + 2, 3)
    if q > 0:
        g = disjoint_union(g, copies(q, complete_minus_clique(d + 1, 3)))
    return g


def thm14_6(k: int) -> Graph:
    """(K_{k+3} - E(K_{k+1})) plus k copies of the star K_{1,k+1}."""
    if k < 2:
        raise GraphError(f"thm14_6 needs k >= 2, got {k}")
    return disjoint_union(complete_minus_clique(k + 3, k + 1), copies(k, star(k + 1)))


def thm12_2(k: int) -> Graph:
    """K_{1,k+1} plus k isolated vertices."""
    if k < 0:
        raise GraphError(f"thm12_2 needs k >= 0, got {k}")
    g = star(k + 1)
    if k > 0:
        g = disjoint_union(g, build(k, []))
    return g


def thm10_odd(d: int) -> Graph:
    """(d+3) copies of J_{d+1} plus (d+1) copies of J_{d+3}, d odd."""
    if d < 1 or d % 2 == 0:
        raise GraphError(f"thm10_odd needs odd d >= 1, got {d}")
    return disjoint_union(copies(d + 3, j_graph(d + 1)), copies(d + 1, j_graph(d + 3)))


def blend(g1: Graph, g2: Graph) -> Graph:
    """n(g2) copies of g1 plus n(g1) copies of g2; averages the two degrees."""
    if g1.n == 0 or g2.n == 0:
        raise GraphError("blend needs two nonempty graphs")
    return disjoint_union(copies(g2.n, g1), copies(g1.n, g2))


def _pair_decode(p: int) -> tuple[int, int]:
    # Inverse of the ranking (u, v) -> v(v-1)/2 + u over pairs with u < v.
    import math

    v = (1 + math.isqrt(1 + 8 * p)) // 2
    u = p - v * (v - 1) // 2
    return u, v


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly m edges.

    Fully determined by the seed: splitmix64 drives Floyd's algorithm for
    sampling m distinct pair ranks, which are decoded to edges.
    """
    if n < 0:
        raise GraphError(f"n must be nonnegative, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise GraphError(f"m={m} out of range [0, {total}] for n={n}")
    rng = SplitMix64(seed)
    chosen: set[int] = set()
    for j in range(total - m, total):
        t = rng.below(j + 1)
        chosen.add(t if t not in chosen else j)
    return build(n, [_pair_decode(p) for p in sorted(chosen)])


@dataclass(frozen=True)
class FamilySpec:
    """A parsed generator invocation, e.g. from a CLI string."""

    family: str
    parameters: tuple[int, ...] = ()
    seed: int | None = None
    sub_specs: tuple["FamilySpec", ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        if self.family == "blend":
            return "blend:" + "+".join(str(s) for s in self.sub_specs)
        parts = [str(p) for p in self.parameters]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return self.family + (":" + ",".join(parts) if parts else "")


# family -> (parameter names, constructor).  blend and gnm are built in
# make_graph: blend from two sub-specs, gnm with a seed and by calling the
# module-global random_gnm, so a wrapped random_gnm sees every call.
_FAMILIES = {
    "complete": (("n",), complete),
    "j": (("n",), j_graph),
    "complete_minus_clique": (("n", "q"), complete_minus_clique),
    "complete_minus_cycle": (("n",), complete_minus_cycle),
    "star": (("m",), star),
    "r8": ((), wagner_r8),
    "thm14_5": (("d", "q"), thm14_5),
    "thm14_6": (("k",), thm14_6),
    "thm12_2": (("k",), thm12_2),
    "thm10_odd": (("d",), thm10_odd),
    "gnm": (("n", "m"), None),
}


def parse_family(text: str) -> FamilySpec:
    """Parse strings like ``j:6``, ``thm14_5:d=3,q=0``, ``gnm:n=30,m=60,seed=7``
    or ``blend:j:4+complete:3``."""
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "blend":
        halves = rest.split("+")
        if len(halves) != 2:
            raise GraphError("blend takes exactly two '+'-separated specs")
        return FamilySpec("blend", sub_specs=tuple(parse_family(h) for h in halves))
    if name not in _FAMILIES:
        raise GraphError(f"unknown family '{name}'")
    names = _FAMILIES[name][0]
    positional: list[int] = []
    keyed: dict[str, int] = {}
    if rest:
        for tok in rest.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if "=" in tok:
                key, _, val = tok.partition("=")
                key = key.strip()
                if key != "seed" and key not in names:
                    raise GraphError(f"family '{name}' has no parameter '{key}'")
                try:
                    keyed[key] = int(val)
                except ValueError:
                    raise GraphError(f"non-integer value for '{key}'") from None
            else:
                try:
                    positional.append(int(tok))
                except ValueError:
                    raise GraphError(f"non-integer parameter '{tok}'") from None
    params: list[int] = []
    for i, pname in enumerate(names):
        if pname in keyed:
            params.append(keyed[pname])
        elif i < len(positional):
            params.append(positional[i])
        else:
            raise GraphError(f"family '{name}' needs parameter '{pname}'")
    seed = keyed.get("seed")
    if len(positional) > len(names):
        extra = positional[len(names):]
        if name == "gnm" and seed is None and len(extra) == 1:
            seed = extra[0]
        else:
            raise GraphError(f"too many parameters for family '{name}'")
    return FamilySpec(name, tuple(params), seed)


def make_graph(spec: FamilySpec, default_seed: int | None = None) -> Graph:
    """Instantiate a FamilySpec."""
    if spec.family == "blend":
        g1 = make_graph(spec.sub_specs[0], default_seed)
        g2 = make_graph(spec.sub_specs[1], default_seed)
        return blend(g1, g2)
    if spec.family == "gnm":
        seed = spec.seed if spec.seed is not None else default_seed
        if seed is None:
            raise GraphError("gnm needs a seed (seed=... or --seed)")
        return random_gnm(spec.parameters[0], spec.parameters[1], seed)
    if spec.family not in _FAMILIES:
        raise GraphError(f"unknown family '{spec.family}'")
    return _FAMILIES[spec.family][1](*spec.parameters)
