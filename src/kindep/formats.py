"""Text formats for graph exchange.

Two formats are supported:

* edge-list: first non-comment line ``n m``, then m lines ``u v`` with
  0-based indices; ``#`` starts a comment line.
* DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then
  ``e u v`` lines with 1-based indices.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from .graph import Graph, build


class GraphFormatError(ValueError):
    """Malformed graph file; the message carries the offending line number."""


def _header(lineno: int, a: str, b: str) -> tuple[int, int]:
    """The vertex and edge counts of a header line."""
    try:
        n, m = int(a), int(b)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer header") from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative, got {n}")
    return n, m


def _edge(lineno: int, a: str, b: str, n: int, base: int) -> tuple[int, int]:
    """The 0-based edge of a line whose endpoints a, b count from `base`;
    errors name the line and the endpoints as the file counts them."""
    try:
        u, v = int(a) - base, int(b) - base
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer edge") from None
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop at vertex {u + base}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(
            f"line {lineno}: edge ({a}, {b}) out of range {base}..{n - 1 + base}")
    return u, v


def read_edge_list(stream: TextIO) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            n, m = _header(lineno, parts[0], parts[1])
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        edges.append(_edge(lineno, parts[0], parts[1], n, 0))
    if n is None:
        raise GraphFormatError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, file has {len(edges)}")
    return build(n, edges)


def read_dimacs(stream: TextIO) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: expected 'p edge n m'")
            n, m = _header(lineno, parts[2], parts[3])
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e u v'")
            edges.append(_edge(lineno, parts[1], parts[2], n, 1))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise GraphFormatError("missing 'p edge n m' line")
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, file has {len(edges)}")
    return build(n, edges)


def dumps_edge_list(g: Graph) -> str:
    """Canonical edge-list dump: sorted edges, no comments."""
    lines = [f"{g.n} {g.edge_count()}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


def load_graph(path: str | Path) -> Graph:
    """Read a graph file, sniffing the format from its first record."""
    text = Path(path).read_text()
    for line in text.splitlines():
        s = line.strip()
        if not s:
            continue
        if s.startswith(("p ", "c ")) or s in ("p", "c"):
            return read_dimacs(io.StringIO(text))
        break
    return read_edge_list(io.StringIO(text))
