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


def read_edge_list(stream: TextIO) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer edge") from None
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("line 1: missing 'n m' header")
    if m is not None and len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, file has {len(edges)}")
    try:
        return build(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def read_dimacs(stream: TextIO) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: expected 'p edge n m'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer edge") from None
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise GraphFormatError("missing 'p edge n m' line")
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, file has {len(edges)}")
    try:
        return build(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def write_edge_list(g: Graph, stream: TextIO) -> None:
    """Canonical edge-list dump: sorted edges, no comments."""
    stream.write(f"{g.n} {g.edge_count()}\n")
    for u, v in g.edges():
        stream.write(f"{u} {v}\n")


def dumps_edge_list(g: Graph) -> str:
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


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
