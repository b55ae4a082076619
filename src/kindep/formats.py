"""Text formats for graph exchange.

Two formats are supported:

* edge-list: first non-comment line ``n m``, then m lines ``u v`` with
  0-based indices; ``#`` starts a comment line.
* DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then
  ``e u v`` lines with 1-based indices.

A line ends at each line feed.  A stream opened in text mode with the
default ``newline`` argument has already turned CR LF and lone CR line
ends into line feeds.

Each reader walks the file line by line up to the header.  The text after
the header is then checked and parsed as one block by `_edge_block`, with
string and integer operations that run in C.  If that check rejects
anything, the reader goes on line by line from the header, and that loop
alone decides what is valid and which error is raised.
"""

from __future__ import annotations

import io
import operator
import re
from pathlib import Path
from typing import Iterable, TextIO

from .graph import Graph


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
    if m < 0:
        raise GraphFormatError(f"line {lineno}: edge count must be nonnegative, got {m}")
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


def _graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph on 0..n-1 with these checked edges; repeated edges collapse."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    g = Graph(adj)
    # Each neighbour tuple is sorted, so a repeated edge shows as equal neighbours.
    if any(any(map(operator.eq, s, s[1:])) for s in map(g.neighbors, range(n))):
        g = Graph(map(set, map(g.neighbors, range(n))))
    return g


# The lines of a text as iterating io.StringIO(text) gives them, each with
# its "\n", but without the four-byte-per-character copy StringIO makes.
_LINE = re.compile(r".*\n|.+")

# Matches at the start of the first line of a block that is not `prefix u v`
# in ASCII digits, spaces and tabs, or at the very end of a block that ends
# in a newline.  A whole-block fullmatch would say the same, but its
# backtracking stack grows with the file.
_BAD_LINE = {
    prefix: re.compile(rf"^(?![ \t]*{lead}[0-9]+[ \t]+[0-9]+[ \t]*$)", re.M)
    for prefix, lead in (("", ""), ("e", "e[ \t]+"))
}


def _edge_block(body: str, prefix: str, base: int, n: int, m: int) -> Graph | None:
    """The graph of `body`, the text after the header, when every line of it
    is an edge `prefix u v` in ASCII digits that `_edge` would accept and
    there are m of them; otherwise None."""
    bad = _BAD_LINE[prefix].search(body)
    if bad is not None and bad.start() < len(body):
        return None
    tokens = body.split()
    if prefix:
        del tokens[::3]
    if len(tokens) != 2 * m:  # two endpoints per line, so a repeated edge counts
        return None
    try:
        ends = list(map(int, tokens))
    except ValueError:  # more digits than int() converts
        return None
    del tokens  # free the strings before the graph is built
    if base:
        ends = [x - base for x in ends]
    us, vs = ends[0::2], ends[1::2]
    if ends and (min(ends) < 0 or max(ends) >= n) or any(map(operator.eq, us, vs)):
        return None
    return _graph(n, zip(us, vs))


def read_edge_list(stream: TextIO) -> Graph:
    text = stream.read()
    n = m = header = None
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        parts = line[0].split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            n, m = _header(lineno, parts[0], parts[1])
            header = lineno
            g = _edge_block(text[line.end():], "", 0, n, m)
            if g is not None:
                return g
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        edges.append(_edge(lineno, parts[0], parts[1], n, 0))
    if n is None:
        raise GraphFormatError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise GraphFormatError(f"line {header}: header announced {m} edges, file has {len(edges)}")
    return _graph(n, edges)


def read_dimacs(stream: TextIO) -> Graph:
    text = stream.read()
    n = m = header = None
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        parts = line[0].split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: expected 'p edge n m'")
            n, m = _header(lineno, parts[2], parts[3])
            header = lineno
            g = _edge_block(text[line.end():], "e", 1, n, m)
            if g is not None:
                return g
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e u v'")
            edges.append(_edge(lineno, parts[1], parts[2], n, 1))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise GraphFormatError("line 1: missing 'p edge n m' line")
    if len(edges) != m:
        raise GraphFormatError(f"line {header}: header announced {m} edges, file has {len(edges)}")
    return _graph(n, edges)


def dumps_edge_list(g: Graph) -> str:
    """Canonical edge-list dump: sorted edges, no comments."""
    lines = [f"{g.n} {g.edge_count()}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


# The first non-blank line, from its first non-whitespace character.
_FIRST_RECORD = re.compile(r"\s*([^\n]*)")


def load_graph(path: str | Path) -> Graph:
    """Read a graph file, sniffing the format from its first record."""
    text = Path(path).read_text()
    first = _FIRST_RECORD.match(text).group(1).splitlines()
    s = first[0].strip() if first else ""
    if s.startswith(("p ", "c ")) or s in ("p", "c"):
        return read_dimacs(io.StringIO(text))
    return read_edge_list(io.StringIO(text))
