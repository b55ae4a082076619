"""Text formats for graph exchange.

Two formats are supported:

* edge-list: first non-comment line ``n m``, then m lines ``u v`` with
  0-based indices; ``#`` starts a comment line.
* DIMACS-like: ``c`` comment lines, one ``p edge n m`` header, then
  ``e u v`` lines with 1-based indices.

A line ends at each line feed.  A stream opened in text mode with the
default ``newline`` argument has already turned CR LF and lone CR line
ends into line feeds.

Each reader walks the file line by line up to the header.  `_edge_block`
then reads the rest with one `bytes.translate` as its gate and one
`json.loads` as its parse, when it is what `dumps_edge_list` and `kindep gen`
write: m ASCII lines `u v` (DIMACS: `e u v`), one space or tab between
fields, no other blank, comment or leading zero, and a final line feed.  Any
other text, or any failed check, sends the reader on line by line from the
header; that loop alone decides what is valid and which error is raised.
Either way the edges go to `graph.build`, the one adjacency builder, which
checks the range and self-loops of the block; the line loop's own checks
come first, so that its errors name the line.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from typing import TextIO

from .graph import Graph, GraphError, build


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


# The lines of a text as iterating io.StringIO(text) gives them, each with
# its "\n", but without the four-byte-per-character copy StringIO makes.
_LINE = re.compile(r".*\n|.+")

# Once tabs are spaces and digits are gone, what each edge line leaves.
_SEPARATORS = {"": b" \n", "e": b"e  \n"}
_TAB_TO_SPACE = bytes.maketrans(b"\t", b" ")
_TO_COMMA = bytes.maketrans(b" \t\n", b",,,")


def _edge_block(body: str, prefix: str, base: int, n: int, m: int) -> Graph | None:
    """The graph of `body`, the text after the header, when it is m lines
    `prefix u v` with single spaces or tabs, each ending in a line feed, in
    ASCII digits without a leading zero, whose edges `build` accepts; else
    None.

    Proof.  The gate passes exactly the ASCII bodies of m lines `E s D s D f`
    (edge list: `D s D f`) and a last D, each D a run of digits, maybe empty,
    each E an e with digits maybe glued on, s a space or tab and f the line
    feed.  The DIMACS checks make each E a bare e: the first line starts
    `e s`, and m - 1 more e's sit between two separators.  With separators
    as commas and one final comma dropped, JSON reads 2m integers exactly
    when the last D is empty and no other D is empty or has a needless
    leading 0.  Then line i holds the two tokens D that `line.split()`
    gives, and JSON reads them as `int` does.  Less `base`, `build` rejects
    exactly the edges `_edge` rejects: a self-loop, or an endpoint outside
    0..n-1, such as a DIMACS 0, which becomes -1."""
    if not body.isascii() or 4 * m > len(body):  # 4 bytes a line at least; bounds `* m`
        return None
    raw = body.encode()
    if raw.translate(_TAB_TO_SPACE, b"0123456789") != _SEPARATORS[prefix] * m:
        return None
    fields = raw.translate(_TO_COMMA).removesuffix(b",")
    if prefix:
        if fields[:2] != b"e," or fields.count(b",e,") != m - 1:
            return None
        fields = fields[2:].replace(b",e,", b",")
    try:
        ends = json.loads(b"[" + fields + b"]")
    except ValueError:  # an empty token, a leading zero or too many digits
        return None
    if len(ends) != 2 * m:
        return None
    if base:
        ends = [x - base for x in ends]
    try:
        return build(n, zip(ends[0::2], ends[1::2]))
    except GraphError:  # a self-loop or an endpoint out of range
        return None


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
    return build(n, edges)


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
    return build(n, edges)


def dumps_edge_list(g: Graph) -> str:
    """Canonical edge-list dump: sorted edges, no comments."""
    lines = [f"{g.n} {g.edge_count()}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    return "".join(lines)


# The first token of the text, as `str.split` finds it.
_FIRST_TOKEN = re.compile(r"\s*(\S*)")


def load_graph(path: str | Path) -> Graph:
    """Read a graph file, sniffing the format from its first token by
    `read_dimacs`'s rule: a comment or a problem line starts DIMACS."""
    text = Path(path).read_text()
    first = _FIRST_TOKEN.match(text)[1]
    if first.startswith("c") or first == "p":
        return read_dimacs(io.StringIO(text))
    return read_edge_list(io.StringIO(text))
