"""Line-oriented text serialization for every instance type.

One document is a header line followed by body lines; ``#`` starts a
comment. Formats:

    TWG |A| |B| |C| [MOD p]      then  AB u v w | BC u v w | CA u v w
    CVG |I| |J| |K| sides        then  IJ u v color [value]   (JK, IK alike)
                                 sides: comma-joined subset of IJ,JK,IK or -
    IMX rows cols                then  one line of entries per row
                                 (entries decimal, sentinels: inf / -inf)
    SFI |U| |F| q [CAP T]        then  S i : e1 e2 ...  and  Q i j

``parse(serialize(x))`` is structurally the identity for every instance.
"""

from __future__ import annotations

from typing import Optional

from .instances import (COLORED_PAIRS, WEIGHTED_PAIRS, ColoredValuedGraph,
                        IntMatrix, MINUS_INF, PLUS_INF, SetFamilyInstance,
                        TripartiteWeightedGraph)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The matrix entries written and read by name.
_SENTINELS = {"inf": PLUS_INF, "-inf": MINUS_INF}


def serialize(instance) -> str:
    """Render any supported instance as a text document (trailing newline)."""
    lines: list[str] = []
    if isinstance(instance, TripartiteWeightedGraph):
        na, nb, nc = instance.part_sizes
        header = f"TWG {na} {nb} {nc}"
        if instance.weight_modulus is not None:
            header += f" MOD {instance.weight_modulus}"
        lines.append(header)
        for pair in WEIGHTED_PAIRS:
            for u, v, w in instance.edges(pair):
                lines.append(f"{pair} {u} {v} {w}")
    elif isinstance(instance, ColoredValuedGraph):
        ni, nj, nk = instance.part_sizes
        sides = ",".join(s for s in COLORED_PAIRS
                         if s in instance.value_sides) or "-"
        lines.append(f"CVG {ni} {nj} {nk} {sides}")
        for pair in COLORED_PAIRS:
            for u, v, c, val in instance.edges(pair):
                if val is None:
                    lines.append(f"{pair} {u} {v} {c}")
                else:
                    lines.append(f"{pair} {u} {v} {c} {val}")
    elif isinstance(instance, IntMatrix):
        lines.append(f"IMX {instance.rows} {instance.cols}")
        names = {v: name for name, v in _SENTINELS.items()}
        if instance.cols > 0:  # zero-width rows would be blank lines
            for row in instance.to_rows():
                lines.append(" ".join(names.get(v, str(v)) for v in row))
    elif isinstance(instance, SetFamilyInstance):
        header = f"SFI {instance.universe_size} {len(instance.family)} {len(instance.queries)}"
        if instance.output_cap is not None:
            header += f" CAP {instance.output_cap}"
        lines.append(header)
        for i, members in enumerate(instance.family):
            lines.append(f"S {i} : " + " ".join(str(e) for e in members))
        for a, b in instance.queries:
            lines.append(f"Q {a} {b}")
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return "\n".join(lines) + "\n"


def _int(tok: str, line_no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {tok!r}") from None


def _numbered_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def parse_documents(text: str) -> list:
    """Parse a file holding one or more concatenated documents."""
    out = []
    pending: list[tuple[int, list[str]]] = []
    for line_no, toks in _numbered_lines(text):
        if toks[0] in _PARSERS and pending:
            out.append(_parse_block(pending))
            pending = []
        pending.append((line_no, toks))
    if pending:
        out.append(_parse_block(pending))
    if not out:
        raise ParseError(0, "empty document")
    return out


def parse(text: str):
    """Parse a single-instance document."""
    docs = parse_documents(text)
    if len(docs) != 1:
        raise ParseError(0, f"expected one document, found {len(docs)}")
    return docs[0]


def _parse_block(lines: list[tuple[int, list[str]]]):
    line_no, toks = lines[0]
    if toks[0] not in _PARSERS:
        raise ParseError(line_no, f"unknown document type {toks[0]!r}")
    try:
        return _PARSERS[toks[0]](lines)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def _parse_twg(lines) -> TripartiteWeightedGraph:
    line_no, toks = lines[0]
    modulus = None
    if len(toks) == 6 and toks[4] == "MOD":
        modulus = _int(toks[5], line_no, "modulus")
    elif len(toks) != 4:
        raise ParseError(line_no, "TWG header needs 3 sizes and optional MOD p")
    sizes = tuple(_int(t, line_no, "part size") for t in toks[1:4])
    buckets: dict = {pair: [] for pair in WEIGHTED_PAIRS}
    for line_no, toks in lines[1:]:
        if toks[0] not in buckets or len(toks) != 4:
            raise ParseError(line_no, f"expected 'AB|BC|CA u v w', got {' '.join(toks)!r}")
        buckets[toks[0]].append(tuple(_int(t, line_no, "edge field") for t in toks[1:]))
    return TripartiteWeightedGraph(sizes, *buckets.values(), modulus)


def _parse_cvg(lines) -> ColoredValuedGraph:
    line_no, toks = lines[0]
    if len(toks) != 5:
        raise ParseError(line_no, "CVG header needs 3 sizes and value sides")
    sizes = tuple(_int(t, line_no, "part size") for t in toks[1:4])
    if toks[4] == "-":
        sides = frozenset()
    else:
        sides = frozenset(toks[4].split(","))
        if not sides <= set(COLORED_PAIRS):
            raise ParseError(line_no, f"bad value sides {toks[4]!r}")
    buckets: dict = {pair: [] for pair in COLORED_PAIRS}
    for line_no, toks in lines[1:]:
        pair = toks[0]
        if pair not in buckets:
            raise ParseError(line_no, f"expected IJ|JK|IK edge, got {pair!r}")
        valued = pair in sides
        want = 5 if valued else 4
        if len(toks) != want:
            raise ParseError(line_no, f"{pair} edge needs {want - 1} fields")
        u, v, c = (_int(t, line_no, "edge field") for t in toks[1:4])
        val = _int(toks[4], line_no, "value") if valued else None
        buckets[pair].append((u, v, c, val))
    return ColoredValuedGraph(sizes, *buckets.values(), sides)


def _parse_imx(lines) -> IntMatrix:
    line_no, toks = lines[0]
    if len(toks) != 3:
        raise ParseError(line_no, "IMX header needs rows and cols")
    rows = _int(toks[1], line_no, "rows")
    cols = _int(toks[2], line_no, "cols")
    want_lines = rows if cols > 0 else 0
    if len(lines) - 1 != want_lines:
        raise ParseError(line_no,
                         f"IMX expects {want_lines} row lines, got {len(lines) - 1}")
    if cols == 0:
        return IntMatrix(rows, cols, ())
    entries: list[int] = []
    for row_line_no, toks in lines[1:]:
        if len(toks) != cols:
            raise ParseError(row_line_no, f"row needs {cols} entries, got {len(toks)}")
        entries.extend(_SENTINELS[t] if t in _SENTINELS
                       else _int(t, row_line_no, "matrix entry") for t in toks)
    return IntMatrix(rows, cols, tuple(entries))


def _parse_sfi(lines) -> SetFamilyInstance:
    line_no, toks = lines[0]
    cap = None
    if len(toks) == 6 and toks[4] == "CAP":
        cap = _int(toks[5], line_no, "cap")
    elif len(toks) != 4:
        raise ParseError(line_no, "SFI header needs |U| |F| q and optional CAP T")
    universe = _int(toks[1], line_no, "universe size")
    fam_size = _int(toks[2], line_no, "family size")
    n_queries = _int(toks[3], line_no, "query count")
    family: list[Optional[tuple]] = [None] * fam_size
    queries: list[tuple[int, int]] = []
    for line_no, toks in lines[1:]:
        if toks[0] == "S":
            if len(toks) < 3 or toks[2] != ":":
                raise ParseError(line_no, "set line must look like 'S i : e1 e2 ...'")
            idx = _int(toks[1], line_no, "set index")
            if not 0 <= idx < fam_size:
                raise ParseError(line_no, f"set index {idx} out of range")
            if family[idx] is not None:
                raise ParseError(line_no, f"set {idx} defined twice")
            family[idx] = tuple(_int(t, line_no, "element") for t in toks[3:])
        elif toks[0] == "Q":
            if len(toks) != 3:
                raise ParseError(line_no, "query line must look like 'Q i j'")
            queries.append((_int(toks[1], line_no, "query"),
                            _int(toks[2], line_no, "query")))
        else:
            raise ParseError(line_no, f"expected S or Q line, got {toks[0]!r}")
    filled = tuple(s if s is not None else () for s in family)
    if len(queries) != n_queries:
        raise ParseError(lines[0][0],
                         f"header promises {n_queries} queries, found {len(queries)}")
    return SetFamilyInstance(universe, filled, tuple(queries), cap)


# Each document kind's header keyword and parser; a line that starts with a
# keyword starts a new document.
_PARSERS = {"TWG": _parse_twg, "CVG": _parse_cvg, "IMX": _parse_imx,
            "SFI": _parse_sfi}
