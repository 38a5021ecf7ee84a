"""File formats: instance documents (JSON), plan files, and DIMACS CNF.

Instance files are versioned JSON documents.  Version 3, the one written,
lists in ``"rows"`` each distinct matrix row that is not a unit row once,
as ``[column, value]`` pairs for its nonzero entries in increasing column
order; zero entries are omitted, so a float ``-0.0`` entry reads back as
``0.0``.  ``"matrices"[k]`` lists only the rows matrix k moves, as
``[i, row id]`` pairs in increasing ``i``; every row not listed is the
unit row ``e_i`` (its one nonzero entry a 1 at column i).  Version 2,
still read, stores each of the ``d`` rows of every matrix as such a pair
list; version 1, also read, stores each row densely, ``d`` values long.
Exact-mode numbers travel as "num/den" strings in lowest terms so
fixtures are bit-stable across implementations; float-mode numbers are
plain decimal literals (Python's shortest round-trip repr).  Reading
re-validates every instance invariant.  Every integer read from text, each
side of "num/den", a plan index or a DIMACS count or literal, is ASCII
decimal digits after an optional sign, nothing else ``int()`` accepts.

Reduction instances have d + 1 distinct rows, most of them unit rows, so
the writer formats each distinct number and each distinct row once, from
the nonzero pairs of the instance check that the rest of the library
shares, and writes a pair per moved row, as
:func:`~timemachine.core._moved_places` lists them.  The reader parses
each distinct number text once and decodes identical rows to one shared
tuple, every unit row ``e_j`` to the one tuple
:func:`~timemachine.core._unit_rows` builds for it; a version-1
document's dense rows decode to one tuple per place.  Every read builds
its instance through :func:`~timemachine.core._placed_instance` from the
rows each matrix places other than the shared unit row ``e_i`` at row i,
so the instance check reads each distinct row once and visits only those
places: the moved rows of a version-2 or version-3 document, and every
row of a version-1 document.  The reader refuses a document whose ``d *
d`` or ``K * d`` exceeds ``MAX_ENTRIES`` before it builds any row, since
those are what reading builds whatever the document lists, and the
writer refuses to write one.

Plan files are a single line of whitespace-separated 0-based matrix
indices; lines starting with '#' are comments.

DIMACS CNF is read in the standard form (``c`` comments, a ``p cnf n m``
header, zero-terminated clauses possibly spanning lines).  Variables are
1-based in DIMACS and converted to 0-based (variable, polarity) pairs
right here at the parser boundary.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import core
from .core import (
    EXACT,
    FLOAT,
    _ZERO_ONE,
    Distribution,
    Plan,
    Scalar,
    _derived,
    _moved_places,
    _placed_instance,
    _sparse_rows,
    _unit_rows,
    validate_instance,
)
from .reduction import RawLiteral, ReductionArtifact, formula_digest

FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
# The most entries a document may ask for in d * d (its unit rows, built
# whatever it lists) or in K * d (its row places); a larger one is refused.
MAX_ENTRIES = 10**7

PathOrFile = Union[str, "io.TextIOBase"]


class InstanceFormatError(ValueError):
    """An instance document is malformed, has the wrong version, or fails
    invariant validation on read."""


def format_scalar(x: Scalar, mode: str) -> str:
    """Canonical text for one number: "num/den" in exact mode, repr in float."""
    if mode == EXACT:
        frac = Fraction(x)
        return f"{frac.numerator}/{frac.denominator}"
    return repr(float(x))


# An integer token: ASCII decimal digits after an optional sign.  int()
# alone would also take underscores, surrounding whitespace and the digits
# of other scripts.
_INTEGER = re.compile(r"[-+]?[0-9]+")


def _parse_int(token: str) -> int:
    """``token`` as an int.  Raises ValueError, with the token's repr as
    its message, unless it matches ``_INTEGER``."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(repr(token))
    return int(token)


def parse_exact_scalar(text) -> Fraction:
    if not isinstance(text, str):
        raise InstanceFormatError(f"exact number must be a \"num/den\" string, got {text!r}")
    num, sep, den = text.partition("/")
    try:
        numerator = _parse_int(num)
        denominator = _parse_int(den) if sep else 1
    except ValueError as exc:
        raise InstanceFormatError(f"bad rational {text!r}") from exc
    if denominator == 0:
        raise InstanceFormatError(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def _parse_float_scalar(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"float number expected, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InstanceFormatError(f"number {value!r} is too large for a float") from exc


def _reject_constant(token):
    raise InstanceFormatError(f"non-finite number {token!r} in document")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _memo_exact_parser():
    """parse_exact_scalar, parsing each distinct text once."""
    parsed: Dict[str, Fraction] = {}

    def parse(text) -> Fraction:
        value = parsed.get(text) if isinstance(text, str) else None
        if value is None:
            value = parsed[text] = parse_exact_scalar(text)
        return value

    return parse


def _sparse_row_reader(d: int, mode: str, parse, units: tuple):
    """Decoder of sparse rows into dense tuples.  Identical rows, keyed on
    their raw pairs, decode to one shared tuple, and only the first of them
    has its values parsed; the structure is checked on every row.  A row
    equal to the unit row ``e_j`` decodes to ``units[j]``.  A malformed row
    is named ``f"{where} {i}"``."""
    value_types = (str,) if mode == EXACT else (int, float)
    zero = _ZERO_ONE[mode][0]
    decoded: Dict[tuple, tuple] = {}

    def read_row(raw, where: str, i: int) -> tuple:
        if type(raw) is not list:
            raise InstanceFormatError(f"{where} {i} must be a list of [column, value] pairs")
        last = -1
        for pair in raw:
            if type(pair) is not list or len(pair) != 2:
                raise InstanceFormatError(f"{where} {i}: {pair!r} is not a [column, value] pair")
            j, value = pair
            if type(j) is not int or not last < j < d:
                raise InstanceFormatError(
                    f"{where} {i}: column {j!r} is not an integer in [0, {d}) "
                    "above the column before it"
                )
            if type(value) not in value_types:
                parse(value)  # raises: not a number of this mode
            last = j
        key = tuple(map(tuple, raw))
        row = decoded.get(key)
        if row is None:
            dense = [zero] * d
            for j, value in raw:
                dense[j] = parse(value)
            row = tuple(dense)
            if row.count(zero) == d - 1:
                unit = units[next(j for j, _ in raw if dense[j])]
                if row == unit:
                    row = unit
            decoded[key] = row
        return row

    return read_row


def _moved_rows_reader(rows_raw, units: tuple, mode: str, parse):
    """Decoder of version-3 matrices into the rows each places, a dict
    from row i to its row in increasing i.  Each ``"rows"`` entry is
    checked and decoded once, a unit row ``e_j`` to ``units[j]``; every row
    a matrix does not list is the unit row ``e_i``."""
    _require(type(rows_raw) is list, '"rows" must be a list of [column, value] pair lists')
    d = len(units)
    read_row = _sparse_row_reader(d, mode, parse, units)
    shared = [read_row(raw, '"rows" entry', r) for r, raw in enumerate(rows_raw)]
    count = len(shared)

    def read_matrix(grid, k: int) -> dict:
        _require(type(grid) is list, f"matrix {k} must be a list of [row, row id] pairs")
        rows = {}
        last = -1
        for pair in grid:
            if type(pair) is not list or len(pair) != 2:
                raise InstanceFormatError(f"matrix {k}: {pair!r} is not a [row, row id] pair")
            i, r = pair
            if type(i) is not int or not last < i < d:
                raise InstanceFormatError(
                    f"matrix {k}: row {i!r} is not an integer in [0, {d}) above the row before it"
                )
            if type(r) is not int or not 0 <= r < count:
                raise InstanceFormatError(
                    f"matrix {k} row {i}: row id {r!r} is not an integer in [0, {count})"
                )
            rows[i] = shared[r]
            last = i
        return rows

    return read_matrix


@dataclass(frozen=True)
class ReductionMeta:
    """Reduction bookkeeping embedded in an instance document."""

    state_table: Dict[str, int]
    matrix_table: Dict[str, int]
    p: Fraction
    formula_digest: str


@dataclass(frozen=True)
class InstanceDocument:
    instance: core.Instance
    reduction_meta: Optional[ReductionMeta] = None


def _open(path_or_file: PathOrFile, mode: str):
    if isinstance(path_or_file, str):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def write_instance(
    instance: core.Instance,
    path_or_file: PathOrFile,
    reduction_meta: Optional[ReductionMeta] = None,
) -> None:
    """Serialize an instance as a version-3 document (losslessly, up to the
    sign of a float zero: write-then-read round-trips).  Each distinct row
    object that some matrix moves is written once, in ``"rows"``, and each
    matrix lists only the rows it moves, as ``[i, row id]`` pairs, read off
    :func:`~timemachine.core._moved_places`: it leaves row i in place when
    that row is the unit row ``e_i``, whose only nonzero entry is a 1 at
    column i.  Both come from the instance check, which for an instance
    that :func:`~timemachine.reduction.encode_reduction` or
    :func:`read_instance` built was made as it was built, each distinct row
    checked once and only the places it listed visited.

    Raises ValueError, before the file is opened, for an instance whose
    document :func:`read_instance` would reject: first if its ``d * d`` or
    ``K * d`` exceeds ``MAX_ENTRIES`` (before the instance is checked),
    then with an invalid instance's first violation, or naming a matrix
    whose label is neither a str nor None."""
    too_large = _size_error(instance.d, instance.K)
    if too_large is not None:
        raise ValueError(too_large)
    rows, _ = _sparse_rows(instance)
    moved = _derived(instance, _moved_places)
    for k, matrix in enumerate(instance.matrices):
        if matrix.label is not None and not isinstance(matrix.label, str):
            raise ValueError(f"matrix {k}: label {matrix.label!r} must be a string or None")
    mode = instance.numeric_mode
    # each distinct exact number formatted once; 1 and Fraction(1) share a text
    scalar = lru_cache(maxsize=None)(partial(format_scalar, mode=EXACT)) if mode == EXACT else float
    # row id of each distinct row object that some matrix moves, in order of first use
    ids = {p: r for r, p in enumerate(dict.fromkeys(p for places in moved for p in places.values()))}
    doc = {
        "format_version": FORMAT_VERSION,
        "numeric_mode": mode,
        "d": instance.d,
        "K": instance.K,
        "N": instance.N,
        "target": instance.target,
        "start": [scalar(w) for w in instance.start.weights],
        "rows": [[[j, scalar(x)] for j, x in rows[p]] for p in ids],
        "matrices": [[[i, ids[p]] for i, p in places.items()] for places in moved],
    }
    if any(m.label is not None for m in instance.matrices):
        doc["labels"] = [m.label for m in instance.matrices]
    if reduction_meta is not None:
        doc["reduction_meta"] = {
            "state_table": dict(reduction_meta.state_table),
            "matrix_table": dict(reduction_meta.matrix_table),
            "p": format_scalar(reduction_meta.p, EXACT),
            "formula_digest": reduction_meta.formula_digest,
        }
    # json.dumps without indent runs the C encoder; json.dump would not.
    text = json.dumps(doc)
    fh, owned = _open(path_or_file, "w")
    try:
        fh.write(text)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def write_artifact(artifact: ReductionArtifact, path_or_file: PathOrFile) -> None:
    """Serialize a reduction artifact: its instance plus the name tables."""
    digest = formula_digest(artifact.formula) if artifact.formula is not None else ""
    meta = ReductionMeta(
        state_table=dict(artifact.state_table),
        matrix_table=dict(artifact.matrix_table),
        p=artifact.p,
        formula_digest=digest,
    )
    write_instance(artifact.instance, path_or_file, reduction_meta=meta)


def _size_error(d: int, K: int) -> Optional[str]:
    """Why a document of d states and K matrices is too large to read, or
    None if it is not: reading builds ``d * d`` entries for the unit rows
    and ``K * d`` row places, whatever the document lists."""
    if max(d, K) * d > MAX_ENTRIES:
        return f"document too large: d * d or K * d exceeds {MAX_ENTRIES}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstanceFormatError(message)


def read_instance(path_or_file: PathOrFile) -> InstanceDocument:
    """Parse and fully re-validate an instance document (version 1, 2 or 3)."""
    fh, owned = _open(path_or_file, "r")
    try:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceFormatError("document nests too deeply") from exc
    finally:
        if owned:
            fh.close()

    _require(isinstance(doc, dict), "document must be a JSON object")
    version = doc.get("format_version")
    _require(
        _is_int(version) and version in READABLE_VERSIONS,
        f"unsupported format_version {version!r} (expected one of {READABLE_VERSIONS})",
    )
    mode = doc.get("numeric_mode")
    _require(mode in (EXACT, FLOAT), f"numeric_mode must be 'exact' or 'float', got {mode!r}")
    for field in ("d", "K", "N", "target", "start", "matrices"):
        _require(field in doc, f"missing field {field!r}")
    d, K, N, target = doc["d"], doc["K"], doc["N"], doc["target"]
    for name, value in (("d", d), ("K", K), ("N", N), ("target", target)):
        _require(_is_int(value), f"{name} must be an integer")

    parse = _memo_exact_parser() if mode == EXACT else _parse_float_scalar
    start_raw = doc["start"]
    _require(isinstance(start_raw, list) and len(start_raw) == d, f"start must be a length-{d} array")
    start = Distribution(tuple(parse(x) for x in start_raw))
    too_large = _size_error(d, K)
    _require(too_large is None, too_large)

    units = _unit_rows(d, mode)
    if version == 3:
        read_matrix = _moved_rows_reader(doc.get("rows"), units, mode, parse)
    else:
        if version == 1:

            def read_row(raw, where: str, i: int) -> tuple:
                _require(isinstance(raw, list) and len(raw) == d, f"{where} {i} must have {d} entries")
                return tuple(parse(x) for x in raw)

        else:
            read_row = _sparse_row_reader(d, mode, parse, units)

        def read_matrix(grid, k: int) -> dict:
            _require(isinstance(grid, list) and len(grid) == d, f"matrix {k} must have {d} rows")
            where = f"matrix {k} row"
            rows = (read_row(raw, where, i) for i, raw in enumerate(grid))
            return {i: row for i, row in enumerate(rows) if row is not units[i]}

    matrices_raw = doc["matrices"]
    _require(isinstance(matrices_raw, list) and len(matrices_raw) == K, f"matrices must hold {K} entries")
    labels = doc.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and len(labels) == K, f"labels must be a length-{K} array")
    else:
        labels = [None] * K
    matrices = []
    for k, grid in enumerate(matrices_raw):
        matrices.append(read_matrix(grid, k))
        label = labels[k]
        _require(label is None or isinstance(label, str), f"label {k} must be a string or null")

    instance = _placed_instance(units, mode, N, start, target, labels, matrices)
    report = validate_instance(instance)
    if not report.ok:
        raise InstanceFormatError("invalid instance: " + "; ".join(report.violations))

    meta = None
    meta_raw = doc.get("reduction_meta")
    if meta_raw is not None:
        _require(isinstance(meta_raw, dict), "reduction_meta must be an object")
        for field in ("state_table", "matrix_table", "p", "formula_digest"):
            _require(field in meta_raw, f"reduction_meta missing {field!r}")
        state_table = meta_raw["state_table"]
        matrix_table = meta_raw["matrix_table"]
        for name, table, size in (("state_table", state_table, d), ("matrix_table", matrix_table, K)):
            _require(
                isinstance(table, dict) and all(_is_int(v) and 0 <= v < size for v in table.values()),
                f"{name} must map names to indices in [0, {size})",
            )
        meta = ReductionMeta(
            state_table=dict(state_table),
            matrix_table=dict(matrix_table),
            p=parse_exact_scalar(meta_raw["p"]),
            formula_digest=str(meta_raw["formula_digest"]),
        )
    return InstanceDocument(instance=instance, reduction_meta=meta)


def artifact_from_document(doc: InstanceDocument) -> ReductionArtifact:
    """Rebuild a (formula-less) reduction artifact from a loaded document.

    Raises InstanceFormatError unless the instance has the reduction's
    shape, K = 7m + 2 matrices and d = 3 + 3n + m states for some m >= 1
    clauses and n >= 1 variables, the matrix table names ``"S"`` and
    ``"F"``, and the state table names both signed states of every
    variable, the states an assignment is decoded from.
    """
    if doc.reduction_meta is None:
        raise InstanceFormatError("instance document carries no reduction_meta")
    meta = doc.reduction_meta
    artifact = ReductionArtifact(
        instance=doc.instance,
        state_table=dict(meta.state_table),
        matrix_table=dict(meta.matrix_table),
        p=meta.p,
        formula=None,
    )
    m, n = artifact.num_clauses, artifact.num_vars
    d, K = doc.instance.d, doc.instance.K
    _require(m >= 1 and K == 7 * m + 2, f"a reduction has K = 7m + 2 matrices, m >= 1, got K = {K}")
    _require(n >= 1 and d == 3 + 3 * n + m, f"a reduction has d = 3 + 3n + m states, n >= 1, got d = {d}")
    for name in ("S", "F"):
        _require(name in artifact.matrix_table, f"reduction_meta matrix_table has no {name!r}")
    for i in range(n):
        for name in (f"x{i}+", f"x{i}-"):
            _require(name in artifact.state_table, f"reduction_meta state_table has no {name!r}")
    return artifact


def write_plan(plan: Sequence[int], path_or_file: PathOrFile, comment: Optional[str] = None) -> None:
    fh, owned = _open(path_or_file, "w")
    try:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(" ".join(str(k) for k in plan))
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def read_plan(path_or_file: PathOrFile) -> Plan:
    """Read a plan file: at most one data line of matrix indices."""
    fh, owned = _open(path_or_file, "r")
    try:
        data_lines = [
            line.strip()
            for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]
    finally:
        if owned:
            fh.close()
    if len(data_lines) > 1:
        raise ValueError(f"plan file has {len(data_lines)} data lines, expected one")
    if not data_lines:
        return ()
    try:
        return tuple(map(_parse_int, data_lines[0].split()))
    except ValueError as exc:
        raise ValueError(f"plan file holds a non-integer token: {exc}") from exc


def parse_dimacs(text: str) -> Tuple[int, List[List[RawLiteral]]]:
    """Parse DIMACS CNF text into (num_vars, clauses) with clauses given as
    lists of 0-based (variable, polarity) pairs.

    Tolerates clauses spanning lines and clauses sharing a line; checks the
    header, variable ranges, the terminating 0 of the last clause, and that
    the clause count matches the header.
    """
    num_vars: Optional[int] = None
    num_clauses: Optional[int] = None
    clauses: List[List[RawLiteral]] = []
    current: List[RawLiteral] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {stripped!r}")
            try:
                num_vars, num_clauses = _parse_int(fields[2]), _parse_int(fields[3])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed header {stripped!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise ValueError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause data before 'p cnf' header")
        for token in stripped.split():
            try:
                literal = _parse_int(token)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer token {token!r}") from exc
            if literal == 0:
                clauses.append(current)
                current = []
                continue
            var = abs(literal) - 1
            if var >= num_vars:
                raise ValueError(
                    f"line {lineno}: variable {abs(literal)} out of range (header says {num_vars})"
                )
            current.append((var, 1 if literal > 0 else -1))
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    if current:
        raise ValueError("last clause is missing its terminating 0")
    if len(clauses) != num_clauses:
        raise ValueError(f"header promises {num_clauses} clauses, file holds {len(clauses)}")
    return num_vars, clauses
