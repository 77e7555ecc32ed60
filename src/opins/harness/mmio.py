"""Matrix Market exchange-format ingestion, on top of ``scipy.io``.

``scipy.io.mminfo`` reads the header and size line and ``scipy.io.mmread``
the entries, in compiled code; ``scipy.io.mmwrite`` writes.  Real and
integer coordinate and array files with general, symmetric or
skew-symmetric storage are accepted; symmetric storage is expanded to the
full pattern (off-diagonal entries mirrored) and duplicates are summed.

A file is rejected with a :class:`MatrixMarketError` naming the file and the
offending line when scipy rejects it (bad banner or size line, an index out
of bounds, too few or too many entries, a non-number), and also where scipy
would accept it (it reads only a valid prefix of each entry line and ignores
the rest), when:

* the header is not five ASCII words ``%%MatrixMarket matrix <format>
  <field> <symmetry>``, or names a ``vector`` object, a ``complex`` or
  ``pattern`` field or ``hermitian`` symmetry, or symmetric storage of a
  non-square matrix;
* an entry line holds anything but its indices and one decimal number, say a
  trailing token (``1 1 1.0 7``), a glued suffix (``1.0abc``), ``nan`` or
  ``inf``, or a non-integer value in an ``integer`` file;
* a value overflows to infinity (``1e400``);
* a symmetric coordinate file holds an entry above the diagonal, or a
  skew-symmetric one an entry on or above it: the format stores only the
  lower (strictly lower) triangle, and scipy would add the entry to its
  mirror or keep a nonzero diagonal.

Comment lines are allowed only before the size line, as the format says.

The first load of a file's content parses it and keeps only its ``hash()``
(of the last four contents loaded).  The second parses it again and keeps the
matrix in an LRU cache of four entries (one problem's A, B, f and g) keyed by
the bytes themselves, not by path or mtime, so a hit is exact and a rewritten
file is parsed anew; later loads of the same bytes, under any path, copy the
cached matrix.  So a process that loads a file once (``opins-run``) keeps no
copy of it, and one that loads the same bytes again and again (a script
running several solvers or seeds on one file through ``run_case``) stops
parsing them at the third load.  Every call reads the file and returns its
own matrix; a malformed file raises on every call, naming that call's path.
"""

from __future__ import annotations

import functools
import io
import re
from collections import Counter, deque

import numpy as np
import scipy.sparse as sp

__all__ = ["MatrixMarketError", "load_matrix_market", "load_vector", "save_matrix_market"]

# unambiguous, so a long malformed token costs linear time to reject
_NUMBER = {"real": rb"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?", "integer": rb"-?\d+"}
# a "+" opening a number: the format allows it, scipy's reader does not
_PLUS_SIGN = re.compile(rb"\+(?<=[ \t\n]\+)(?=[\d.])")
# header line, then blank and comment lines, then the size line (group 1)
_PREAMBLE = re.compile(rb"[^\n]*\n(?:[ \t]*(?:%[^\n]*)?\n)*([^\n]*)")
_SCIPY_LINE = re.compile(r"Line (\d+): (.*)", re.S)
# every digit to 0: lines that differ only in their digits then read alike
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


class MatrixMarketError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class _Malformed(Exception):
    """A fault found by ``_parse``, which sees no path: (line number, message)."""


def _lineno(data, pos):
    return data.count(b"\n", 0, pos) + 1


def _entry_lineno(data, body, k):
    """The line of the k-th entry (from 0) of the entry lines starting at ``body``."""
    # skip the blank lines and the k entry lines before the k-th entry
    before = re.compile(rb"\n(?:[ \t]*\n)*(?:[^\n]*\n(?:[ \t]*\n)*){%d}" % k).match(data, body)
    return _lineno(data, before.end())


def _scipy(read, data, lineno):
    """Run a scipy.io reader on ``data``; its errors become ``_Malformed``."""
    try:
        return read(io.BytesIO(data))
    except (ValueError, OverflowError) as exc:
        numbered = _SCIPY_LINE.match(str(exc))
        if numbered:
            raise _Malformed(int(numbered[1]), numbered[2]) from None
        raise _Malformed(lineno, str(exc)) from None


# hash() of the last four contents loaded, so a content is kept from its
# second load on and a file loaded once leaves no copy behind (a collision
# only keeps an entry: a hit is still decided by the bytes)
_loaded = deque(maxlen=4)


def load_matrix_market(path):
    """Read a Matrix Market file into a validated CSR matrix.

    The file's bytes are parsed on their first and second load in a process;
    a later call on the same bytes, under any path, returns a copy of the
    matrix built then."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if hash(data) not in _loaded:
            _loaded.append(hash(data))
            return _parse.__wrapped__(data)
        return _parse(data).copy()
    except _Malformed as exc:
        raise MatrixMarketError(path, *exc.args) from None


# keyed by the bytes themselves, so a hit is exact; four entries hold one
# problem's A, B, f and g
@functools.lru_cache(maxsize=4)
def _parse(data):
    """The validated CSR matrix a file's bytes hold (shared: copy before use)."""
    # imported here, not at module level: solves that read no file skip its memory
    import scipy.io

    # bytes, so a comment in any encoding reads; \r\n and \r line ends become
    # \n, and a closing \n spares scipy's reader (1.17) a crash on a last line
    # that ends in a blank.  Each step copies only a file it changes (a
    # replace copies even when nothing matches, hence the tests), so a
    # typical file is parsed in the buffer it was read into
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    data = _PLUS_SIGN.sub(b"", data)
    header_line = data.partition(b"\n")[0]
    header = header_line.lower().split()
    if len(header) != 5 or header[:2] != [b"%%matrixmarket", b"matrix"]:
        raise _Malformed(1, "not a Matrix Market matrix header")
    # mminfo's decode error would carry no line number
    if not header_line.isascii():
        raise _Malformed(1, "non-ASCII byte in the header")
    preamble = _PREAMBLE.match(data)
    size_lineno = _lineno(data, preamble.start(1))
    nrows, ncols, nnz, fmt, field, symmetry = _scipy(scipy.io.mminfo, data, size_lineno)
    if field not in ("real", "integer"):
        raise _Malformed(1, f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise _Malformed(1, f"unsupported symmetry {symmetry!r}")
    if symmetry != "general" and nrows != ncols:
        raise _Malformed(size_lineno, f"{symmetry} matrix must be square")

    # every line after the size line is blank or one entry and nothing else:
    # scipy ignores what follows an entry's valid prefix, and crashes on a NUL.
    # The pattern sees digits only as digits, so each distinct line shape
    # (digits read as 0) is matched once; a failure is looked up by line.
    entry = rb"(?:" + (_NUMBER[field] if fmt == "array"
                       else rb"\d+[ \t]+\d+[ \t]+" + _NUMBER[field]) + rb"[ \t]*)?"
    body = preamble.end(1)
    shapes = Counter(data[body:].translate(_ZERO_DIGITS).split(b"\n"))
    if not all(map(re.compile(rb"[ \t]*" + entry).fullmatch, shapes)):
        bad = re.compile(rb"\n(?![ \t]*" + entry + rb"(?:\n|\Z))").search(data, body)
        line = data[bad.start() + 1:].partition(b"\n")[0].decode(errors="backslashreplace")
        raise _Malformed(_lineno(data, bad.start() + 1), f"bad entry {line!r}")
    if fmt == "coordinate":
        expected = nnz
    else:  # array storage of a symmetric matrix holds its lower triangle
        expected = {"general": nrows * ncols, "symmetric": nrows * (nrows + 1) // 2,
                    "skew-symmetric": nrows * (nrows - 1) // 2}[symmetry]
    # each non-blank line is one entry
    found = sum(count for shape, count in shapes.items() if shape.strip(b" \t"))
    if found != expected:
        raise _Malformed(size_lineno, f"header promises {expected} entries, file has {found}")

    mat = _scipy(scipy.io.mmread, data, size_lineno)
    # the values in file order: a coordinate file's come first, an array file's
    # are column-major (for symmetric storage, the lower triangle)
    if fmt == "coordinate":
        values = mat.data[:nnz]
    elif symmetry == "general":
        values = mat.T.ravel()
    else:
        values = mat.T[np.triu_indices(nrows, int(symmetry == "skew-symmetric"))]
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values)))
        raise _Malformed(_entry_lineno(data, body, k), "non-finite value")
    if fmt == "coordinate" and symmetry != "general":
        # the file's own entries come first; scipy appended their mirrors
        skew = symmetry == "skew-symmetric"
        outside = mat.row[:nnz] < mat.col[:nnz] + skew
        if outside.any():
            k = int(outside.argmax())
            where = "above" if mat.row[k] < mat.col[k] else "on"
            raise _Malformed(_entry_lineno(data, body, k),
                             f"entry {where} the diagonal in {symmetry} storage")
    mat = sp.csr_matrix(mat, dtype=float)
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def load_vector(path):
    """Read a vector (n-by-1 or 1-by-n Matrix Market file) as a 1-d array."""
    mat = load_matrix_market(path)
    nrows, ncols = mat.shape
    if 1 not in (nrows, ncols):
        raise MatrixMarketError(path, 1, f"expected a vector, got shape {mat.shape}")
    return np.asarray(mat.todense()).ravel()


def save_matrix_market(path, mat):
    """Write a matrix or vector in coordinate (sparse) or array (dense) format."""
    # imported here, not at module level: solves that write no file skip its memory
    import scipy.io

    if not sp.issparse(mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        if mat.shape[0] == 1 and mat.shape[1] > 1:
            mat = mat.T
    # an open file, because mmwrite appends ".mtx" to a path without it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, mat, field="real", precision=17, symmetry="general")
