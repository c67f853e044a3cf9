"""File formats: delimited signals and spectra, binary blobs, bank specs.

Formats (all little-endian, CSV files UTF-8 with LF endings):

* edge list CSV: header ``src,dst,weight``, zero-based vertex ids;
* signal CSV: N rows x T columns, no header;
* signal binary: 16-byte header ``TVSG`` + u32 N + u32 T + u32 reserved,
  then N*T float64 row-major;
* spectrum CSV: header ``l,k,re,im`` with 1-based frequency indices
  (``l`` ascending graph frequency, ``k`` the DFT bin);
* coefficients binary: 16-byte header ``TVCF`` + u32 |Z| + u32 N_lattice
  + u32 T_lattice, then complex128 row-major;
* mask CSV: N x T of 0/1;
* coordinates CSV: header ``x,y``;
* bank spec: JSON naming the construction, mother kernel, and lattices.

Every CSV reader skips blank lines; every parse error names the file and
its line, counting blank lines and the header. The signal, spectrum and
coefficient readers reject NaN and Inf entries, naming the file.
"""

import io
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import ValidationError
from .frames import itersine_graph_design, make_stvft, make_stvwt, time_window
from .kernels import _NAMED, named_response
from .transforms import _number

_SIGNAL_MAGIC = b"TVSG"
_COEFF_MAGIC = b"TVCF"
#: magic -> (dtype, rank, what is stored, what one entry is called)
_BINARY = {_SIGNAL_MAGIC: ("<f8", 2, "signal", "samples"),
           _COEFF_MAGIC: ("<c16", 3, "coefficient", "coefficients")}
#: the header lines of the tables that have one
_EDGES, _COORDS, _SPECTRUM = "src,dst,weight", "x,y", "l,k,re,im"


def _finite(A, path, what):
    """``A``, or a :class:`ValidationError` naming ``path`` when it holds a
    NaN or Inf entry."""
    if not np.isfinite(A).all():
        raise ValidationError(f"{path}: {what} contains NaN or Inf entries")
    return A


def _write_csv(path, header, rows):
    """Write ``rows`` of Python ints, floats and strings as the CSV table at
    ``path``, after the ``header`` line unless it is ``None``. A float is
    written as ``repr`` writes it; lines end in LF."""
    with open(path, "w", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _lines(path, data=None):
    """The lines of the file at ``path``, or of its bytes ``data``, decoded
    as a text-mode read decodes them, universal newlines included; a byte
    that is not UTF-8 becomes U+FFFD, so it fails to parse."""
    raw = open(path, "rb") if data is None else io.BytesIO(data)
    with io.TextIOWrapper(raw, encoding="utf-8", errors="replace") as fh:
        return fh.read().split("\n")


def _read_table(path, header, dtype, what, data=None):
    """Parse the ``what`` CSV table at ``path`` with one ``np.loadtxt``.

    ``header`` is the expected first line, or ``None``. A structured
    ``dtype`` such as ``"i8,i8,f8"`` gives (rows, 1) records, a plain one a
    rows x columns matrix. Only a headerless table needs a data row. A
    parse error names the file, its line and the kind of table. ``data``,
    the file's bytes when the caller has read them, is parsed instead of
    the file, decoded the same way.
    """
    lines = _lines(path, data)
    first = 1 if header is None else 2
    if header is not None and ([h.strip() for h in lines[0].split(",")]
                               != header.split(",")):
        raise ValidationError(f"{path}: expected header '{header}'")
    rows = lines[first - 1:]
    if not any(rows):
        if header is None:
            raise ValidationError(f"{path}: no data rows")
        return np.empty((0, 1), dtype)
    try:
        return np.loadtxt(rows, delimiter=",", dtype=dtype, comments=None,
                          ndmin=2)
    except ValueError:
        # Only to name the line: the same parse, line by line; a row of
        # another width than the first is malformed too.
        shape = None
        for n, line in enumerate(rows, first):
            if not line:
                continue
            try:
                row = np.loadtxt([line], delimiter=",", dtype=dtype,
                                 comments=None, ndmin=2).shape
            except ValueError:
                row = None
            if row is None or shape not in (None, row):
                raise ValidationError(
                    f"{path}: line {n}: malformed {what} row (non-numeric, "
                    "missing or extra field)") from None
            shape = row
        raise


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def save_edges_csv(path, g):
    _write_csv(path, _EDGES, zip(*(a.tolist() for a in g.edges())))


def load_edges_csv(path, num_vertices=None, data=None):
    """Read an edge-list CSV as ``(edges, N)``: an (E, 3) float array of
    ``src, dst, weight`` rows and N, ``max id + 1`` unless given. With
    ``data``, the bytes of the file at ``path``, those are parsed instead
    of reading the file again."""
    table = _read_table(path, _EDGES, "i8,i8,f8", "edge", data)
    edges = np.column_stack((table["f0"], table["f1"], table["f2"]))
    if num_vertices is None:
        num_vertices = edges[:, :2].max(initial=-1) + 1
    return edges, int(num_vertices)


def save_coords_csv(path, coords):
    coords = np.asarray(coords, dtype=float)[:, :2]
    _write_csv(path, _COORDS, (row.tolist() for row in coords))


def load_coords_csv(path):
    return _read_table(path, _COORDS, "f8,f8", "coordinate").view(float)


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def save_signal_csv(path, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("signals are written as N x T matrices")
    _write_csv(path, None, (row.tolist() for row in X))


def load_signal_csv(path):
    return _finite(_read_table(path, None, float, "signal"), path, "signal")


def save_signal_binary(path, X):
    _save_binary(path, X, _SIGNAL_MAGIC)


def load_signal_binary(path):
    return _load_binary(path, _SIGNAL_MAGIC)


def save_signal(path, X):
    """Dispatch on extension: ``.bin``/``.tvsg`` binary, CSV otherwise."""
    if str(path).endswith((".bin", ".tvsg")):
        save_signal_binary(path, X)
    else:
        save_signal_csv(path, X)


def load_signal(path):
    if str(path).endswith((".bin", ".tvsg")):
        return load_signal_binary(path)
    return load_signal_csv(path)


def save_mask_csv(path, M):
    M = np.asarray(M).astype(np.int64)
    _write_csv(path, None, (row.tolist() for row in M))


def load_mask_csv(path):
    return _read_table(path, None, float, "mask")


# ---------------------------------------------------------------------------
# Spectra and coefficients
# ---------------------------------------------------------------------------

def save_spectrum_csv(path, S):
    S = np.asarray(S, dtype=complex)
    _write_csv(path, _SPECTRUM, (
        (l, k, re, im) for l, row in enumerate(S, 1)
        for k, re, im in zip(range(1, S.shape[1] + 1), row.real.tolist(),
                             row.imag.tolist())))


def load_spectrum_csv(path):
    with open(path, "rb") as fh:  # read once: a pipe has no second read
        data = fh.read()
    table = _read_table(path, _SPECTRUM, "i8,i8,f8,f8", "spectrum",
                        data).ravel()
    if not table.size:
        raise ValidationError(f"{path}: empty spectrum")
    l, k = table["f0"] - 1, table["f1"] - 1
    order = np.lexsort((k, l))  # stable: a repeat sorts after its first
    dup = np.zeros(l.size, bool)
    dup[order[1:]] = (np.diff(l[order]) == 0) & (np.diff(k[order]) == 0)
    bad = np.flatnonzero((l < 0) | (k < 0) | dup)
    if bad.size:
        r = bad[0]
        why = (f"duplicate entry for l={l[r] + 1}, k={k[r] + 1}" if dup[r]
               else "frequency indices start at 1")
        line = [i for i, text in enumerate(_lines(path, data), 1)
                if i > 1 and text][r]  # the line of data row r
        raise ValidationError(f"{path}: line {line}: {why}")
    n, t = int(l.max()) + 1, int(k.max()) + 1
    if table.size != n * t:
        raise ValidationError(
            f"{path}: incomplete spectrum ({table.size} of {n * t} entries)")
    S = np.empty((n, t), dtype=complex)
    S.real[l, k], S.imag[l, k] = table["f2"], table["f3"]
    return _finite(S, path, "spectrum")


def save_coefficients_binary(path, C):
    _save_binary(path, C, _COEFF_MAGIC)


def load_coefficients_binary(path):
    return _load_binary(path, _COEFF_MAGIC)


def _save_binary(path, A, magic):
    """Write the 16-byte header (magic, three u32 sizes) and the payload."""
    dtype, rank, what, _ = _BINARY[magic]
    A = np.ascontiguousarray(np.asarray(A, dtype=dtype))
    if A.ndim != rank:
        raise ValidationError(f"{what}s are written as {rank}-D arrays")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", magic, *A.shape, *[0] * (3 - rank)))
        fh.write(A.data)  # the array's own buffer, with no bytes copy


def _load_binary(path, magic):
    """Read the header, check the payload size against the file's, then
    read the payload straight into its array. A stream that is not a
    regular file (a pipe, a FIFO) has no size: it is read to its end."""
    dtype, rank, what, entries = _BINARY[magic]
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValidationError(f"{path}: truncated {what} header")
        if header[:4] != magic:
            raise ValidationError(f"{path}: bad magic {header[:4]!r}")
        shape = struct.unpack("<3I", header[4:])[:rank]
        size, width = math.prod(shape), np.dtype(dtype).itemsize
        status = os.fstat(fh.fileno())
        stream = fh if stat.S_ISREG(status.st_mode) else io.BytesIO(fh.read())
        found = status.st_size - 16 if stream is fh else len(stream.getvalue())
        if found == size * width:
            A = np.empty(shape, dtype)
            found = stream.readinto(A)   # short only if the file shrank
    if found != size * width:
        raise ValidationError(f"{path}: expected {size} {entries}, "
                              f"found {found / width:.15g}")
    return _finite(A, path, f"{what} file")


# ---------------------------------------------------------------------------
# Filter bank specs
# ---------------------------------------------------------------------------

def _object(value, label):
    if not isinstance(value, dict):
        raise ValidationError(
            f"{label} must be a JSON object, got {type(value).__name__}")
    return value


def _numbers(spec, field):
    values = spec[field]
    if not isinstance(values, list):
        raise ValidationError(f"bank spec field '{field}' must be a list of "
                              f"numbers, got {type(values).__name__}")
    return [_number(f"bank spec field {field}[{i}]", v)
            for i, v in enumerate(values)]


def _mother_kernel(spec, field, g, T):
    spec = _object(spec, f"bank spec field '{field}'")
    name = spec.get("name")
    if not isinstance(name, str) or name not in _NAMED:
        raise ValidationError(f"unknown mother kernel '{name}'")
    return named_response(name, spec.get("params", {}), lmax=g.lmax, T=T)


def build_bank(spec, g):
    """Build a :class:`FilterBank` from a parsed bank spec dict. A missing
    field or a value of the wrong type is a :class:`ValidationError`
    naming the field."""
    kind = _object(spec, "bank spec").get("kind")
    try:
        T = _number("bank spec field T", spec["T"], integer=True)
        if kind == "stvwt":
            mother = _mother_kernel(spec["mother"], "mother", g, T)
            dc = (_mother_kernel(spec["dc_kernel"], "dc_kernel", g, T)
                  if "dc_kernel" in spec else None)
            return make_stvwt(
                mother, _numbers(spec, "scales_lambda"),
                _numbers(spec, "scales_omega"), g, T, dc_kernel=dc,
                check_admissibility=bool(spec.get("check_admissibility", True)))
        if kind == "stvft":
            wg = _object(spec["window_graph"], "bank spec field 'window_graph'")
            if wg.get("name") != "itersine":
                raise ValidationError(
                    f"unknown graph window '{wg.get('name')}'")
            h_graph, shifts = itersine_graph_design(
                _number("bank spec field window_graph.lmax",
                        wg.get("lmax", g.lmax)),
                _number("bank spec field window_graph.num_translates",
                        wg["num_translates"], integer=True))
            wt = _object(spec["window_time"], "bank spec field 'window_time'")
            w = time_window(wt.get("shape", "rectangular"),
                            _number("bank spec field window_time.length",
                                    wt["length"], integer=True))
            hop = _number("bank spec field time_hop",
                          spec.get("time_hop", w.size), integer=True)
            if "z_lambda" in spec:
                shifts = _numbers(spec, "z_lambda")
            return make_stvft(h_graph, w, shifts, hop, g, T)
    except KeyError as exc:
        raise ValidationError(f"bank spec misses field {exc}") from None
    raise ValidationError(f"unknown bank kind '{kind}'")


def load_bank_spec(path):
    """The parsed JSON of a bank spec file, unvalidated (see ``build_bank``)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_bank(path, g):
    return build_bank(load_bank_spec(path), g)


def save_bank_spec(path, spec):
    with open(path, "w", newline="\n") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
