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
its line, counting blank lines and the header.
"""

import json
import math
import struct

import numpy as np

from .errors import ValidationError
from .frames import itersine_graph_design, make_stvft, make_stvwt, time_window
from .kernels import _NAMED, _number, named_response

_SIGNAL_MAGIC = b"TVSG"
_COEFF_MAGIC = b"TVCF"
#: magic -> (dtype, rank, what is stored, what one entry is called)
_BINARY = {_SIGNAL_MAGIC: ("<f8", 2, "signal", "samples"),
           _COEFF_MAGIC: ("<c16", 3, "coefficient", "coefficients")}


def _fmt(x):
    return repr(float(x))


def _read_table(path, header, dtype, what):
    """Parse the ``what`` CSV table at ``path`` with one ``np.loadtxt``.

    ``header`` is the expected first line, or ``None``. A structured
    ``dtype`` such as ``"i8,i8,f8"`` gives (rows, 1) records, a plain one a
    rows x columns matrix. Only a headerless table needs a data row. A
    parse error names the file, its line and the kind of table.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")  # a byte that is not UTF-8 fails to parse
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
    src, dst, w = g.edges()
    with open(path, "w", newline="\n") as fh:
        fh.write("src,dst,weight\n")
        for i, j, wij in zip(src, dst, w):
            fh.write(f"{int(i)},{int(j)},{_fmt(wij)}\n")


def load_edges_csv(path, num_vertices=None):
    """Read an edge-list CSV as ``(edges, N)``: an (E, 3) float array of
    ``src, dst, weight`` rows and N, ``max id + 1`` unless given."""
    table = _read_table(path, "src,dst,weight", "i8,i8,f8", "edge")
    edges = np.column_stack((table["f0"], table["f1"], table["f2"]))
    if num_vertices is None:
        num_vertices = edges[:, :2].max(initial=-1) + 1
    return edges, int(num_vertices)


def save_coords_csv(path, coords):
    coords = np.asarray(coords, dtype=float)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for row in coords:
            fh.write(",".join(_fmt(v) for v in row[:2]) + "\n")


def load_coords_csv(path):
    return _read_table(path, "x,y", "f8,f8", "coordinate").view(float)


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def save_signal_csv(path, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("signals are written as N x T matrices")
    with open(path, "w", newline="\n") as fh:
        for row in X:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_signal_csv(path):
    return _read_table(path, None, float, "signal")


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
    M = np.asarray(M)
    with open(path, "w", newline="\n") as fh:
        for row in M:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_mask_csv(path):
    return _read_table(path, None, float, "mask")


# ---------------------------------------------------------------------------
# Spectra and coefficients
# ---------------------------------------------------------------------------

def save_spectrum_csv(path, S):
    S = np.asarray(S, dtype=complex)
    with open(path, "w", newline="\n") as fh:
        fh.write("l,k,re,im\n")
        for l in range(S.shape[0]):
            for k in range(S.shape[1]):
                fh.write(f"{l + 1},{k + 1},{_fmt(S[l, k].real)},"
                         f"{_fmt(S[l, k].imag)}\n")


def load_spectrum_csv(path):
    table = _read_table(path, "l,k,re,im", "i8,i8,f8,f8", "spectrum").ravel()
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
        with open(path, encoding="utf-8", errors="replace") as fh:  # its line
            line = [i for i, text in enumerate(fh, 1) if i > 1 and text != "\n"][r]
        raise ValidationError(f"{path}: line {line}: {why}")
    n, t = int(l.max()) + 1, int(k.max()) + 1
    if table.size != n * t:
        raise ValidationError(
            f"{path}: incomplete spectrum ({table.size} of {n * t} entries)")
    S = np.empty((n, t), dtype=complex)
    S.real[l, k], S.imag[l, k] = table["f2"], table["f3"]
    return S


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
        fh.write(A.tobytes())


def _load_binary(path, magic):
    dtype, rank, what, entries = _BINARY[magic]
    with open(path, "rb") as fh:
        header, payload = fh.read(16), fh.read()
    if len(header) != 16:
        raise ValidationError(f"{path}: truncated {what} header")
    if header[:4] != magic:
        raise ValidationError(f"{path}: bad magic {header[:4]!r}")
    shape = struct.unpack("<3I", header[4:])[:rank]
    size, width = math.prod(shape), np.dtype(dtype).itemsize
    if len(payload) != size * width:
        raise ValidationError(f"{path}: expected {size} {entries}, "
                              f"found {len(payload) / width:.15g}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


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
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def load_bank(path, g):
    return build_bank(load_bank_spec(path), g)


def save_bank_spec(path, spec):
    with open(path, "w", newline="\n") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
