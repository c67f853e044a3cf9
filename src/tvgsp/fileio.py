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
"""

import csv
import json
import struct

import numpy as np

from .errors import ValidationError
from .frames import itersine_graph_design, make_stvft, make_stvwt, time_window
from .kernels import _NAMED, _number, named_response

_SIGNAL_MAGIC = b"TVSG"
_COEFF_MAGIC = b"TVCF"


def _fmt(x):
    return repr(float(x))


def _malformed(path, reader):
    """Error for the CSV row ``reader`` read last (a field that is not a
    number, or a missing or extra one)."""
    return ValidationError(f"{path}: line {reader.line_num}: malformed row "
                           "(non-numeric, missing or extra field)")


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
    """Read an edge-list CSV; infers N as ``max id + 1`` unless given."""
    edges = []
    max_id = -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "weight"]:
            raise ValidationError(f"{path}: expected header 'src,dst,weight'")
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValidationError(f"{path}: malformed edge row {row!r}")
                i, j, w = int(row[0]), int(row[1]), float(row[2])
                edges.append((i, j, w))
                max_id = max(max_id, i, j)
        except ValueError:
            raise _malformed(path, reader) from None
    n = int(num_vertices) if num_vertices is not None else max_id + 1
    return edges, n


def save_coords_csv(path, coords):
    coords = np.asarray(coords, dtype=float)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for row in coords:
            fh.write(",".join(_fmt(v) for v in row[:2]) + "\n")


def load_coords_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y"]:
            raise ValidationError(f"{path}: expected header 'x,y'")
        try:
            rows = [(float(x), float(y)) for x, y in filter(None, reader)]
        except ValueError:
            raise _malformed(path, reader) from None
    return np.asarray(rows, dtype=float)


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
    try:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a numeric CSV signal ({exc})") from None
    return X


def save_signal_binary(path, X):
    X = np.ascontiguousarray(np.asarray(X, dtype="<f8"))
    if X.ndim != 2:
        raise ValidationError("signals are written as N x T matrices")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _SIGNAL_MAGIC, X.shape[0], X.shape[1], 0))
        fh.write(X.tobytes())


def load_signal_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValidationError(f"{path}: truncated signal header")
        magic, n, t, _ = struct.unpack("<4sIII", header)
        if magic != _SIGNAL_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * t:
        raise ValidationError(
            f"{path}: expected {n * t} samples, found {data.size}")
    return data.reshape(n, t).copy()


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
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a numeric CSV mask ({exc})") from None


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
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["l", "k", "re", "im"]:
            raise ValidationError(f"{path}: expected header 'l,k,re,im'")
        try:
            for row in reader:
                if not row:
                    continue
                l, k = int(row[0]) - 1, int(row[1]) - 1
                if (l, k) in entries:
                    raise ValidationError(
                        f"{path}: duplicate entry for l={l + 1}, k={k + 1}")
                entries[(l, k)] = complex(float(row[2]), float(row[3]))
        except (ValueError, IndexError):
            raise _malformed(path, reader) from None
    if not entries:
        raise ValidationError(f"{path}: empty spectrum")
    n = 1 + max(l for l, _ in entries)
    t = 1 + max(k for _, k in entries)
    if len(entries) != n * t:
        raise ValidationError(
            f"{path}: incomplete spectrum ({len(entries)} of {n * t} entries)")
    S = np.empty((n, t), dtype=complex)
    for (l, k), v in entries.items():
        S[l, k] = v
    return S


def save_coefficients_binary(path, C):
    C = np.ascontiguousarray(np.asarray(C, dtype="<c16"))
    if C.ndim != 3:
        raise ValidationError("coefficients are written as |Z| x N x T tensors")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _COEFF_MAGIC, *C.shape))
        fh.write(C.tobytes())


def load_coefficients_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValidationError(f"{path}: truncated coefficient header")
        magic, z, n, t = struct.unpack("<4sIII", header)
        if magic != _COEFF_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != z * n * t:
        raise ValidationError(
            f"{path}: expected {z * n * t} coefficients, found {data.size}")
    return data.reshape(z, n, t).copy()


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


def load_bank(path, g):
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return build_bank(spec, g)


def save_bank_spec(path, spec):
    with open(path, "w", newline="\n") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
