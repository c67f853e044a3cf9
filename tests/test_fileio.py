import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsp import (ValidationError, analyze, build_graph,
                   itersine_graph_design, knn_sensor_graph, make_stvft,
                   time_window)
from tvgsp import fileio
from tvgsp.rng import default_rng


def test_edge_csv_roundtrip(tmp_path):
    g = knn_sensor_graph(15, 3, seed=1)
    path = tmp_path / "g.csv"
    fileio.save_edges_csv(path, g)
    edges, n = fileio.load_edges_csv(path)
    g2 = build_graph(edges, n)
    assert n == 15
    assert np.array_equal(g.W.toarray(), g2.W.toarray())


def test_edge_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,1,1.0\n")
    with pytest.raises(ValidationError, match="header"):
        fileio.load_edges_csv(path)


def test_coords_roundtrip(tmp_path):
    coords = default_rng(2).random((7, 2))
    path = tmp_path / "c.csv"
    fileio.save_coords_csv(path, coords)
    assert np.array_equal(fileio.load_coords_csv(path), coords)


def test_signal_csv_roundtrip(tmp_path):
    X = default_rng(3).standard_normal((5, 9))
    path = tmp_path / "x.csv"
    fileio.save_signal_csv(path, X)
    assert np.array_equal(fileio.load_signal_csv(path), X)


def test_signal_csv_single_column(tmp_path):
    path = tmp_path / "x1.csv"
    path.write_text("1.5\n-2.0\n0.25\n")
    X = fileio.load_signal_csv(path)
    assert X.shape == (3, 1)


def test_signal_binary_roundtrip(tmp_path):
    X = default_rng(4).standard_normal((6, 11))
    path = tmp_path / "x.bin"
    fileio.save_signal(path, X)
    assert np.array_equal(fileio.load_signal(path), X)
    raw = path.read_bytes()
    assert raw[:4] == b"TVSG"
    assert len(raw) == 16 + 6 * 11 * 8


def test_signal_binary_validation(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ValidationError, match="magic"):
        fileio.load_signal_binary(path)
    path.write_bytes(b"TVSG")
    with pytest.raises(ValidationError, match="truncated"):
        fileio.load_signal_binary(path)
    path.write_bytes(struct.pack("<4sIII", b"TVSG", 2, 2, 0) + b"\0" * 37)
    with pytest.raises(ValidationError, match="expected 4 samples, found 4.625"):
        fileio.load_signal_binary(path)


def _load_from_pipe(load, data):
    """``load`` applied to a pipe holding ``data``, named by its
    ``/dev/fd`` path: a stream with no size."""
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)
        return load(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_binary_payloads_load_from_a_pipe(tmp_path):
    rng = default_rng(6)
    X = rng.standard_normal((5, 7))
    C = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
    fileio.save_signal_binary(tmp_path / "x.tvsg", X)
    fileio.save_coefficients_binary(tmp_path / "c.tvcf", C)
    for name, load, want in (
            ("x.tvsg", fileio.load_signal_binary, X),
            ("c.tvcf", fileio.load_coefficients_binary, C)):
        got = _load_from_pipe(load, (tmp_path / name).read_bytes())
        assert got.flags.writeable and np.array_equal(got, want)


def test_short_pipe_reports_the_truncation():
    data = struct.pack("<4sIII", b"TVSG", 2, 2, 0) + b"\0" * 20
    with pytest.raises(ValidationError,
                       match="expected 4 samples, found 2.5"):
        _load_from_pipe(fileio.load_signal_binary, data)


def test_spectrum_csv_roundtrip(tmp_path):
    rng = default_rng(5)
    S = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    path = tmp_path / "s.csv"
    fileio.save_spectrum_csv(path, S)
    with open(path) as fh:
        assert fh.readline().strip() == "l,k,re,im"
    assert np.array_equal(fileio.load_spectrum_csv(path), S)


def test_spectrum_csv_one_based_indices(tmp_path):
    path = tmp_path / "s.csv"
    fileio.save_spectrum_csv(path, np.array([[1.0 + 2.0j]]))
    assert path.read_text().splitlines()[1] == "1,1,1.0,2.0"


def test_edge_csv_header_only_is_an_edgeless_graph(tmp_path):
    path = tmp_path / "g.csv"
    fileio.save_edges_csv(path, build_graph([], 4))
    assert fileio.load_edges_csv(path)[1] == 0
    g = build_graph(*fileio.load_edges_csv(path, 4))
    assert (g.N, g.num_edges) == (4, 0)


def test_spectrum_csv_incomplete_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("l,k,re,im\n1,1,1.0,0.0\n2,2,1.0,0.0\n")
    with pytest.raises(ValidationError, match="incomplete"):
        fileio.load_spectrum_csv(path)


def test_mask_roundtrip(tmp_path):
    M = (default_rng(6).random((4, 5)) > 0.5).astype(float)
    path = tmp_path / "m.csv"
    fileio.save_mask_csv(path, M)
    assert np.array_equal(fileio.load_mask_csv(path), M)


def test_coefficients_roundtrip(tmp_path):
    rng = default_rng(7)
    C = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    path = tmp_path / "c.tvcf"
    fileio.save_coefficients_binary(path, C)
    assert np.array_equal(fileio.load_coefficients_binary(path), C)
    assert path.read_bytes()[:4] == b"TVCF"


@pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
def test_binary_files_hold_the_header_and_the_array_bytes(tmp_path, layout):
    """Written from the array's own buffer, a binary file is its header
    and then the bytes of the contiguous float64 or complex128 array, in
    any layout or type of the input."""
    rng = default_rng(9)
    X, C = rng.standard_normal((5, 7)), rng.standard_normal((2, 5, 7)) + 0j
    C.imag = rng.standard_normal(C.shape)
    make = {"C": lambda A: A, "F": np.asfortranarray,
            "strided": lambda A: np.repeat(A, 2, axis=-1)[..., ::2],
            "float32": lambda A: A.astype(np.complex64 if A.dtype == complex
                                          else np.float32)}[layout]
    for save, A, magic, dtype in (
            (fileio.save_signal_binary, X, b"TVSG", "<f8"),
            (fileio.save_coefficients_binary, C, b"TVCF", "<c16")):
        path = tmp_path / magic.decode()
        save(path, make(A))
        shape = list(A.shape) + [0] * (3 - A.ndim)
        assert path.read_bytes() == (struct.pack("<4sIII", magic, *shape)
                                     + np.asarray(make(A), dtype).tobytes())


def test_bank_spec_stvwt(tmp_path):
    g = knn_sensor_graph(12, 3, seed=8)
    spec = {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "damped_wave", "params": {"beta": 0.4}},
        "scales_lambda": [0.5, 1.0, 1.5],
        "scales_omega": [1.0],
        "check_admissibility": False,
    }
    path = tmp_path / "bank.json"
    fileio.save_bank_spec(path, spec)
    bank = fileio.load_bank(path, g)
    assert bank.kind == "stvwt"
    assert bank.size == 3
    assert not bank.subsampled


def test_bank_spec_stvft(tmp_path):
    g = knn_sensor_graph(12, 3, seed=9)
    spec = {
        "kind": "stvft", "T": 16,
        "window_graph": {"name": "itersine", "num_translates": 4},
        "window_time": {"shape": "rectangular", "length": 4},
        "time_hop": 4,
    }
    path = tmp_path / "bank.json"
    fileio.save_bank_spec(path, spec)
    bank = fileio.load_bank(path, g)
    assert bank.kind == "stvft"
    assert bank.size == 4 * 4
    assert bank.subsampled


def test_bank_spec_stvft_honours_its_graph_shifts():
    """A ``z_lambda`` field replaces the itersine design's shifts: the bank
    analyzes as ``make_stvft`` with those shifts does."""
    g = knn_sensor_graph(12, 3, seed=9)
    eig = g.eigensystem()
    shifts = [0.25, 1.0, 2.5, 3.0]
    spec = {"kind": "stvft", "T": 8, "z_lambda": shifts,
            "window_graph": {"name": "itersine", "num_translates": 3},
            "window_time": {"shape": "hann", "length": 4}, "time_hop": 2}
    h_graph, _ = itersine_graph_design(g.lmax, 3)
    X = default_rng(4).standard_normal((12, 8))
    bank = fileio.build_bank(spec, g)
    expected = make_stvft(h_graph, time_window("hann", 4), shifts, 2, g, 8)
    assert bank.meta["z_lambda"] == shifts and bank.size == 4 * 4
    np.testing.assert_allclose(analyze(bank, X, g, eig=eig),
                               analyze(expected, X, g, eig=eig),
                               rtol=0, atol=1e-13)


def test_bank_spec_validation(tmp_path):
    g = knn_sensor_graph(12, 3, seed=10)
    with pytest.raises(ValidationError, match="unknown bank kind"):
        fileio.build_bank({"kind": "nope", "T": 4}, g)
    with pytest.raises(ValidationError, match="misses field"):
        fileio.build_bank({"kind": "stvwt", "T": 4}, g)
    with pytest.raises(ValidationError, match="unknown mother"):
        fileio.build_bank({"kind": "stvwt", "T": 4,
                           "mother": {"name": "nope"},
                           "scales_lambda": [1.0],
                           "scales_omega": [1.0]}, g)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        fileio.load_bank(bad, g)


def test_bank_spec_that_is_not_utf8_is_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\x80{"kind": "stvwt"}')
    with pytest.raises(ValidationError, match=r"bad\.json: invalid JSON .*utf-8"):
        fileio.load_bank_spec(bad)


def test_bank_spec_wave_gauss_lmax_scale():
    g = knn_sensor_graph(12, 3, seed=11)
    spec = {"kind": "stvwt", "T": 8,
            "mother": {"name": "wave_gauss", "params": {"lmax_scale": 0.5}},
            "scales_lambda": [1.0], "scales_omega": [1.0],
            "check_admissibility": False}
    bank = fileio.build_bank(spec, g)
    assert bank.mother.params == {"lmax": 0.5 * g.lmax}


@pytest.mark.parametrize("loader,text,match", [
    (fileio.load_edges_csv, "src,dst,weight\n0,1,1.0\n1,2.5,1.0\n", "line 3"),
    (fileio.load_coords_csv, "x,y\n0.1,0.2\n0.3,?\n", "line 3"),
    (fileio.load_coords_csv, "x,y\n0.1,0.2,0.3\n", "line 2"),
    (fileio.load_spectrum_csv, "l,k,re,im\n1,1,0.5,x\n", "line 2"),
    (fileio.load_spectrum_csv, "l,k,re,im\n1,1,0.5\n", "line 2"),
    (fileio.load_spectrum_csv, "l,k,re,im\n\n0,1,0.5,0.0\n", "line 3"),
    (fileio.load_spectrum_csv, "l,k,re,im\n1,1,0,0\n\n1,1,0,0\n", "line 4"),
    (fileio.load_edges_csv, "src,dst,weight\n\n0,1,1.0\n1,1.0,1.0\n", "line 4"),
    (fileio.load_coords_csv, b"x,y\n0.1,0.2\n0.3,\xff\n", "line 3"),
    (fileio.load_signal_csv, "1,2,3\n4,5\n", "line 2"),
    (fileio.load_signal_csv, "1,2\n3,x\n", "line 2"),
    (fileio.load_signal_csv, "1,2\n\n3,4,5\n", "line 3"),
    (fileio.load_signal_csv, "", "no data rows"),
    (fileio.load_mask_csv, "1,0\n0,z\n", "mask"),
    (fileio.load_mask_csv, "1,0\n0,z\n", "line 2"),
    (fileio.load_mask_csv, "1,0\n0\n", "line 2"),
    (fileio.load_mask_csv, "1,0\n\n\n0,1,1\n", "line 4"),
    (fileio.load_mask_csv, "\n\n", "no data rows"),
    (fileio.load_signal_csv, "1,2\n# note\n3,4\n", "line 2"),
    (fileio.load_mask_csv, "1,0 # note\n", "line 1"),
])
def test_csv_parsing_errors_name_the_file(loader, text, match, tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValidationError, match=match) as err:
        loader(path)
    assert "input.csv" in str(err.value)


_READERS = [(fileio.load_edges_csv, "src,dst,weight\n"),
            (fileio.load_coords_csv, "x,y\n"),
            (fileio.load_spectrum_csv, "l,k,re,im\n"),
            (fileio.load_signal_csv, ""), (fileio.load_mask_csv, "")]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(reader=st.sampled_from(_READERS), header=st.booleans(),
       body=st.text(st.sampled_from("0123456789.,-+eE naxf#\n\r\t\x00\xff"),
                    max_size=60))
def test_csv_readers_fail_only_with_validation_errors(reader, header, body):
    """Malformed text either parses or raises a ValidationError naming the
    file; no other exception and no warning escapes."""
    loader, first_line = reader
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write((first_line if header else "") + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loader(path)
            except ValidationError as exc:
                assert str(exc).startswith(f"{path}: ")


def _complex(parts):
    parts = np.asarray(parts, dtype=float)
    C = np.empty(parts.shape[:-1], dtype=complex)
    C.real, C.imag = parts[..., 0], parts[..., 1]
    return C


#: name -> (save, load, array from a float64 array of the drawn shape)
_CODECS = {
    "x.bin": (fileio.save_signal, fileio.load_signal, lambda A: A[..., 0]),
    "x.csv": (fileio.save_signal, fileio.load_signal, lambda A: A[..., 0]),
    "s.csv": (fileio.save_spectrum_csv, fileio.load_spectrum_csv, _complex),
    "c.tvcf": (fileio.save_coefficients_binary,
               fileio.load_coefficients_binary,
               lambda A: _complex(A.reshape(A.shape[0], 1, *A.shape[1:]))),
}
_EXTREMES = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_CODECS)), rows=st.integers(1, 4),
       cols=st.integers(1, 4), data=st.data())
def test_codecs_round_trip_bit_for_bit(name, rows, cols, data):
    """Signals, spectra and coefficients come back with the same bits,
    including -0.0, subnormals and magnitudes near the float64 limit."""
    save, load, make = _CODECS[name]
    value = st.one_of(st.sampled_from(_EXTREMES),
                      st.floats(allow_nan=False, allow_infinity=False))
    A = make(np.array(data.draw(st.lists(
        value, min_size=rows * cols * 2, max_size=rows * cols * 2)),
        dtype=float).reshape(rows, cols, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        save(path, A)
        B = load(path)
    assert B.dtype == A.dtype and B.shape == A.shape
    assert B.tobytes() == A.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_CODECS)), bad=st.sampled_from(
    [np.nan, np.inf, -np.inf]), at=st.integers(0, 11), imag=st.booleans())
def test_codecs_reject_non_finite_entries_naming_the_file(name, bad, at,
                                                          imag):
    save, load, make = _CODECS[name]
    A = make(default_rng(at).standard_normal((3, 4, 2)))
    A.flat[at] = complex(0.0, bad) if imag and A.dtype == complex else bad
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        save(path, A)
        with pytest.raises(ValidationError,
                           match="contains NaN or Inf entries") as err:
            load(path)
    assert str(err.value).startswith(f"{path}: ")
