"""Byte-identity check of the CLI outputs of two source trees.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC --seeds 2 3
    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC --in-process

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``tvgsp`` package. For every workload of ``perfbench/workloads.py``
(imported, never modified) and every seed, each tree runs the workload's
``graph-gen``, the workload's input preparation and its stage chain, every
stage in a fresh ``python -m tvgsp._main ... --threads 1``. With
``--in-process`` the whole chain instead runs through ``tvgsp.cli.run`` in
one fresh interpreter per tree, one thread per pool, by the benchmark's
set-up probe (``perfbench/probe.py``, run, never modified), so that what a
stage keeps in the process for the next (the graph-load memo, whose
graph's cache holds the eigensystem) is compared too. The tool then
lists every output file that differs between the trees. Run reports are
compared without ``timings_ms``, ``environment`` and ``warnings``, and with
the paths in them reduced to file names. A differing signal or coefficient
file (``TVSG`` or ``TVCF`` binary, or numeric CSV) of the same size also
gets its largest relative difference, ``max |change - parent|`` over
``max |parent|``, so that an intended change of outputs shows its size. A
differing run report gets the dotted names of the fields that differ.

Exit status: 0 when every output matches, 1 when one differs or a stage
fails, 2 on a bad argument.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Report fields that differ between any two runs.
VOLATILE = ("timings_ms", "environment", "warnings")


#: The thread caps of ``--threads 1``, set for every interpreter started.
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")


def _run(src, args, work, name):
    """``python args`` in a fresh interpreter on the program in ``src``,
    started in ``work`` so that only ``PYTHONPATH`` decides which package
    loads; ``name`` names it when it fails."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               **ONE_THREAD)
    stderr = os.path.join(work, "stage.stderr")
    with open(stderr, "wb") as err:
        code = subprocess.run([sys.executable, *args], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=err).returncode
    if code != 0:
        with open(stderr, errors="replace") as fh:
            raise RuntimeError(f"{name} exited with {code}: "
                               f"{fh.read().strip()[-300:]}")


def _stage(src, argv, work):
    """One stage in its own ``python -m tvgsp._main``."""
    _run(src, ["-m", "tvgsp._main", *argv, "--threads", "1"], work, argv[0])


def _chain(src, argvs, work):
    """The stages ``argvs`` through ``tvgsp.cli.run`` in one interpreter:
    the benchmark's set-up probe, ``perfbench/probe.py``, which stops at
    the first stage that fails."""
    path = os.path.join(work, "stages.json")
    with open(path, "w") as fh:
        json.dump([argv + ["--threads", "1"] for argv in argvs], fh)
    _run(src, [os.path.join(ROOT, "perfbench", "probe.py"), path], work,
         "the in-process chain")


def _pass(wl, seed, src, work, in_process):
    """Inputs and one pipeline pass of ``wl`` under ``src``; returns the
    output directory."""
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(inputs)
    os.makedirs(out)
    _stage(src, wl.graph_gen_argv(seed, inputs), work)
    derived = wl.prepare(seed, inputs)
    argvs = wl.stages(seed, inputs, out, derived)
    if in_process:
        _chain(src, argvs, work)
    else:
        for argv in argvs:
            _stage(src, argv, work)
    return out


def _paths_to_names(value, work):
    """``value`` with every string path under ``work`` cut to its name."""
    if isinstance(value, dict):
        return {k: _paths_to_names(v, work) for k, v in value.items()}
    if isinstance(value, list):
        return [_paths_to_names(v, work) for v in value]
    if isinstance(value, str) and value.startswith(work + os.sep):
        return os.path.basename(value)
    return value


def _content(path, work):
    """What is compared of one output file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path).startswith("report-"):
        report = json.loads(data)
        for key in VOLATILE:
            report.pop(key, None)
        return _paths_to_names(report, work)
    return data


def _numbers(path):
    """The entries of a signal or coefficient file as one flat array, or
    None for a file of another kind."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] in (b"TVSG", b"TVCF"):
        return np.frombuffer(data[16:], "<f8" if data[:4] == b"TVSG"
                             else "<c16")
    if not path.endswith(".csv"):
        return None
    lines = data.decode().splitlines()
    for header in (0, 1):
        try:
            return np.loadtxt(lines[header:], delimiter=",",
                              ndmin=2).ravel()
        except ValueError:
            pass
    return None


def _changed_fields(parent, change, prefix=""):
    """Dotted names of the entries of two report objects that differ,
    descending into the objects that both hold."""
    names = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            names += _changed_fields(a, b, f"{prefix}{key}.")
        elif key not in parent or key not in change or a != b:
            names.append(prefix + key)
    return names


def _difference(paths, contents):
    """`` (fields ...)`` of two run reports, `` (largest relative
    difference ...)`` of two numeric files of one size, else an empty
    string."""
    if isinstance(contents[0], dict) and isinstance(contents[1], dict):
        return f" (fields {', '.join(_changed_fields(*contents))})"
    parent, change = map(_numbers, paths)
    if parent is None or change is None or parent.size != change.size:
        return ""
    scale = max(np.abs(parent).max(initial=0.0), 1e-300)
    return (f" (largest relative difference "
            f"{np.abs(change - parent).max(initial=0.0) / scale:.3e})")


def compare(parent_src, change_src, seeds, workloads, scratch,
            in_process=False):
    """``(files compared, names of the files that differ)``; a name carries
    the file's largest relative difference where it has one."""
    compared, differ = 0, []
    for name, wl in workloads.items():
        for seed in seeds:
            tag = f"{name}-seed{seed}"
            works = [os.path.join(scratch, tree, tag)
                     for tree in ("parent", "change")]
            outs = [_pass(wl, seed, src, work, in_process)
                    for src, work in zip((parent_src, change_src), works)]
            names = sorted(set(os.listdir(outs[0])) | set(os.listdir(outs[1])))
            for file in names:
                compared += 1
                paths = [os.path.join(out, file) for out in outs]
                both = all(map(os.path.exists, paths))
                contents = [_content(path, work) for path, work
                            in zip(paths, works)] if both else None
                if not both or contents[0] != contents[1]:
                    differ.append(f"{tag}/{file}" + (
                        _difference(paths, contents) if both else ""))
    return compared, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--in-process", action="store_true",
                        help="run each chain in one interpreter")
    args = parser.parse_args(argv)
    srcs = [os.path.abspath(s) for s in (args.parent_src, args.change_src)]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "tvgsp", "__init__.py")):
            parser.error(f"no tvgsp package under {src}")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    scratch = tempfile.mkdtemp(prefix="compare_outputs-")
    try:
        compared, differ = compare(*srcs, args.seeds, WORKLOADS, scratch,
                                   args.in_process)
    except RuntimeError as exc:
        print(f"compare_outputs: stage failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for file in differ:
        print(f"DIFFERS {file}")
    print(f"{compared} output files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
