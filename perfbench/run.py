"""Pipeline benchmark of the tvgsp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is used from ``src/`` as it
stands (nothing is installed). ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer metrics of traced in-process passes.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and the environment. Scratch files go to
``.perfbench_work/`` and are removed at exit; the full result (samples,
checks, environment and, when traced, every span) is kept in
``.perfbench_out/``. Exit status: 0 when every stage and output check
passed, 1 when one failed, 2 when the program or an argument is missing.
See ``perfbench/README.md`` for the metrics and workloads.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import envrecord
from hostspeed import HostSpeed, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Rounds measured even when ``--seconds`` runs out first.
MIN_ROUNDS = 2
#: Host-speed bursts before and after each set-up probe.
PROBE_BURSTS = 3

END_TO_END = {"pipeline_s": "s", "warm_pipeline_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Bench:
    """One workload at one seed: inputs, references and the counters of
    attempted and failed operations."""

    def __init__(self, wl, seed, work, threads):
        self.wl, self.seed, self.work = wl, seed, work
        self.threads = str(threads)
        self.attempted = self.failed = 0
        self.failures = []
        self.reference_digest = None
        self.checks, self.solver_outputs = [], {}
        self.cli = None
        self.speed = HostSpeed()
        self.inputs = os.path.join(work, "inputs")
        os.makedirs(self.inputs)
        gen = wl.graph_gen_argv(seed, self.inputs)
        if self._stage_process(gen, self.inputs)[0] != 0:
            raise RuntimeError("; ".join(self.failures))
        self.derived = wl.prepare(seed, self.inputs)
        self.references = wl.references(self.inputs, self.derived)

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def pass_dir(self, tag):
        out = os.path.join(self.work, tag)
        os.makedirs(out, exist_ok=True)
        return out, self.wl.stages(self.seed, self.inputs, out,
                                   self.derived)

    def verify(self, out, tag, must_match=False):
        """Accept a pass that is byte-identical to the first verified one;
        judge any other against the references (``must_match`` demands
        identity, as for traced passes)."""
        digest = output_digest(out)
        if digest == self.reference_digest or must_match:
            self.attempted += 1
            if digest != self.reference_digest:
                self._fail(f"{tag}: outputs differ from the untraced pass")
            return
        try:
            results, solver_outputs = self.wl.check(self.references, out)
        except (OSError, LookupError, ValueError, StopIteration) as exc:
            self.attempted += 1
            self._fail(f"{tag}: outputs unreadable: {exc!r}")
            return
        self.attempted += len(results)
        bad = [c for c in results if not c.ok]
        for c in bad:
            self._fail(f"{tag}: check {c.name} error {c.error:.3e} "
                       f"above tolerance {c.tol:.1e}")
        if not bad and self.reference_digest is None:
            self.reference_digest = digest
            self.checks, self.solver_outputs = results, solver_outputs

    def _stage_process(self, argv, out):
        err = os.path.join(out, f"{argv[0]}.stderr")
        code, rss_kb = spawn([sys.executable, "-m", "tvgsp._main", *argv,
                              "--threads", self.threads], err)
        self.attempted += 1
        if code != 0:
            self._fail(f"stage {argv[0]} exited with {code}: {tail(err)}")
        return code, rss_kb

    def chain(self, argvs, run_stage):
        """Run the stages in order with a host-speed burst before the first
        and after each; returns ``(seconds, bursts)`` or ``None``."""
        bursts = [self.speed.burst()]
        seconds = 0.0
        for argv in argvs:
            start = time.perf_counter()
            ok = run_stage(argv)
            seconds += time.perf_counter() - start
            if not ok:
                return None
            bursts.append(self.speed.burst())
        return seconds, bursts

    def cold(self):
        """One chain with each stage in a fresh ``python -m tvgsp._main``.

        Returns ``(seconds, bursts, peak RSS of the largest stage in MB)``
        or ``None``.
        """
        out, argvs = self.pass_dir("cold")
        peak_kb = []

        def run_stage(argv):
            code, rss_kb = self._stage_process(argv, out)
            peak_kb.append(rss_kb)
            return code == 0

        timed = self.chain(argvs, run_stage)
        if timed is None:
            return None
        self.verify(out, "cold")
        return timed + (max(peak_kb) / 1024.0,)

    def warm(self, tag="warm", tracer=None):
        """One chain through ``tvgsp.cli.run`` in this warmed process;
        returns ``(seconds, bursts)`` or ``None``."""
        out, argvs = self.pass_dir(tag)

        def run_stage(argv):
            self.attempted += 1
            try:
                code = self.cli.run(argv + ["--threads", self.threads])
            except Exception:  # noqa: BLE001 - count it, keep measuring
                code = traceback.format_exc(limit=3)
            if code != 0:
                self._fail(f"{tag}: stage {argv[0]} failed: {code}")
            return code == 0

        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            timed = self.chain(argvs, run_stage)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if timed is not None:
            self.verify(out, tag, must_match=tracer is not None)
        return timed

    def probe(self, tag):
        """Import plus one pass in a fresh interpreter: a set-up sample;
        returns ``(seconds, bursts)`` or ``None``."""
        out, argvs = self.pass_dir(tag)
        stages_path = os.path.join(out, "stages.json")
        with open(stages_path, "w") as fh:
            json.dump(argvs, fh)
        err = os.path.join(out, "probe.stderr")
        stdout = os.path.join(out, "probe.stdout")
        bursts = self.speed.bursts(PROBE_BURSTS)
        code, _ = spawn([sys.executable, os.path.join(HERE, "probe.py"),
                         stages_path], err, stdout)
        bursts += self.speed.bursts(PROBE_BURSTS)
        self.attempted += 1
        if code != 0:
            self._fail(f"{tag}: set-up probe exited with {code}: {tail(err)}")
            return None
        with open(stdout) as fh:
            elapsed = float(fh.read().split()[-1])
        self.verify(out, tag)
        return elapsed, bursts


def spawn(cmd, stderr_path, stdout_path=os.devnull):
    """Run ``cmd`` from the repository root to completion; return its exit
    code and its own peak resident set in KiB."""
    with open(stderr_path, "wb") as err, open(stdout_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def tail(path, limit=300):
    with open(path, errors="replace") as fh:
        return fh.read().strip()[-limit:].replace("\n", " | ")


def output_digest(out):
    """SHA-256 over the output files of a pass and the metrics of its run
    reports (report timings never repeat, so they are left out)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name.endswith((".stderr", ".stdout")) or name == "stages.json":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.startswith("report-"):
            data = json.dumps(json.loads(data)["metrics"],
                              sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def summary(values):
    """Median and sample count, plus the highest of p99/p95/p90/p75/p50
    that has at least ten samples beyond it (nearest rank)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = values[-(n * (100 - p) // 100) - 1]
            break
    return out


def measure_end_to_end(bench, seconds):
    """Rounds of one cold and one warm pass, in alternating order, until
    the next round would overrun ``seconds``; each of the first rounds also
    runs a set-up probe. Returns the samples (timings in reference seconds)
    and the raw wall times with their bursts."""
    samples = {key: [] for key in END_TO_END}
    raw = {key: [] for key in END_TO_END if key != "peak_rss_mb"}

    def add(key, timed):
        if timed is not None:
            samples[key].append(reference_seconds(*timed))
            raw[key].append(timed)

    deadline = time.perf_counter() + seconds
    round_s, rounds = 0.0, 0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        if rounds < SETUP_PROBES:
            add("setup_s", bench.probe(f"probe{rounds}"))
        for kind in ("cold", "warm") if rounds % 2 == 0 else ("warm", "cold"):
            if kind == "warm":
                add("warm_pipeline_s", bench.warm())
                continue
            cold = bench.cold()
            if cold is not None:
                add("pipeline_s", cold[:2])
                samples["peak_rss_mb"].append(cold[2])
        round_s = time.perf_counter() - start
        rounds += 1
    for n in range(rounds, SETUP_PROBES):
        add("setup_s", bench.probe(f"probe{n}"))
    return samples, raw


def measure_per_layer(bench, seconds):
    """Alternate untraced and traced warm passes for ``seconds``; returns
    the per-layer metrics (medians over traced passes) and the spans."""
    import checks
    import tracer as tracing

    tr = tracing.Tracer()
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    round_s, rounds = 0.0, 0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        for use_tracer in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not use_tracer:
                timed = bench.warm()
                if timed is not None:
                    untraced.append(timed[0])
                continue
            timed = bench.warm("traced", tracer=tr)
            spans = tr.take()
            if timed is not None:
                traced.append(timed[0])
                reports = checks.read_reports(os.path.join(bench.work, "traced"))
                passes.append((spans, tracing.layer_metrics(spans, reports)))
        round_s = time.perf_counter() - start
        rounds += 1
    if not passes or not untraced:
        return {}, passes
    metrics = {key: statistics.median(m[key] for _, m in passes)
               for key in tracing.PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    bench.attempted += 1
    ran = [s.name[len("cmd_"):].replace("_", "-") for s in passes[0][0]
           if s.layer == "cli" and s.name.startswith("cmd_")]
    if ran != list(bench.wl.chain):
        bench._fail(f"traced subcommands {ran} differ from {list(bench.wl.chain)}")
    return metrics, passes


def write_spans(path, passes):
    with open(path, "w") as fh:
        for n, (spans, _) in enumerate(passes):
            index = {id(s): i for i, s in enumerate(spans)}
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": n, "id": i, "layer": s.layer, "name": s.name,
                    "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "count": s.count})
                    + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="tvgsp pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvgsp", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    # Thread caps must be in place before numpy is first imported.
    threads = envrecord.nproc()
    for var in envrecord.THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    import tracer
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload '{args.workload}'; available: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    steal_start, load_start = envrecord.steal_ticks(), envrecord.loadavg()
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{wl.name}-{args.seed}-{os.getpid()}")
    passes = []
    try:
        try:
            bench = Bench(wl, args.seed, work, threads)
        except RuntimeError as exc:
            print(f"perfbench: preparing inputs failed: {exc}",
                  file=sys.stderr)
            return 1
        import tvgsp.cli
        bench.cli = tvgsp.cli
        bench.warm("warmup")
        if args.trace == 0:
            samples, raw = measure_end_to_end(bench, args.seconds)
            stats = {k: summary(v) for k, v in samples.items() if v}
            metrics = {k: s["median"] for k, s in stats.items()}
            units = END_TO_END
        else:
            metrics, passes = measure_per_layer(bench, args.seconds)
            if metrics:
                metrics.update(bench.solver_outputs)
            units = tracer.PER_LAYER
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "checks": {c.name: [c.error, c.tol] for c in bench.checks},
              "failures": bench.failures,
              "environment": envrecord.record(ROOT, SRC, steal_start,
                                              load_start)}
    if args.trace == 0:
        result["samples"], result["stats"] = samples, stats
        result["wall_s_and_bursts"] = raw
    else:
        result["metrics"] = metrics
        result["predicted_eig_calls"] = wl.predicted_eig_calls
        result["computed_counts"] = list(tracer.COMPUTED)
    if set(metrics) != set(units):
        bench._fail(f"missing metrics {sorted(set(units) - set(metrics))}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(base + ".json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if passes:
        write_spans(base + "-spans.jsonl", passes)

    for key in units:
        if key in metrics:
            line = f"{key:30s} {metrics[key]:>14.6g} {units[key]}"
            if args.trace == 0:
                s = stats[key]
                extra = [f"{p}={v:.6g}" for p, v in s.items()
                         if p.startswith("p")]
                line += f"  (median of n={s['n']}{', ' if extra else ''}"
                line += ", ".join(extra) + ")"
                if key in raw:
                    wall = statistics.median(t[0] for t in raw[key])
                    line += f"; wall median {wall:.6g} s"
            print(line)
    if args.trace == 1 and metrics:
        print(f"graphs.eig_calls per pass: {metrics['graphs.eig_calls']:g} "
              f"(predicted {wl.predicted_eig_calls})")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for message in bench.failures:
        print("FAILED " + message)
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics}}))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
