"""One workload in one fresh process: a single closed-loop client.

    python3 perfbench/child.py <work dir> <seconds> <traced 0|1>

Runs the job list of <work dir>/jobs.json in sequence, round after round,
until <seconds> have passed and at least two rounds are done.  CLI jobs go
through susyhier.cli.main(argv) with stdout and stderr captured in memory;
library jobs call the public functions on the loaded config.  Writes

    child.json    import time, per-round wall/CPU/job times, output digests,
                  peak RSS, and (traced) the dense-eig probe
    outputs.jsonl the first round's [exit code, stdout, stderr], one job a
                  line, written as each job ends
    spans.json    traced only: every round's spans

The caller puts the checkout's src/ first on PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

MIN_ROUNDS = 2
# dense sizes of the three solves the workloads make: scan (257-point grid),
# verify_complex coarse (601) and refined (1201)
PROBE_DIMS = (255, 599, 1199)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    def __init__(self, work: str):
        self.work = work
        self.cli = importlib.import_module("susyhier.cli")
        self.config = importlib.import_module("susyhier.config")
        self.hierarchy = importlib.import_module("susyhier.hierarchy")
        self.errors = importlib.import_module("susyhier.errors")

    def run(self, job: dict) -> tuple[int, str, str]:
        path = os.path.join(self.work, job["id"] + ".ini")
        if job["kind"] == "cli":
            argv = [job["command"], "--config", path]
            if job["mode"]:
                argv += ["--mode", job["mode"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        # library jobs: looked up through the module at call time, so the
        # tracer's wrappers are the ones called
        mode = self.hierarchy.Mode(job["mode"].replace("-", "_"))
        try:
            cfg = self.config.load_config(path)
            if job["command"] == "hierarchy":
                levels = self.hierarchy.hierarchy(cfg.model, job["level"], mode, cfg.units)
                text = "".join(f"{lv.l},{lv.e0!r}\n" for lv in levels)
            else:
                rep = self.hierarchy.riccati_residual(cfg.model, job["level"], cfg.grid,
                                                      mode=mode, units=cfg.units)
                text = f"{rep.e0!r},{rep.max_abs_residual!r},{rep.argmax_x!r}\n"
        except self.errors.SusyhierError as exc:
            return 1, "", f"error: {exc}\n"
        return 0, text, ""


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def _dense_probe() -> list[list]:
    """[N, seconds] for one full dense eigen_spectrum at each of PROBE_DIMS.

    A first solve at the smallest size is discarded: it pays the one-time
    start of the BLAS threads.
    """
    susy = importlib.import_module("susyhier")
    verifier = importlib.import_module("susyhier.verifier")
    model = susy.MorsePT1(25.0, 50.0)
    out = []
    for dim in (PROBE_DIMS[0],) + PROBE_DIMS:
        ham = verifier.build_hamiltonian(model, susy.Grid(-20.0, 20.0, dim + 2))
        t0 = time.perf_counter()
        verifier.eigen_spectrum(ham, ham.dimension)
        out.append([dim, time.perf_counter() - t0])
    return out[1:]


def main(argv: list[str]) -> int:
    work, seconds, traced = argv[0], float(argv[1]), argv[2] == "1"
    t0 = time.perf_counter()
    cli = importlib.import_module("susyhier.cli")
    setup_s = time.perf_counter() - t0

    with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    runner = Runner(work)
    tracer = None
    if traced:
        from spans import Tracer  # after the timed import: it loads numpy
        tracer = Tracer()
        tracer.install()

    # the first round's outputs go to disk job by job, and only a digest of
    # each later output is kept, so no output outlives its job in memory; the
    # time this bookkeeping takes is left out of the round's wall and CPU
    rounds, round_spans = [], []
    with open(os.path.join(work, "outputs.jsonl"), "w", encoding="utf-8") as first:
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            if tracer:
                tracer.spans = []
            digests, job_s, bytes_out, aside_wall, aside_cpu = [], [], 0, 0.0, 0.0
            c0, w0 = _cpu(), time.perf_counter()
            for job in jobs:
                j0 = time.perf_counter()
                code, out, err = runner.run(job)
                j1, b0 = time.perf_counter(), _cpu()
                job_s.append(j1 - j0)
                digests.append(_digest(code, out, err))
                if job["kind"] == "cli":
                    bytes_out += len(out.encode())
                if not rounds:
                    first.write(json.dumps([code, out, err]) + "\n")
                aside_cpu += _cpu() - b0
                aside_wall += time.perf_counter() - j1
            rounds.append({"wall_s": time.perf_counter() - w0 - aside_wall,
                           "cpu_s": _cpu() - c0 - aside_cpu, "job_s": job_s,
                           "digests": digests, "bytes_out": bytes_out})
            if tracer:
                round_spans.append(tracer.spans)
    if tracer:
        tracer.uninstall()

    result = {"setup_s": setup_s, "module_file": cli.__file__, "rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "probe": _dense_probe() if traced else None}
    with open(os.path.join(work, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if traced:
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(round_spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
