"""susyhier benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
src/.  Each run starts the workload in a fresh child process (a single
closed-loop client) and checks every output.

--trace 0   end-to-end metrics, tracing off: setup_s (import of
            susyhier.cli in a fresh process, median of 16), and the median
            round's wall_s and cpu_s, plus the child's peak_rss_mb.
--trace 1   per-layer metrics: one untraced child and one traced child on
            the same jobs for the same time; their outputs must be
            byte-identical and the traced counts must repeat exactly from
            round to round.

The result, with the environment block, is written to
perfbench/out/<workload>-seed<n>-trace<t>/result.json (spans beside it), and
its summary is the last line of stdout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs as joblist  # noqa: E402
import spans  # noqa: E402

OUT = os.path.join(HERE, "out")
# a run must end within 180 s; children are killed when this budget is spent,
# leaving room for the checks that follow them
RUN_BUDGET_S = 160
SETUP_PROBES = 15
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import susyhier.cli; "
                "print(time.perf_counter() - t0)")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer metrics printed by --trace 1.  Every time among them is nonzero
# on every workload; result.json["layers"] adds the per-function breakdown
# (eig_dense_s, point_p50_s, hierarchy_s, ...), whose times read 0 on the
# workloads that never reach that function.
PER_LAYER = (
    ("verifier.eig_s", "s"), ("verifier.eig_dense_calls", "count"),
    ("verifier.eig_tridiag_calls", "count"), ("verifier.eig_dim_sum", "count"),
    ("verifier.eig_pairs_kept_ratio", "ratio"), ("verifier.dense_bytes_computed", "B"),
    ("verifier.eig_dense_exponent", "log/log"), ("verifier.build_s", "s"),
    ("verifier.self_s", "s"), ("verifier.bound_kept_ratio", "ratio"),
    ("potentials.eval_s", "s"), ("config.load_s", "s"), ("cli.self_s", "s"),
    ("cli.bytes_out", "B"), ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: str, work: str, seconds: float, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), work, str(seconds),
           "1" if traced else "0"]
    subprocess.run(cmd, cwd=root, env=child_env(root), stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(os.path.join(work, "child.json"), encoding="utf-8") as fh:
        child = json.load(fh)
    with open(os.path.join(work, "outputs.jsonl"), encoding="utf-8") as fh:
        child["outputs"] = [json.loads(line) for line in fh]
    expected = os.path.join(root, "src", "susyhier")
    if os.path.dirname(os.path.abspath(child["module_file"])) != expected:
        raise RuntimeError(f"child imported {child['module_file']}, not the checkout's src/")
    return child


def import_probe(root: str, deadline: float) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(root),
                          capture_output=True, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return float(done.stdout.strip())


def environment(root: str) -> dict:
    import numpy
    import scipy
    try:
        # the ceiling stops git from reporting an enclosing repository's HEAD
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # benchmark checkouts are not git repositories
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "susyhier")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform(),
    }


def check_round(workload_jobs, outputs, seed, root, work) -> dict:
    """{job index: reason} for every job whose output fails its check."""
    bad = {}
    for i, (job, (code, out, err)) in enumerate(zip(workload_jobs, outputs)):
        why = checks.check_job(job, code, out, err, seed=seed, root=root,
                               config_path=os.path.join(work, job["id"] + ".ini"))
        if why:
            bad[i] = why
    return bad


def count_failed(rounds, reference, bad: dict) -> int:
    """Failed executions: a job fails in a round when its checked output is bad
    or when that round's bytes differ from the checked round's (`reference`)."""
    failed = 0
    for rnd in rounds:
        for i, digest in enumerate(rnd["digests"]):
            if digest != reference[i]:
                bad.setdefault(i, "output bytes differ between runs")
                failed += 1
            elif i in bad:
                failed += 1
    return failed


def time_shares(workload_jobs, rounds) -> dict:
    """{job kind: its share of the summed job time over all rounds}; an
    invalid config is its own kind, whatever command it was given to."""
    totals = {}
    for rnd in rounds:
        for job, t in zip(workload_jobs, rnd["job_s"]):
            kind = "invalid" if job["expect"] == "invalid" else job["command"]
            totals[kind] = totals.get(kind, 0.0) + t
    whole = sum(totals.values())
    return {kind: t / whole for kind, t in sorted(totals.items())}


def trace_metrics(child: dict, plain: dict, work: str) -> tuple[dict, list[str]]:
    with open(os.path.join(work, "spans.json"), encoding="utf-8") as fh:
        rounds = json.load(fh)
    problems = []
    counts = [spans.round_counts(s, r["bytes_out"]) for s, r in zip(rounds, child["rounds"])]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between rounds")
    layers = [spans.round_layers(s) for s in rounds]
    metrics = dict(counts[0])
    for key in layers[0]:
        metrics[key] = statistics.median(lay[key] for lay in layers)
    points = [t for s in rounds for t in spans.point_times(s)]
    allowed = spans.reportable_percentiles(len(points))
    for p in (50.0, 90.0):
        metrics[f"verifier.point_p{p:g}_s"] = spans.percentile(points, p) if p in allowed else 0.0
    dims, times = zip(*child["probe"])
    metrics["verifier.eig_dense_exponent"] = spans.loglog_slope(dims, times)
    # the first round of each child is left out: it pays the start of the
    # BLAS threads and the first calls
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in child["rounds"][1:])
                                   - statistics.median(r["wall_s"] for r in plain["rounds"][1:]))
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    for need in (os.path.join("src", "susyhier", "cli.py"), os.path.join("tests", "data")):
        if not os.path.exists(os.path.join(root, need)):
            log(f"error: {need} not found; run from the root of a susyhier checkout")
            return 2
    sys.path.insert(0, os.path.join(root, "src"))

    workload_jobs, configs = joblist.generate(args.workload, args.seed)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for stem, text in configs.items():
        with open(os.path.join(work, stem + ".ini"), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(work, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(workload_jobs, fh)

    log(f"{args.workload} seed {args.seed}: {len(workload_jobs)} jobs per round")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root)}
    if args.trace == 0:
        child = run_child(root, work, args.seconds, False, deadline)
        setup = [child["setup_s"]] + [import_probe(root, deadline) for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in child["rounds"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in child["rounds"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = END_TO_END
        problems = []
        job_times = [t for r in child["rounds"] for t in r["job_s"]]
        result["jobs"] = spans.timing_summary(job_times)
        result["jobs"]["time_share"] = time_shares(workload_jobs, child["rounds"])
        result["setup_samples_s"] = setup
    else:
        plain = run_child(root, work, args.seconds, False, deadline)
        child = run_child(root, work, args.seconds, True, deadline)
        values, problems = trace_metrics(child, plain, work)
        units = PER_LAYER
        result["layers"] = values
        # the traced rounds are checked by comparing their bytes with the
        # untraced child's checked first round
        child["outputs"] = plain["outputs"]
        child["rounds"] = plain["rounds"] + child["rounds"]

    bad = check_round(workload_jobs, child["outputs"], args.seed, root, work)
    failed = count_failed(child["rounds"], child["rounds"][0]["digests"], bad)
    reasons = {workload_jobs[i]["id"]: why for i, why in bad.items()}
    attempted = len(workload_jobs) * len(child["rounds"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result.update({
        "rounds": len(child["rounds"]),
        "round_wall_s": [r["wall_s"] for r in child["rounds"]],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": reasons, "problems": problems, "metrics": metrics,
    })
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for job_id, why in sorted(reasons.items()):
        log(f"FAILED {job_id}: {why}")
    for why in problems:
        log(f"FAILED: {why}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
