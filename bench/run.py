"""ragcap benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload desk --seed 0 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is the result
as one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``). The full run record goes to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``. See bench/README.md.
"""

import os

# Pinned before numpy is imported anywhere in this process: one process, one
# BLAS thread, so the figures do not depend on how busy the other core is.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ.setdefault("RAGCAP_LOG", "WARNING")

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

# Seed 0 is the one the figures in ROADMAP.md and bench/README.md were taken
# with. The held-out seed was not used while writing the benchmark; check a
# claimed gain on it too.
DEV_SEED = 0
HELD_OUT_SEED = 104729


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed passes repeat until this many seconds have "
                        "passed (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny budget for the smoke test; writes no record")
    return p.parse_args(argv)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree
    (the search stops at ROOT's parent, so an enclosing repo is not used)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def source_digest() -> str:
    """SHA-256 over the program, its desk config and the benchmark itself, so
    records of different code are never compared."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "ragcap", "*.py")))
    paths += [os.path.join(ROOT, "configs", "desk.cfg"),
              os.path.join(ROOT, "BENCHMARK.json")]
    paths += sorted(glob.glob(os.path.join(BENCH_DIR, "*.py")))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def earlier_records(workload: str, seed: int, digest: str) -> list[dict]:
    """Records of earlier runs of this (workload, seed) on the same code that
    this checkout holds."""
    records = []
    pattern = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace*.json")
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, encoding="utf-8") as f:
                rec = json.load(f)
        except (OSError, ValueError):
            continue
        if rec.get("source_sha256") == digest:
            records.append(rec)
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (os.path.join("src", "ragcap", "cli.py"),
                           os.path.join("configs", "desk.cfg"),
                           "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a ragcap checkout, missing {missing}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import Tracer
    from workloads import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digest = source_digest()

    tracer = Tracer() if args.trace else None
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {"workload": workload.name, "why": why.get(workload.name),
              "seed": args.seed, "dev_seed": DEV_SEED,
              "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "source_sha256": digest, "machine": machine()}
    record["git_sha"], record["git_dirty"] = git_state()

    wall0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        session = Session(workload, args.seed, tmp, ROOT, smoke=args.smoke)
        if tracer is not None:
            tracer.install()
        try:
            session.setup()
            deadline = time.perf_counter() + args.seconds
            while True:
                session.timed_pass(len(session.pass_captions))
                if time.perf_counter() >= deadline:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()

    run_wall = time.perf_counter() - wall0
    attempted, failures = session.attempted, list(session.failures)
    earlier = [] if args.smoke else earlier_records(workload.name, args.seed,
                                                    digest)
    if earlier:
        attempted += 1
        hashes = {k: v for rec in earlier
                  for k, v in rec.get("artifact_sha256", {}).items()}
        differ = sorted(k for k, v in session.hashes.items()
                        if k in hashes and hashes[k] != v)
        if differ:
            failures.append("artifacts differ from an earlier run of this "
                            f"seed on the same code: {differ}")

    e2e = session.end_to_end()
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    tail_s, tail_pct = session.generate_tail()
    record.update({
        "samples": {k: len(v) for k, v in session.samples.items()},
        "sample_seconds": session.samples,
        "pass_seconds": session.pass_walls,
        "generate_tail": {"seconds": tail_s, "percentile": tail_pct,
                          "samples": len(session.samples.get("generate",
                                                             []))},
        "scores": session.scores,
        "end_to_end": e2e,
        "run_wall_s": run_wall,
        "artifact_sha256": session.hashes,
    })

    if tracer is not None:
        layer = tracer.metrics()
        # two command timings too short to hold a bound on a shared host
        layer["retrieval.retrieve_p50_s"] = e2e["retrieve_p50_s"]
        layer["metrics.captions_per_s"] = e2e["captions_per_s"]
        layer["retrieval.semi_hard_share"] = session.semi_hard_share
        layer["retrieval.guidance_precision"] = session.guidance_precision()
        for scope in ("i", "ii", "iii"):
            layer[f"quality.cider_{scope}"] = session.scores.get(
                f"cider_{scope}", 0.0)
        gone = tracer.missing(workload.name)
        attempted += len([p for p in tracer.probes
                          if workload.name in p.required_on])
        failures += [f"missing span: {g}" for g in gone]
        record["per_layer"] = layer
        # from an untraced run of the same seed and code, when there is one
        untraced = next((rec["end_to_end"]["wall_s"] for rec in earlier
                         if rec["trace"] == 0), None)
        record["tracing"] = {
            "traced_wall_s": e2e["wall_s"], "untraced_wall_s": untraced,
            "overhead_s": (None if untraced is None
                           else e2e["wall_s"] - untraced)}
        record["span_total_s"] = tracer.total_s
        record["missing_spans"] = gone
        declared, values = spec["per_layer"], layer
    else:
        declared, values = spec["end_to_end"], e2e

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record.update({"attempted": attempted, "failed": len(failures),
                   "failures": failures})

    if not args.smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(
            RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}"
            ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        print(f"bench: record written to {os.path.relpath(path, ROOT)}",
              file=sys.stderr)
    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(f"bench: scores {session.scores}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
