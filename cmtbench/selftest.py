#!/usr/bin/env python3
"""Self-test of the cmtbench benchmark. Run from the checkout root:

    python3 cmtbench/selftest.py

It checks that
  * a short smoke pass of every workload succeeds, untraced and traced,
    with every output check passing and the span file written;
  * every metric BENCHMARK.json names is emitted, with its declared unit;
  * the output check catches a wrong reference (the exact proxy solution
    taken at the wrong time);
  * bad arguments (negative steps, unknown workload, bad trace flag) exit
    nonzero with a message and print no result.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seconds", "1", "--steps", "10"]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def check_metrics(res, declared, label):
    got = res["metrics"] if res else {}
    missing = [m["name"] for m in declared
               if got.get(m["name"], {}).get("unit") != m["unit"]
               or not isinstance(got[m["name"]].get("value"), (int, float))]
    expect(not missing, f"{label}: all {len(declared)} declared metrics "
           f"emitted with their units" + (f" (missing {missing})"
                                          if missing else ""))


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        for trace, declared in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            label = f"{name} --trace {trace}"
            proc = run("--workload", name, "--seed", "7", "--trace", trace,
                       *SMOKE)
            res = result_of(proc)
            expect(proc.returncode == 0 and res is not None,
                   f"{label}: exits 0 with a result line")
            expect(bool(res) and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{label}: every output check passes")
            check_metrics(res, declared, label)
            if trace == "1":
                span_file = (ROOT / ".bench_build" / "traces" /
                             f"{name}-seed7-traced.json")
                try:
                    events = json.loads(span_file.read_text())["traceEvents"]
                except (OSError, ValueError, KeyError):
                    events = []
                spans = [e for e in events if e.get("ph") == "X"]
                expect(bool(spans) and all(
                    {"id", "parent", "run"} <= set(e["args"]) for e in spans),
                    f"{label}: span file holds spans with id, parent, run")

    for name in ("proxy_volume", "proxy_halo"):
        proc = run("--workload", name, "--wrong-reference", *SMOKE)
        res = result_of(proc)
        expect(proc.returncode == 0 and res is not None
               and not res["correct"] and res["failed"] > 0
               and "linf_error" in proc.stdout,
               f"{name}: a wrong-time reference fails the output check")

    for args, why in (
            (["--workload", "proxy_volume", "--steps", "-1"], "negative steps"),
            (["--workload", "proxy_volume", "--steps", "0"], "zero steps"),
            (["--workload", "no_such_workload"], "unknown workload"),
            (["--workload", "proxy_halo", "--trace", "2"], "bad trace flag"),
            (["--workload", "proxy_halo", "--seconds", "-3"], "negative seconds"),
    ):
        proc = run(*args, "--seconds", "1") if "--seconds" not in args \
            else run(*args)
        expect(proc.returncode != 0 and result_of(proc) is None
               and proc.stderr.strip() != "",
               f"{why}: exits nonzero with a message")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
