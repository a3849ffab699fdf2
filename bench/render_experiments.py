#!/usr/bin/env python3
"""Renders EXPERIMENTS.md's measured numbers and claims from BENCH_comm.json.

    python3 bench/render_experiments.py BENCH_comm.json EXPERIMENTS.md OUT

Every `<!-- BEGIN generated NAME -->` ... `<!-- END generated NAME -->`
block of the doc is replaced by the block NAME rendered from the artifact,
and the result is written to OUT, which may be the doc itself. Text outside
the blocks is copied unchanged. `cmake --build build --target bench_report`
writes the artifact and then runs this; the experiments_md ctest diffs its
output against the committed doc. Standard library only.
"""

import json
import re
import sys

BLOCK = re.compile(r"(<!-- BEGIN generated (\w+) -->\n).*?"
                   r"(<!-- END generated \2 -->)", re.S)


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(map(str, r)) + " |" for r in rows]
    return "\n".join(lines)


def names(items):
    return ", ".join(items) if items else "none"


def impr(simple_ns, ns):
    return 100.0 * (simple_ns - ns) / simple_ns


def procs(n):
    return "%d proc%s" % (n, "" if n == 1 else "s")


def table1(a):
    p = a["paper"]
    ops = [("Read word", "read"), ("Write word", "write"),
           ("Blkmov word", "blkmov")]
    rows, off = [], []
    for label, k in ops:
        rows.append([label] + ["%.0f" % v for v in (
            p[k + "_seq_ns"], a[k + "_seq_ns"],
            p[k + "_pipe_ns"], a[k + "_pipe_ns"])])
        for col, mode in (("seq", "sequential"), ("pipe", "pipelined")):
            got, want = a["%s_%s_ns" % (k, col)], p["%s_%s_ns" % (k, col)]
            if abs(got - want) > 0.01 * want:
                off.append("%s %s (%.0f vs %.0f ns, %+.1f%%)" % (
                    mode, label.lower(), got, want,
                    100.0 * (got - want) / want))
    return "\n".join([
        table(["EARTH operation", "paper seq (ns)", "measured seq (ns)",
               "paper pipe (ns)", "measured pipe (ns)"], rows), "",
        "%d of %d measured costs lie within 1%% of the paper. "
        "Further off: %s." % (2 * len(ops) - len(off), 2 * len(ops),
                              names(off))])


def crossover(a):
    got = a["blocking_crossover_words"]
    want = a["paper"]["blocking_crossover_words"]
    return ("The pipelined-vs-blocked crossover computed from "
            "group-completion latency lands at **%d words**; the paper's "
            "threshold is %d words (\"a block-move is better when three or "
            "more words can be moved together\"): **%s**." % (
                got, want, "reproduced" if got == want else "not reproduced"))


def table2(a):
    return table(["benchmark", "description", "paper size", "our size",
                  "dominant optimization"],
                 [[w["benchmark"], w["description"], w["paper_size"],
                   w["our_size"], w["optimization"]] for w in a["table2"]])


def fig10(a):
    f = a["fig10"]
    kinds = ("read", "write", "blkmov")
    rows, norm = [], {}
    holds = {"total": [], "read": [], "write": [], "blkmov": []}
    for r in f["rows"]:
        s, o, b = r["simple"], r["optimized"], r["benchmark"]
        norm[b] = 100.0 * sum(o.values()) / sum(s.values())
        rows.append([b, "~%d" % f["paper"]["normalized"][b], "%.1f" % norm[b]]
                    + ["%d → %d" % (s[k], o[k]) for k in kinds])
        for k, held in (("total", sum(o.values()) < sum(s.values())),
                        ("read", o["read"] < s["read"]),
                        ("write", o["write"] < s["write"]),
                        ("blkmov", s["blkmov"] == 0 < o["blkmov"])):
            if held:
                holds[k].append(b)
    n = len(rows)
    order = sorted(norm, key=norm.get)
    return "\n".join([
        table(["benchmark", "paper (approx., read off Fig. 10)",
               "measured (optimized, simple = 100)", "read-data",
               "write-data", "blkmov"], rows), "",
        "- Total communication falls in %d of %d benchmarks; read-data "
        "falls in %d, write-data in %d, and blkmov rises from zero in %d." % (
            len(holds["total"]), n, len(holds["read"]), len(holds["write"]),
            len(holds["blkmov"])),
        "- Every total falls and blkmov rises from zero in all %d: **%s**." % (
            n, "yes" if len(holds["total"]) == len(holds["blkmov"]) == n
            else "no"),
        "- The paper's shape is **%s**." % (
            "reproduced" if all(len(v) == n for v in holds.values())
            else "not reproduced"),
        "- Largest reduction: %s (%.1f); smallest: %s (%.1f)." % (
            order[0], norm[order[0]], order[-1], norm[order[-1]])])


def first_drop(values, fmt, ps):
    """None if values grow at every step, else the first step that falls."""
    for i in range(1, len(values)):
        if values[i] <= values[i - 1]:
            return (fmt + " at %s, " + fmt + " at %s") % (
                values[i - 1], procs(ps[i - 1]), values[i], procs(ps[i]))
    return None


def grows_claim(what, series, fmt, ps):
    drops = [(b, first_drop(v, fmt, ps)) for b, v in series]
    return ("- %s grows at every step from %s to %s for: %s. "
            "It does not for: %s." % (
                what, procs(ps[0]), procs(ps[-1]),
                names([b for b, d in drops if d is None]),
                names(["%s (%s)" % (b, d) for b, d in drops if d])))


def table3(a):
    t = a["table3"]
    ps, paper = t["procs"], t["paper"]
    rows, losers, imprs, simple_up, opt_up = [], [], [], [], []
    vs_paper = {"above": [], "below": [], "mixed": []}
    for r in t["rows"]:
        b, seq = r["benchmark"], r["sequential_ns"]
        im = [impr(s, o) for s, o in zip(r["simple_ns"], r["optimized_ns"])]
        imprs.append((b, im))
        simple_up.append((b, [seq / s for s in r["simple_ns"]]))
        opt_up.append((b, [seq / o for o in r["optimized_ns"]]))
        pv = dict(zip(paper["procs"], paper["improvement_pct"][b]))
        for i, n in enumerate(ps):
            rows.append([
                b if i == 0 else "", procs(n),
                "%.2f" % (seq / 1e6) if i == 0 else "",
                "%.2f" % (r["simple_ns"][i] / 1e6),
                "%.2f" % (r["optimized_ns"][i] / 1e6),
                "%.2f" % simple_up[-1][1][i], "%.2f" % opt_up[-1][1][i],
                "%.2f" % im[i], "%.2f" % pv[n] if n in pv else ""])
            if im[i] <= 0:
                losers.append("%s at %s (%.2f%%)" % (b, procs(n), im[i]))
        above = [im[ps.index(n)] > v for n, v in pv.items()]
        vs_paper["above" if all(above) else
                 "mixed" if any(above) else "below"].append(b)
    at16 = sorted(opt_up, key=lambda bv: bv[1][-1])
    return "\n".join([
        table(["benchmark", "procs", "sequential C (ms)", "simple (ms)",
               "optimized (ms)", "simple speedup", "optimized speedup",
               "improvement (%)", "paper improvement (%)"], rows), "",
        "- **%d of %d** configurations improve. The others: %s." % (
            len(rows) - len(losers), len(rows), names(losers)),
        grows_claim("The improvement", imprs, "%.2f%%", ps),
        grows_claim("The optimized speedup over sequential", opt_up,
                    "%.2f×", ps),
        grows_claim("The simple speedup over sequential", simple_up,
                    "%.2f×", ps),
        "- Against the paper's improvement at %s: above at every point for "
        "%s; below at every point for %s; above at some and below at "
        "others for %s." % (
            ", ".join(procs(n) for n in paper["procs"]),
            names(vs_paper["above"]), names(vs_paper["below"]),
            names(vs_paper["mixed"])),
        "- The optimized speedup over sequential at %s ranges from %.2f× "
        "(%s) to %.2f× (%s)." % (procs(ps[-1]), at16[0][1][-1], at16[0][0],
                                 at16[-1][1][-1], at16[-1][0])])


def topology(a):
    t = a["topology"]
    base = t["topologies"][0]
    cell = {(r["workload"], r["topology"], r["nodes"]):
            r["simple_ns"] / r["optimized_ns"] for r in t["sweep"]}
    rows = [[w, topo] + ["%.2f×" % cell[w, topo, n] for n in t["nodes"]]
            for w in t["workloads"] for topo in t["topologies"]]
    moves = []
    for topo in t["topologies"][1:]:
        per = ["%s %s" % (w, ", ".join(
            "%.2f× → %.2f× at %s" % (cell[w, base, n], cell[w, topo, n],
                                    procs(n)) for n in t["nodes"]))
            for w in t["workloads"]]
        moves.append("- %s against %s: %s." % (topo, base, "; ".join(per)))
    return "\n".join([
        table(["benchmark", "topology"] + [procs(n) for n in t["nodes"]],
              rows), ""] + moves)


def ablations(a):
    out, row, benches = [], {}, {}
    for sw in a["ablations"]["sweeps"]:
        rows = []
        for r in sw["rows"]:
            simple = next(x for x in sw["rows"]
                          if x["benchmark"] == r["benchmark"])
            c = r["counts"]
            r["impr"] = impr(simple["time_ns"], r["time_ns"])
            r["total"] = sum(c.values())
            row[sw["id"], r["benchmark"], r["config"]] = r
            benches.setdefault(sw["id"], {})[r["benchmark"]] = None
            rows.append([r["config"], r["benchmark"],
                         "%.2f" % (r["time_ns"] / 1e6), r["total"],
                         c["read"], c["write"], c["blkmov"],
                         "%.2f" % r["impr"]])
        out += ["**%s** (on %d nodes)" % (sw["title"], a["ablations"]["nodes"]),
                "", table(["configuration", "benchmark", "time (ms)",
                           "total ops", "read", "write", "blkmov",
                           "impr vs simple (%)"], rows), ""]

    def same(x, y):
        return x["time_ns"] == y["time_ns"] and x["counts"] == y["counts"]

    def sweep_rows(sid, b, keep):
        return [r for (s, rb, cfg), r in row.items()
                if s == sid and rb == b and keep(cfg)]

    simple, full = "simple (no comm-opt)", "full optimization"
    paper = "block threshold = %d" % a["paper"]["blocking_crossover_words"]
    best = []
    for b in benches["threshold"]:
        top = min(sweep_rows("threshold", b, lambda cfg: cfg != simple),
                  key=lambda r: r["time_ns"])
        best.append("%s: `%s` (%.2f%%; the paper's `%s` gives %.2f%%)" % (
            b, top["config"], top["impr"], paper,
            row["threshold", b, paper]["impr"]))
    costly, redund, local, more_ops = [], [], [], []
    for b in benches["components"]:
        s, f = row["components", b, simple], row["components", b, full]
        worst = min(sweep_rows("components", b,
                               lambda cfg: cfg.startswith("no ")),
                    key=lambda r: r["impr"])
        costly.append("%s: `%s` (%.2f%% against %.2f%%)" % (
            b, worst["config"], worst["impr"], f["impr"]))
        r = row["components", b, "redundancy elimination only"]
        redund.append("%s: %s" % (
            b, "identical to the simple version" if same(r, s) else
            "%.2f%%, %d → %d ops" % (r["impr"], s["total"], r["total"])))
        r = row["components", b, "locality inference + full optimization"]
        local.append("%s: %s" % (
            b, "identical to full optimization" if same(r, f) else
            "%.2f%% against %.2f%%" % (r["impr"], f["impr"])))
        r = row["components", b, "no blocking (pipelined only)"]
        if r["total"] > s["total"] and r["impr"] > 0:
            more_ops.append("%s (%d ops against %d, and a %.2f%% "
                            "improvement)" % (b, r["total"], s["total"],
                                              r["impr"]))
    hoist = []
    for b in benches["conditional_reads"]:
        o = ("optimistic", row["conditional_reads", b,
                               "optimistic conditional reads (paper)"])
        p = ("pessimistic", row["conditional_reads", b,
                                "pessimistic (no hoist out of branches)"])
        win, lose = sorted([o, p], key=lambda x: x[1]["time_ns"])
        hoist.append("%s: %s" % (
            b, "identical" if same(o[1], p[1]) else
            "%s is faster (%.2f%% against %.2f%%)" % (
                win[0], win[1]["impr"], lose[1]["impr"])))
    return "\n".join(out + [
        "- Best blocking threshold: %s." % "; ".join(best),
        "- The knock-out that costs the most: %s." % "; ".join(costly),
        "- Redundancy elimination alone (read motion, blocking and write "
        "blocking off): %s." % "; ".join(redund),
        "- Without blocking, the optimized version runs more operations "
        "than the simple one, and is still faster, on: %s." % names(more_ops),
        "- Locality inference on top of full optimization: %s."
        % "; ".join(local),
        "- Pessimistic against optimistic conditional-read hoisting: %s."
        % "; ".join(hoist)])


RENDER = {"table1": table1, "crossover": crossover, "table2": table2,
          "fig10": fig10, "table3": table3, "topology": topology,
          "ablations": ablations}


def main(argv):
    if len(argv) != 4:
        sys.exit("usage: render_experiments.py BENCH_comm.json "
                 "EXPERIMENTS.md OUT")
    with open(argv[1]) as f:
        artifact = json.load(f)
    with open(argv[2]) as f:
        doc = f.read()
    found = [m.group(2) for m in BLOCK.finditer(doc)]
    if sorted(found) != sorted(RENDER):
        sys.exit("%s: expected one generated block each of %s, found %s" % (
            argv[2], ", ".join(sorted(RENDER)), ", ".join(found) or "none"))
    doc = BLOCK.sub(lambda m: m.group(1) + RENDER[m.group(2)](artifact)
                    + "\n" + m.group(3), doc)
    with open(argv[3], "w") as f:
        f.write(doc)


if __name__ == "__main__":
    main(sys.argv)
