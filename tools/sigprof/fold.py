#!/usr/bin/env python3
"""Fold one sigprof sample file into a profile.

    tools/sigprof/fold.py /tmp/prof.<pid> [--by inlined|symbol|line] [--top N]

Each sampled address is rebased against the mapping that holds it (the
file's lowest mapping is its load base, which is the ELF virtual address
0 of a PIE), resolved with `addr2line -f -i`, and counted under

    inlined  the innermost inlined function at the address (default),
    symbol   the outermost one: the symbol that was actually called,
    line     the innermost function with its file:line.

Build with line tables (`[profile.release] debug = "line-tables-only"`,
which this workspace sets); without them every frame is the symbol.
"""
import argparse
import collections
import subprocess


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("file")
    ap.add_argument("--by", choices=("inlined", "symbol", "line"), default="inlined")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()
    by, top = args.by, args.top

    samples, maps = open(args.file).read().split("maps\n", 1)
    addrs = [int(a, 16) for a in samples.split()]
    base, spans = {}, []
    for line in maps.splitlines():
        f = line.split(None, 5)
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        base[f[5]] = min(base.get(f[5], lo), lo)
        if "x" in f[1]:
            spans.append((lo, hi, f[5]))

    per_file, counts = collections.defaultdict(collections.Counter), collections.Counter()
    for a in addrs:
        hit = next((s for s in spans if s[0] <= a < s[1]), None)
        if hit:
            per_file[hit[2]][a - base[hit[2]]] += 1
        else:
            counts["[unmapped: kernel, vdso or jit]"] += 1

    for path, hist in per_file.items():
        vaddrs = sorted(hist)
        out = subprocess.run(
            ["addr2line", "-f", "-i", "-C", "-a", "-e", path] + [hex(v) for v in vaddrs],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        # `-a` opens each address's block with the address itself; the
        # block is then (function, file:line) pairs, innermost first.
        frames, at = [], None
        for row in out + ["0x0"]:
            if row.startswith("0x") and ":" not in row:
                if at is not None:
                    pairs = list(zip(frames[0::2], frames[1::2])) or [("??", "??")]
                    fn, where = pairs[-1] if by == "symbol" else pairs[0]
                    if fn == "??":
                        fn = "?? in " + path.rsplit("/", 1)[-1]
                    key = f"{fn}  {where.rsplit('/', 1)[-1]}" if by == "line" else fn
                    counts[key] += hist[at]
                at, frames = int(row, 16), []
            else:
                frames.append(row)

    total = len(addrs)
    print(f"{total} samples, by {by}")
    for key, n in counts.most_common(top):
        print(f"{n:8d} {100 * n / max(total, 1):5.1f}%  {key}")


main()
