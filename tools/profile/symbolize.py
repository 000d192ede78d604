#!/usr/bin/env python3
"""Symbolizes the samples of sampler.c and prints self and inclusive profiles.

Usage: symbolize.py PROF_OUT [--thread NAME] [--from S] [--to S]
                             [--under FUNC] [--top N]

PROF_OUT is the sample file; its address map is PROF_OUT.maps. Frames are
named with `addr2line -f -i -C` (inlined frames included) and, where a file
has no line tables, with the nearest `nm -D` symbol. --thread keeps samples
whose thread name contains NAME, --from/--to a window in seconds after the
first sample, --under the samples with FUNC (a substring) on their stack.
"""
import argparse
import bisect
import collections
import functools
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")
ADDR = re.compile(r"0x[0-9a-f]+")


def load_maps(path):
    maps = []
    for line in open(path):
        f = line.split()
        if len(f) >= 6 and "x" in f[1] and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    return sorted(maps)


@functools.lru_cache(maxsize=None)
def segments(path):
    """(file offset, virtual address, size) of each LOAD segment of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    return [(int(f[1], 16), int(f[2], 16), int(f[4], 16))
            for f in (l.split() for l in out.splitlines()) if f and f[0] == "LOAD"]


def to_vaddr(addr, lo, off, segs):
    file_off = addr - lo + off
    for s_off, s_vaddr, size in segs:
        if s_off <= file_off < s_off + size:
            return file_off - s_off + s_vaddr
    return file_off


def nm_table(path):
    out = subprocess.run(["nm", "-D", "-C", "--defined-only", path],
                         capture_output=True, text=True).stdout
    syms = sorted((int(f[0], 16), " ".join(f[2:])) for f in
                  (l.split() for l in out.splitlines()) if len(f) >= 3)
    return [a for a, _ in syms], [n for _, n in syms]


def symbolize(path, vaddrs):
    """Maps each vaddr to its inline chain of function names, innermost first."""
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                         input="\n".join(f"{v:x}" for v in vaddrs),
                         capture_output=True, text=True).stdout.splitlines()
    # Per address: its line, then (function, location) pairs, innermost first.
    chains, cur, want = {}, None, "fn"
    for line in out:
        if want == "fn" and ADDR.fullmatch(line):
            cur = chains.setdefault(int(line, 16), [])
        elif want == "fn":
            if line != "??":
                cur.append(HASH.sub("", line))
            want = "loc"
        else:
            want = "fn"
    addrs, names = None, None
    for v in vaddrs:
        if not chains.get(v):
            if addrs is None:
                addrs, names = nm_table(path)
            i = bisect.bisect_right(addrs, v) - 1
            chains[v] = [names[i] if i >= 0 else f"{path.rsplit('/', 1)[-1]}+{v:x}"]
    return chains


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("prof")
    ap.add_argument("--thread")
    ap.add_argument("--from", dest="start", type=float, default=0.0)
    ap.add_argument("--to", dest="end", type=float, default=float("inf"))
    ap.add_argument("--under")
    ap.add_argument("--top", type=int, default=25)
    a = ap.parse_args()
    rows = [l.split() for l in open(a.prof)]
    t0 = min((int(r[2]) for r in rows), default=0)
    stacks = []
    for r in rows:
        t = (int(r[2]) - t0) / 1e9
        if a.start <= t <= a.end and (not a.thread or a.thread in r[1]):
            # Return addresses point after the call: look up the call itself.
            stacks.append([int(r[3], 16)] + [int(x, 16) - 1 for x in r[4:]])
    maps = load_maps(a.prof + ".maps")
    starts = [m[0] for m in maps]
    per_file = collections.defaultdict(set)
    where = {}
    for addr in {x for s in stacks for x in s}:
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < maps[i][1]:
            lo, _, off, path = maps[i]
            where[addr] = (path, to_vaddr(addr, lo, off, segments(path)))
            per_file[path].add(where[addr][1])
    chains = {path: symbolize(path, sorted(v)) for path, v in per_file.items()}
    name = lambda x: chains[where[x][0]][where[x][1]] if x in where else [f"?{x:x}"]
    expanded = [[f for x in s for f in name(x)] for s in stacks]
    if a.under:
        expanded = [s for s in expanded if any(a.under in f for f in s)]
    total = len(expanded) or 1
    own = collections.Counter(s[0] for s in expanded if s)
    incl = collections.Counter(f for s in expanded for f in set(s))
    print(f"{len(expanded)} samples")
    for title, counter in (("self", own), ("inclusive", incl)):
        print(f"\n{title}:")
        for f, n in counter.most_common(a.top):
            print(f"{100 * n / total:6.1f}% {n:7d}  {f}")


if __name__ == "__main__":
    main()
