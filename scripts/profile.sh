#!/usr/bin/env bash
# Where a command spends its CPU time, down to the machine instruction.
# Runs the command with scripts/sampler.c preloaded (a SIGPROF sampler on
# the process's CPU time, built under target/profile/ on first use), then
# symbolises every sampled address with addr2line against the executable
# it came from. The release profile keeps debug info, so inlined frames
# resolve to their source lines. Prints two tables over all samples of all
# processes the command started (child processes inherit the sampler):
#
#   - functions: each sample charged to its innermost `subcore_*` frame, or
#     when it has none (an out-of-line std helper such as
#     `Vec::extend_desugared`) to the function that holds the address;
#   - instructions: the hottest single addresses, each with that function
#     and its innermost source line. A stall on one instruction (a failed
#     store forward, a `div`) shows here long before it tops a function.
#
# Stage timers cannot see such codegen stalls; this can. The sampler asks
# for one sample per millisecond of CPU time; the kernel delivers them at
# its timer tick (often 250 Hz), so profile for ten seconds or more.
#
#   scripts/profile.sh <command> [args...]
#   scripts/profile.sh target/release/repro fig10 --jobs 1 --no-cache --out /tmp/p
#   scripts/profile.sh benchmark/target/release/subcore-benchmark \
#       run --workload engine_dense --seconds 20 --out /tmp/p
#
# Exits with the command's own status. Needs `cc` and `addr2line`; x86-64
# Linux only.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

# Rows per table; pipe through `head` for fewer.
top=15
if [ $# -eq 0 ]; then
    echo "usage: scripts/profile.sh <command> [args...]" >&2
    exit 2
fi
for tool in cc addr2line; do
    if ! command -v "$tool" > /dev/null; then
        echo "profile.sh: \`$tool\` is not on PATH; the profiler needs a C compiler (cc) and binutils (addr2line)" >&2
        exit 2
    fi
done

obj="$root/target/profile/sampler.so"
if [ ! -f "$obj" ] || [ "$root/scripts/sampler.c" -nt "$obj" ]; then
    mkdir -p "$(dirname "$obj")"
    cc -O2 -shared -fPIC -o "$obj" "$root/scripts/sampler.c"
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
status=0
SAMPLER_OUT="$work/samples" LD_PRELOAD="$obj" "$@" || status=$?

shopt -s nullglob
files=("$work"/samples.*)
if [ ${#files[@]} -eq 0 ]; then
    echo "profile.sh: no samples were written (a process writes its samples only on a normal exit)" >&2
    exit 1
fi

# counts: exe <TAB> address <TAB> samples; header: total and outside counts.
awk -v counts="$work/counts" -v header="$work/header" '
    FNR == 1 { exe = substr($0, 5); procs++; next }
    FNR == 2 { outside += $2; total += $2; next }
    { n[exe "\t" $1]++; total++ }
    END {
        for (k in n) print k "\t" n[k] > counts
        print total, outside, procs > header
    }' "${files[@]}"
read -r total outside procs < "$work/header"

# sym: exe <TAB> address <TAB> charged function <TAB> innermost function <TAB> its line
cut -f1 "$work/counts" | sort -u | while IFS= read -r exe; do
    awk -F'\t' -v exe="$exe" '$1 == exe { print $2 }' "$work/counts" > "$work/addrs"
    sed 's/^/0x/' "$work/addrs" | addr2line -e "$exe" -a -f -i -C |
        awk -v exe="$exe" -v addrs="$work/addrs" '
            function flush() {
                if (!started) return
                getline a < addrs
                print exe "\t" a "\t" (charged != "" ? charged : outer) "\t" inner "\t" loc
            }
            function short(l) {
                if (match(l, /\/(library|crates|benchmark|examples)\//)) l = substr(l, RSTART + 1)
                sub(/ \(discriminator [0-9]+\)$/, "", l)
                return l
            }
            # addr2line prints each address, then a (function, file:line)
            # pair per frame, innermost first.
            /^0x[0-9a-f]+$/ { flush(); started = 1; k = 0; charged = ""; next }
            k++ % 2 == 0 {
                if (k == 1) inner = $0
                outer = $0
                if (charged == "" && $0 ~ /subcore_/) charged = $0
                next
            }
            k == 2 { loc = short($0) }
            END { flush() }'
done > "$work/sym"

echo "profile: $total samples from $procs process(es), $outside outside the executables' own code"
echo
echo "top functions (innermost subcore_* frame):"
awk -F'\t' 'NR == FNR { n[$1 "\t" $2] = $3; next } { by[$3] += n[$1 "\t" $2] }
    END { for (f in by) print by[f] "\t" f }' "$work/counts" "$work/sym" |
    sort -t$'\t' -k1,1nr |
    awk -F'\t' -v total="$total" -v top="$top" 'NR <= top { printf "  %5.1f%%  %7d  %s\n", 100 * $1 / total, $1, $2 }'
echo
echo "top instructions:"
awk -F'\t' 'NR == FNR { f[$1 "\t" $2] = $3 "\t" ($4 == $3 ? "" : $4 " at ") $5; next }
    { n = split($1, p, "/"); print $3 "\t" p[n] "\t" $2 "\t" f[$1 "\t" $2] }' \
    "$work/sym" "$work/counts" |
    sort -t$'\t' -k1,1nr |
    awk -F'\t' -v total="$total" -v top="$top" 'NR <= top { printf "  %5.1f%%  %7d  %s+0x%s  %s  (%s)\n", 100 * $1 / total, $1, $2, $3, $4, $5 }'
exit "$status"
