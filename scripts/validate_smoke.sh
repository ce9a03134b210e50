#!/usr/bin/env bash
# End-to-end smoke test for `pgfcli validate` and the paged file flow.
#
# Usage: scripts/validate_smoke.sh <path-to-pgfcli>
#
# Generates a dataset, builds a grid file (a paged file that reopens from
# its own catalog), and checks that:
#   1. a healthy file passes a deep audit, page-level checkers included
#      (exit 0),
#   2. a complete round-robin assignment passes (exit 0),
#   3. a truncated assignment is flagged as incomplete (exit 1),
#   4. an assignment naming an out-of-range disk is flagged (exit 1),
#   5. a truncated .pgf fails loudly rather than validating (exit != 0),
#   6. an out-of-core streamed build (buildx: external Hilbert sort +
#      pool-bounded bulk load of ${PGF_SMOKE_POINTS:-1000000} points)
#      passes the same deep audit as an in-memory-sized build,
#   7. a single flipped byte mid-file is reported as a page checksum
#      finding (exit 1), not thrown from a page read,
#   8. a crash-injected durable build (buildx --wal --crash-after-writes)
#      exits 9 and `pgfcli recover` replays the committed WAL prefix into
#      a deep-audit-clean file — twice, since replay must be idempotent —
#      which `info` then opens,
#   9. an operating-system failure (recover on a missing log) exits 3 and
#      names the path,
#  10. `info` and `query` on a journaled buildx --wal output leave the
#      file's bytes unchanged,
#  11. every subcommand rejects an unknown flag with exit 2, naming it,
#  12. a malformed flag value (not a whole, in-range number, an unknown
#      bool word, or no value at all) and a repeated flag exit 2 naming
#      the flag.
set -u

PGFCLI="${1:?usage: validate_smoke.sh <path-to-pgfcli>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/pgf-validate-smoke.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

fail() {
    echo "validate_smoke: FAIL — $1" >&2
    exit 1
}

"${PGFCLI}" gen --dataset hot2d --points 4000 --seed 7 \
    --out "${WORK}/pts.csv" > /dev/null || fail "gen"
"${PGFCLI}" build --input "${WORK}/pts.csv" --out "${WORK}/data.pgf" \
    --capacity 32 > /dev/null || fail "build"

# 1. Healthy file, deepest audit: the structural checks and the
#    page-level ones (page ownership, headers, record round trip).
"${PGFCLI}" validate --file "${WORK}/data.pgf" --level deep \
    > "${WORK}/healthy.out" 2>&1 \
    || fail "healthy file did not validate"
grep -q '\[paged-gridfile\]' "${WORK}/healthy.out" \
    || fail "validate did not run the page-level checkers"

# 2. Complete round-robin assignment over 8 disks.
buckets=$("${PGFCLI}" info --file "${WORK}/data.pgf" \
    | sed -n 's/.*buckets *\([0-9][0-9]*\).*/\1/p' | head -1)
[ -n "${buckets}" ] || fail "could not read bucket count from pgfcli info"
{
    echo "bucket,disk"
    for ((b = 0; b < buckets; ++b)); do echo "${b},$((b % 8))"; done
} > "${WORK}/assign.csv"
"${PGFCLI}" validate --file "${WORK}/data.pgf" --level standard \
    --assignment "${WORK}/assign.csv" --disks 8 \
    || fail "complete assignment did not validate"

# 3. Truncated assignment: the audit must flag it incomplete.
head -n "$((buckets / 2))" "${WORK}/assign.csv" > "${WORK}/short.csv"
if "${PGFCLI}" validate --file "${WORK}/data.pgf" --level standard \
    --assignment "${WORK}/short.csv" --disks 8 > "${WORK}/short.out" 2>&1; then
    fail "truncated assignment validated"
fi
grep -q 'decluster.assignment.incomplete' "${WORK}/short.out" \
    || fail "truncated assignment not reported as incomplete"

# 4. Out-of-range disk id.
sed '2s/,.*/,99/' "${WORK}/assign.csv" > "${WORK}/bad-disk.csv"
if "${PGFCLI}" validate --file "${WORK}/data.pgf" --level standard \
    --assignment "${WORK}/bad-disk.csv" --disks 8 > "${WORK}/bad.out" 2>&1; then
    fail "out-of-range disk validated"
fi
grep -q 'decluster.assignment.disk_range' "${WORK}/bad.out" \
    || fail "out-of-range disk not reported"

# 5. Corrupted (truncated) grid file must not validate.
cp "${WORK}/data.pgf" "${WORK}/corrupt.pgf"
truncate -s -200 "${WORK}/corrupt.pgf"
if "${PGFCLI}" validate --file "${WORK}/corrupt.pgf" > /dev/null 2>&1; then
    fail "truncated grid file validated"
fi

# 6. Out-of-core streamed build at scale, deep-audited. PGF_SMOKE_POINTS
#    shrinks the build for slow (sanitizer) lanes; the default is the
#    acceptance-scale 10^6.
SMOKE_N="${PGF_SMOKE_POINTS:-1000000}"
# --chunk-records below the point count forces several sorted runs, so
# the k-way merge path is exercised, not just a single-run passthrough.
"${PGFCLI}" buildx --dataset uniform2d --points "${SMOKE_N}" --seed 11 \
    --out "${WORK}/stream.pgf" --pool-pages 1024 --chunk-records 65536 \
    > "${WORK}/buildx.out" \
    || fail "buildx (streamed build)"
grep -q 'sorted runs' "${WORK}/buildx.out" \
    || fail "buildx did not report its external-sort stats"
"${PGFCLI}" validate --file "${WORK}/stream.pgf" --level deep > /dev/null \
    || fail "stream-built file did not pass the deep audit"

# 7. One flipped byte mid-file: no length change, no magic change — only
#    the per-page checksum can catch it.
cp "${WORK}/data.pgf" "${WORK}/bitrot.pgf"
size=$(wc -c < "${WORK}/bitrot.pgf")
printf '\xff' | dd of="${WORK}/bitrot.pgf" bs=1 seek="$((size / 2 + 3))" \
    conv=notrunc status=none || fail "could not flip a byte"
"${PGFCLI}" validate --file "${WORK}/bitrot.pgf" > "${WORK}/bitrot.out" 2>&1
[ $? -eq 1 ] || fail "bit-rotted grid file did not exit 1"
grep -q 'paged.page.checksum' "${WORK}/bitrot.out" \
    || fail "the flipped byte was not reported as a checksum finding"

# 8. Crash-injected durable build, then recovery. The injected crash
#    (exit 9) leaves a torn data file + WAL; recover must replay the
#    committed prefix and pass a deep audit, and a second recover of the
#    same pair must succeed too (idempotent replay). Recovery flushes, so
#    the recovered file opens from its catalog afterwards.
"${PGFCLI}" buildx --dataset uniform2d --points 20000 --seed 13 \
    --out "${WORK}/crash.pgf" --pool-pages 64 --chunk-records 4096 \
    --wal "${WORK}/crash.wal" --crash-after-writes 120 \
    > "${WORK}/crash.out" 2>&1
[ $? -eq 9 ] || fail "crash-injected buildx did not exit 9"
grep -q 'crash injected' "${WORK}/crash.out" \
    || fail "crash-injected buildx did not report the injection"
for attempt in 1 2; do
    "${PGFCLI}" recover --file "${WORK}/crash.pgf" \
        --wal "${WORK}/crash.wal" --level deep > "${WORK}/recover.out" \
        || fail "recover attempt ${attempt} failed"
done
grep -q 'recover: OK' "${WORK}/recover.out" \
    || fail "recover did not report a clean deep audit"
"${PGFCLI}" info --file "${WORK}/crash.pgf" > /dev/null \
    || fail "the recovered file does not open"

# 9. I/O errors have their own exit code and name the file.
"${PGFCLI}" recover --file "${WORK}/crash.pgf" \
    --wal "${WORK}/missing.wal" > "${WORK}/missing.out" 2>&1
[ $? -eq 3 ] || fail "recover on a missing log did not exit 3"
grep -q "${WORK}/missing.wal" "${WORK}/missing.out" \
    || fail "the I/O error does not name the missing log"

# 10. Read-only commands on a journaled file (opened without its log)
#     write nothing: its bytes stay as buildx --wal left them.
"${PGFCLI}" buildx --dataset hot2d --points 20000 --seed 17 \
    --out "${WORK}/journaled.pgf" --chunk-records 4096 \
    --wal "${WORK}/journaled.wal" > /dev/null \
    || fail "buildx --wal"
cp "${WORK}/journaled.pgf" "${WORK}/journaled.orig"
"${PGFCLI}" info --file "${WORK}/journaled.pgf" > /dev/null \
    || fail "info on a journaled file"
"${PGFCLI}" query --file "${WORK}/journaled.pgf" --lo "0,0" \
    --hi "1000,1000" > /dev/null \
    || fail "query on a journaled file"
cmp -s "${WORK}/journaled.pgf" "${WORK}/journaled.orig" \
    || fail "info/query changed the bytes of a journaled file"

# 11. An unknown flag is a usage error that names the flag, for every
#     subcommand (a retired or mistyped flag must not be ignored).
for cmd in gen build buildx recover info query decluster partition \
    validate; do
    "${PGFCLI}" "${cmd}" --no-such-flag 3 > "${WORK}/flag.out" 2>&1
    [ $? -eq 2 ] || fail "${cmd} did not exit 2 on an unknown flag"
    grep -q -- '--no-such-flag' "${WORK}/flag.out" \
        || fail "${cmd} did not name the unknown flag"
done

# 12. A malformed value is a usage error too, naming its flag.
bad_value() {  # <flag> <pgfcli arguments...>
    local flag="$1"
    shift
    "${PGFCLI}" "$@" > "${WORK}/value.out" 2>&1
    [ $? -eq 2 ] || fail "'$*' did not exit 2"
    grep -q -- "--${flag}: " "${WORK}/value.out" \
        || fail "'$*' did not name --${flag}"
}
for points in abc 12x -5; do
    bad_value points gen --dataset uniform2d --points "${points}" \
        --out "${WORK}/bad.csv"
done
bad_value print query --file "${WORK}/data.pgf" --lo "0,0" --hi "1,1" \
    --print maybe
bad_value points gen --dataset uniform2d --points --out "${WORK}/bad.csv"
"${PGFCLI}" gen --dataset uniform2d --points 5 --points 7 \
    --out "${WORK}/bad.csv" > "${WORK}/value.out" 2>&1
[ $? -eq 2 ] || fail "a repeated --points did not exit 2"
grep -q -- "flag --points given twice" "${WORK}/value.out" \
    || fail "a repeated --points was not named"
[ ! -e "${WORK}/bad.csv" ] || fail "a rejected gen wrote its output"

echo "validate_smoke: OK"
