#!/usr/bin/env bash
# End-to-end smoke test for `pgfcli validate`.
#
# Usage: scripts/validate_smoke.sh <path-to-pgfcli>
#
# Generates a dataset, builds a grid file, and checks that:
#   1. a healthy file passes a deep audit (exit 0),
#   2. the same file passes a deep paged-backend audit (rebuilds the
#      records disk-backed and runs the page-level checkers, exit 0),
#   3. a complete round-robin assignment passes (exit 0),
#   4. a truncated assignment is flagged as incomplete (exit 1),
#   5. an assignment naming an out-of-range disk is flagged (exit 1),
#   6. a truncated .pgf fails loudly rather than validating (exit != 0),
#   7. an out-of-core streamed build (buildx: external Hilbert sort +
#      pool-bounded bulk load of ${PGF_SMOKE_POINTS:-1000000} points)
#      passes the same deep paged-backend audit as an in-memory build,
#   8. a single flipped byte mid-file trips the page checksum (exit != 0),
#   9. a crash-injected durable build (buildx --wal --crash-after-writes)
#      exits 9 and `pgfcli recover` replays the committed WAL prefix into
#      a deep-audit-clean file — twice, since replay must be idempotent,
#  10. an operating-system failure (recover on a missing log) exits 3 and
#      names the path.
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

# 1. Healthy file, deepest audit.
"${PGFCLI}" validate --file "${WORK}/data.pgf" --level deep \
    || fail "healthy file did not validate"

# 2. Paged backend: rebuild disk-backed, run the page-level checkers too.
"${PGFCLI}" validate --file "${WORK}/data.pgf" --level deep \
    --backend paged > "${WORK}/paged.out" 2>&1 \
    || fail "healthy file did not validate on the paged backend"
grep -q 'paged backend: rebuilt' "${WORK}/paged.out" \
    || fail "paged validate did not run the page-level checkers"
[ ! -e "${WORK}/data.pgf.paged-validate" ] \
    || fail "paged validate left its staging file behind"

# 3. Complete round-robin assignment over 8 disks.
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

# 4. Truncated assignment: the audit must flag it incomplete.
head -n "$((buckets / 2))" "${WORK}/assign.csv" > "${WORK}/short.csv"
if "${PGFCLI}" validate --file "${WORK}/data.pgf" --level standard \
    --assignment "${WORK}/short.csv" --disks 8 > "${WORK}/short.out" 2>&1; then
    fail "truncated assignment validated"
fi
grep -q 'decluster.assignment.incomplete' "${WORK}/short.out" \
    || fail "truncated assignment not reported as incomplete"

# 5. Out-of-range disk id.
sed '2s/,.*/,99/' "${WORK}/assign.csv" > "${WORK}/bad-disk.csv"
if "${PGFCLI}" validate --file "${WORK}/data.pgf" --level standard \
    --assignment "${WORK}/bad-disk.csv" --disks 8 > "${WORK}/bad.out" 2>&1; then
    fail "out-of-range disk validated"
fi
grep -q 'decluster.assignment.disk_range' "${WORK}/bad.out" \
    || fail "out-of-range disk not reported"

# 6. Corrupted (truncated) grid file must not validate.
cp "${WORK}/data.pgf" "${WORK}/corrupt.pgf"
truncate -s -200 "${WORK}/corrupt.pgf"
if "${PGFCLI}" validate --file "${WORK}/corrupt.pgf" > /dev/null 2>&1; then
    fail "truncated grid file validated"
fi

# 7. Out-of-core streamed build at scale, deep-audited on the paged
#    backend. PGF_SMOKE_POINTS shrinks the build for slow (sanitizer)
#    lanes; the default is the acceptance-scale 10^6.
SMOKE_N="${PGF_SMOKE_POINTS:-1000000}"
# --chunk-records below the point count forces several sorted runs, so
# the k-way merge path is exercised, not just a single-run passthrough.
"${PGFCLI}" buildx --dataset uniform2d --points "${SMOKE_N}" --seed 11 \
    --out "${WORK}/stream.pgf" --pool-pages 1024 --chunk-records 65536 \
    > "${WORK}/buildx.out" \
    || fail "buildx (streamed build)"
grep -q 'sorted runs' "${WORK}/buildx.out" \
    || fail "buildx did not report its external-sort stats"
[ ! -e "${WORK}/stream.pgf.staging" ] \
    || fail "buildx left its staging file behind"
"${PGFCLI}" validate --file "${WORK}/stream.pgf" --level deep \
    --backend paged > /dev/null \
    || fail "stream-built file did not pass the deep paged audit"

# 8. One flipped byte mid-file: no length change, no magic change — only
#    the per-page checksum can catch it.
cp "${WORK}/data.pgf" "${WORK}/bitrot.pgf"
size=$(wc -c < "${WORK}/bitrot.pgf")
printf '\xff' | dd of="${WORK}/bitrot.pgf" bs=1 seek="$((size / 2 + 3))" \
    conv=notrunc status=none || fail "could not flip a byte"
if "${PGFCLI}" validate --file "${WORK}/bitrot.pgf" > /dev/null 2>&1; then
    fail "bit-rotted grid file validated"
fi

# 9. Crash-injected durable build, then recovery. The injected crash
#    (exit 9) leaves a torn staging file + WAL; recover must replay the
#    committed prefix and pass a deep audit, and a second recover of the
#    same pair must succeed too (idempotent replay).
"${PGFCLI}" buildx --dataset uniform2d --points 20000 --seed 13 \
    --out "${WORK}/crash.pgf" --pool-pages 64 --chunk-records 4096 \
    --wal "${WORK}/crash.wal" --crash-after-writes 120 \
    > "${WORK}/crash.out" 2>&1
[ $? -eq 9 ] || fail "crash-injected buildx did not exit 9"
grep -q 'crash injected' "${WORK}/crash.out" \
    || fail "crash-injected buildx did not report the injection"
for attempt in 1 2; do
    "${PGFCLI}" recover --file "${WORK}/crash.pgf.staging" \
        --wal "${WORK}/crash.wal" --level deep > "${WORK}/recover.out" \
        || fail "recover attempt ${attempt} failed"
done
grep -q 'recover: OK' "${WORK}/recover.out" \
    || fail "recover did not report a clean deep audit"

# 10. I/O errors have their own exit code and name the file.
"${PGFCLI}" recover --file "${WORK}/crash.pgf.staging" \
    --wal "${WORK}/missing.wal" > "${WORK}/missing.out" 2>&1
[ $? -eq 3 ] || fail "recover on a missing log did not exit 3"
grep -q "${WORK}/missing.wal" "${WORK}/missing.out" \
    || fail "the I/O error does not name the missing log"

echo "validate_smoke: OK"
