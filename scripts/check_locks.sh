#!/usr/bin/env bash
# Lock-discipline gate for the pgf library.
#
# Usage: scripts/check_locks.sh
#
# Complements the Clang -Wthread-safety build (see PGF_THREAD_SAFETY in
# CMakeLists.txt and the clang-threadsafety CI job) with textual checks the
# capability analysis cannot express:
#
#   1. Raw standard-library synchronization primitives must not appear in
#      src/ outside pgf/util/annotations.hpp. A raw std::mutex is invisible
#      to the analysis — everything must latch through pgf::Mutex /
#      pgf::MutexLock so every acquisition is capability-checked.
#      (std::condition_variable stays allowed: waits go through
#      MutexLock::wait, which the wrapper owns.)
#
#   2. Every file declaring a pgf::Mutex member must annotate at least one
#      member with PGF_GUARDED_BY — a latch that guards nothing is either
#      dead or undocumented.
#
#   3. The named shared-state classes (ThreadPool, BuildCache, BufferPool,
#      SweepRunner) keep their specific invariant annotations — the
#      acceptance bar of the thread-safety refactor. This catches an edit
#      that quietly drops an annotation on a gcc-only box where the macros
#      compile to nothing.
#
# Exits non-zero on the first class of violation found; runs anywhere (no
# compiler needed), so it is cheap enough for every CI lane.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
wrapper='src/include/pgf/util/annotations.hpp'

# -- 1. raw primitives confined to the annotated wrappers --------------------
raw_re='std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b'
offenders=$(grep -rnE --include='*.hpp' --include='*.cpp' "${raw_re}" src \
            | grep -v "^${wrapper}:" || true)
if [ -n "${offenders}" ]; then
    echo "check_locks.sh: raw synchronization primitives outside ${wrapper}:" >&2
    echo "${offenders}" >&2
    echo "check_locks.sh: use pgf::Mutex / pgf::MutexLock (capability-annotated)." >&2
    fail=1
fi

# -- 2. every Mutex member guards something ----------------------------------
mutex_files=$(grep -rlE --include='*.hpp' --include='*.cpp' \
              '\bMutex [A-Za-z_]+_( |;|\t)' src | grep -v "^${wrapper}$" || true)
for f in ${mutex_files}; do
    if ! grep -q 'PGF_GUARDED_BY' "${f}"; then
        echo "check_locks.sh: ${f} declares a pgf::Mutex member but no" \
             "PGF_GUARDED_BY annotation — what does the latch guard?" >&2
        fail=1
    fi
done

# -- 3. the named shared-state classes stay fully annotated ------------------
require() {
    local file="$1" pattern="$2" what="$3"
    if ! grep -qE "${pattern}" "${file}"; then
        echo "check_locks.sh: ${file}: missing annotation: ${what}" \
             "(expected /${pattern}/)" >&2
        fail=1
    fi
}

tp='src/include/pgf/util/thread_pool.hpp'
require "${tp}" 'task_ PGF_GUARDED_BY\(mutex_\)'       'ThreadPool::task_ guarded by mutex_'
require "${tp}" 'shutdown_ PGF_GUARDED_BY\(mutex_\)'   'ThreadPool::shutdown_ guarded by mutex_'
require "${tp}" 'submit_mutex_ PGF_ACQUIRED_BEFORE\(mutex_\)' 'ThreadPool lock ordering'

bc='src/include/pgf/core/build_cache.hpp'
require "${bc}" 'PGF_GUARDED_BY\(mutex_\)'             'BuildCache entries_/stats_ guarded by mutex_'

bp='src/include/pgf/storage/buffer_pool.hpp'
require "${bp}" 'frames_ PGF_GUARDED_BY\(latch_\)'     'BufferPool::frames_ guarded by latch_'
require "${bp}" 'PGF_GUARDED_BY\(latch_\);  // page -> frame' 'BufferPool::table_ guarded by latch_'
require "${bp}" 'grab_frame\(\) PGF_REQUIRES\(latch_\)' 'BufferPool::grab_frame requires latch_'

# The LRU list lives under the pool latch: its links, head and tail are
# guarded members, and the helpers that relink frames demand the latch.
require "${bp}" 'lru_prev_ PGF_GUARDED_BY\(latch_\)'   'BufferPool::lru_prev_ guarded by latch_'
require "${bp}" 'lru_next_ PGF_GUARDED_BY\(latch_\)'   'BufferPool::lru_next_ guarded by latch_'
require "${bp}" 'lru_head_ PGF_GUARDED_BY\(latch_\)'   'BufferPool::lru_head_ guarded by latch_'
require "${bp}" 'lru_tail_ PGF_GUARDED_BY\(latch_\)'   'BufferPool::lru_tail_ guarded by latch_'
require "${bp}" 'lru_unlink\(std::size_t frame\) PGF_REQUIRES\(latch_\)' 'BufferPool::lru_unlink requires latch_'
require "${bp}" 'lru_append\(std::size_t frame\) PGF_REQUIRES\(latch_\)' 'BufferPool::lru_append requires latch_'

# The write-ahead log's append buffer and LSN bookkeeping live under its
# own latch; the buffer pool enforces WAL-before-data by flushing the log
# up to a dirty page's LSN before every write-back (eviction and
# flush_all). Losing either the annotations or the ordering calls silently
# voids the recovery guarantee on gcc-only boxes.
wal='src/include/pgf/storage/wal.hpp'
require "${wal}" 'buf_ PGF_GUARDED_BY\(latch_\)'        'WriteAheadLog::buf_ guarded by latch_'
require "${wal}" 'last_lsn_ PGF_GUARDED_BY\(latch_\)'   'WriteAheadLog::last_lsn_ guarded by latch_'
require "${wal}" 'flush_locked\(\) PGF_REQUIRES\(latch_\)' 'WriteAheadLog::flush_locked requires latch_'
bpc='src/storage/buffer_pool.cpp'
ordering_count=$(grep -cE 'wal_->flush_up_to\(' "${bpc}" || true)
if [ "${ordering_count}" -lt 2 ]; then
    echo "check_locks.sh: ${bpc}: only ${ordering_count} wal_->flush_up_to" \
         "call(s) (expected >= 2 — WAL-before-data on both the eviction" \
         "and the flush_all write-back paths)." >&2
    fail=1
fi

sw='src/include/pgf/core/sweep.hpp'
require "${sw}" 'last_ PGF_GUARDED_BY\(stats_mutex_\)' 'SweepRunner::last_ guarded by stats_mutex_'
require "${sw}" 'total_wall_ms_ PGF_GUARDED_BY\(stats_mutex_\)' 'SweepRunner::total_wall_ms_ guarded'

bq='src/include/pgf/util/bounded_queue.hpp'
require "${bq}" 'items_ PGF_GUARDED_BY\(mutex_\)'      'BoundedMpmcQueue::items_ guarded by mutex_'
require "${bq}" 'closed_ PGF_GUARDED_BY\(mutex_\)'     'BoundedMpmcQueue::closed_ guarded by mutex_'

qe='src/include/pgf/parallel/query_engine.hpp'
require "${qe}" 'PGF_GUARDED_BY\(stats_mutex_\)'       'QueryEngine batch state guarded by stats_mutex_'
require "${qe}" 'submitted_ PGF_GUARDED_BY\(stats_mutex_\)' 'QueryEngine::submitted_ guarded'
require "${qe}" 'completed_ PGF_GUARDED_BY\(stats_mutex_\)' 'QueryEngine::completed_ guarded'
require "${qe}" 'latencies_ms_ PGF_GUARDED_BY\(stats_mutex_\)' 'QueryEngine::latencies_ms_ guarded'

if [ "${fail}" -ne 0 ]; then
    echo "check_locks.sh: FAILED — see findings above." >&2
    exit 1
fi
echo "check_locks.sh: clean (raw primitives confined, shared state annotated)."
