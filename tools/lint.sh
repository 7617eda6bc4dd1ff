#!/usr/bin/env bash
# Repo-specific lint pass: the rules generic tools cannot see, plus a
# clang-tidy run when one is available (CI passes --require-clang-tidy so
# the gate cannot silently skip it; see docs/static_analysis.md).
#
# Usage: tools/lint.sh [--require-clang-tidy] [BUILD_DIR]
#   BUILD_DIR must hold compile_commands.json for the clang-tidy pass
#   (CMAKE_EXPORT_COMPILE_COMMANDS is on by default in CMakeLists.txt).
set -u

cd "$(dirname "$0")/.."

require_clang_tidy=0
build_dir=build
for arg in "$@"; do
  case "$arg" in
    --require-clang-tidy) require_clang_tidy=1 ;;
    *) build_dir="$arg" ;;
  esac
done

failures=0
fail() {
  echo "lint: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  failures=$((failures + 1))
}

# Strip // and /* */ comments plus string literals, so prose about fsync or
# std::mutex does not trip the token rules below.
strip_comments() {
  sed -e 's://.*$::' -e 's:/\*.*\*/::g' -e 's:"\([^"\\]\|\\.\)*"::g' "$1"
}

src_files=$(git ls-files 'src/*.cc' 'src/*.h' 2>/dev/null ||
            find src -name '*.cc' -o -name '*.h')

# Rule 1: all locking goes through the annotated wrappers in
# src/common/mutex.h — a raw std::mutex member is invisible to clang
# thread-safety analysis, so the whole discipline would silently rot.
for f in $src_files; do
  case "$f" in src/common/mutex.h) continue ;; esac
  hits=$(strip_comments "$f" | grep -nE \
    'std::(mutex|recursive_mutex|shared_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)')
  if [ -n "$hits" ]; then
    fail "$f: raw std:: locking primitive; use ldphh::Mutex/MutexLock/CondVar (src/common/mutex.h) so thread-safety analysis sees it" "$hits"
  fi
done

# Rule 2: raw file I/O stays inside the file layer. Everything else goes
# through src/common/file.h so durability tests can fault-inject it and so
# sync behavior is decided in exactly one place.
for f in $src_files; do
  case "$f" in src/common/file.*) continue ;; esac
  hits=$(strip_comments "$f" | grep -nE \
    '(^|[^_[:alnum:]])(fopen|fdopen|freopen|fsync|fdatasync|open64)[[:space:]]*\(')
  if [ -n "$hits" ]; then
    fail "$f: raw file I/O outside src/common/file.*; route it through the file layer" "$hits"
  fi
done

# Rule 3: no bare (void) discard of a Status — IgnoreStatus(s, reason) is
# the one sanctioned way to drop one, and it makes the caller write down
# why. (The [[nodiscard]] attribute catches plain discards; this catches
# the cast that would defeat it.)
all_files=$(git ls-files 'src/*.cc' 'src/*.h' 'tests/*.cc' 'tests/*.h' \
            'bench/*.cc' 'examples/*.cpp' 2>/dev/null)
for f in $all_files; do
  case "$f" in src/common/status.h) continue ;; esac  # IgnoreStatus itself.
  hits=$(strip_comments "$f" | grep -nE '\(void\)[[:space:]]*[[:alnum:]_>.-]*([Ss]tatus|->(Close|Sync|Flush)\(\))')
  if [ -n "$hits" ]; then
    fail "$f: bare (void) Status discard; use IgnoreStatus(s, reason)" "$hits"
  fi
done

# Rule 4: benches must stay deterministic — wall-clock seeding makes the
# committed BENCH_*.json baselines unreproducible.
bench_files=$(git ls-files 'bench/*.cc' 2>/dev/null)
for f in $bench_files; do
  hits=$(strip_comments "$f" | grep -nE 'std::random_device|time\(NULL\)|time\(nullptr\)')
  if [ -n "$hits" ]; then
    fail "$f: nondeterministic seed in a bench; fix the seed so BENCH baselines reproduce" "$hits"
  fi
done

# Rule 5: durable record writing goes through CheckpointStore. A direct
# CheckpointWriter append bypasses the store's write lane — group commit,
# sequence numbering, the write-health latch, and the put metrics/spans all
# live there — so serving code must not hold one. Allowed: the definition
# (src/server/checkpoint_log.*) and the store itself (src/store/*).
# Tests/benches stay exempt: they exercise the raw writer by design (fault
# injection, format pinning).
for f in $src_files; do
  case "$f" in
    src/server/checkpoint_log.*) continue ;;
    src/store/*) continue ;;
  esac
  hits=$(strip_comments "$f" | grep -nE '(^|[^_[:alnum:]])CheckpointWriter([^_[:alnum:]]|$)')
  if [ -n "$hits" ]; then
    fail "$f: direct CheckpointWriter use outside src/store/; write through CheckpointStore so group commit, write health, and metrics apply" "$hits"
  fi
done

# Rule 6: raw socket plumbing stays inside src/net/. The event loop,
# Listener, and Connection own every socket/bind/listen/accept/poll call
# so non-blocking discipline, fd ownership, and accept-time setup are
# decided in exactly one place; servers consume the net layer. (recv/send/
# setsockopt on an already-accepted fd are fine — workers own those.)
for f in $src_files; do
  case "$f" in src/net/*) continue ;; esac
  hits=$(strip_comments "$f" | grep -nE \
    '(^|[^_[:alnum:]])(::)?(socket|bind|listen|accept|accept4|poll|ppoll)[[:space:]]*\(')
  if [ -n "$hits" ]; then
    fail "$f: raw socket/poll call outside src/net/; build on net::EventLoop/Listener/Connection instead" "$hits"
  fi
done

# Rule 7: the protocol layer spawns no threads. ShardedAggregator
# (src/server/) is the one sharding implementation; every protocol's
# one-shot Run drives a single registry Aggregator, so a thread pool under
# src/protocols/ would be a second, untested copy of it.
for f in $src_files; do
  case "$f" in src/protocols/*) ;; *) continue ;; esac
  hits=$(strip_comments "$f" | grep -nE 'std::(thread|jthread)|#include[[:space:]]*<thread>')
  if [ -n "$hits" ]; then
    fail "$f: thread spawned under src/protocols/; shard through ShardedAggregator instead" "$hits"
  fi
done

# Rule 8: exported metric names and docs/observability.md agree both ways.
# Every "ldphh_*" string literal under src/ names a metric family and must
# have a row in the doc; every ldphh_* name the doc lists must still be such
# a literal, so a deleted instrument cannot leave its row behind.
src_metrics=$(grep -ohE '"ldphh_[A-Za-z0-9_]+' $src_files | tr -d '"' | sort -u)
doc_metrics=$(grep -oE 'ldphh_[A-Za-z0-9_]+' docs/observability.md | sort -u)
undocumented=$(comm -23 <(printf '%s\n' "$src_metrics") \
                        <(printf '%s\n' "$doc_metrics") | grep -v '^$')
if [ -n "$undocumented" ]; then
  fail "metric names exported from src/ but missing from docs/observability.md" "$undocumented"
fi
stale=$(comm -13 <(printf '%s\n' "$src_metrics") \
                 <(printf '%s\n' "$doc_metrics") | grep -v '^$')
if [ -n "$stale" ]; then
  fail "docs/observability.md lists metric names no longer exported from src/" "$stale"
fi

# clang-tidy over the exported compile commands (the .clang-tidy config at
# the repo root curates the checks).
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    fail "clang-tidy: $build_dir/compile_commands.json missing" \
         "configure with cmake -B $build_dir first (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)"
  else
    tidy_out=$(clang-tidy -p "$build_dir" --quiet $(git ls-files 'src/*.cc') 2>/dev/null)
    if echo "$tidy_out" | grep -qE '(warning|error):'; then
      fail "clang-tidy reported violations" "$(echo "$tidy_out" | grep -E '(warning|error):')"
    fi
  fi
elif [ "$require_clang_tidy" = 1 ]; then
  fail "clang-tidy required but not installed" \
       "install clang-tidy or drop --require-clang-tidy"
else
  echo "lint: clang-tidy not found; skipping that pass (CI runs it)" >&2
fi

if [ "$failures" -gt 0 ]; then
  echo "lint: FAILED ($failures rule(s) violated)" >&2
  exit 1
fi
echo "lint: OK"
