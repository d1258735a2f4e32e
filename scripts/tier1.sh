#!/usr/bin/env bash
# Tier-1 verification:
#   1. full build + test suite — includes the adaptsim-lint static-
#      analysis gate (ctest test `lint`) and the header self-
#      containment objects, which compile with the main build
#   2. ThreadSanitizer pass over the concurrency-critical tests
#      (thread pool, shared simulation repository, shared trace
#      cache, metrics registry, perf-model backend registry, the
#      gather phase-memo, and the multi-core chip model with its
#      shared LLC)
#   3. AddressSanitizer+UBSan pass over the full test suite
#   4. -DADAPTSIM_OBS=OFF build proving the instrumentation compiles
#      out cleanly
#   5. -DADAPTSIM_WERROR=ON hardened compile: the whole tree (library,
#      tools, tests, benches, examples) must be -Wshadow -Werror clean
#   6. clang -DADAPTSIM_THREAD_SAFETY=ON static concurrency analysis:
#      the annotations in src/common/thread_annotations.hh must prove
#      lock discipline under -Wthread-safety -Werror
# Sanitizer and clang passes skip gracefully where the toolchain
# piece is unavailable (CI runs them unconditionally).
set -euo pipefail
cd "$(dirname "$0")/.."

san_available() {
    echo 'int main(){return 0;}' |
        c++ -fsanitize="$1" -x c++ - -o /tmp/adaptsim_san_probe \
            2>/dev/null || return 1
    rm -f /tmp/adaptsim_san_probe
}

# 1. Build + full suite (lint gate included).  The perf micro-
# benchmarks build here too so they cannot rot; they only run via
# scripts/perf.sh.
cmake -B build -S .
cmake --build build -j
cmake --build build -j \
    --target perf_pipeline perf_chip perf_interval perf_tracegen \
             perf_gather perf_gather_warm perf_train perf_learned
ctest --test-dir build --output-on-failure -j"$(nproc)"

# 2. TSan over the concurrency tests.
if san_available thread; then
    cmake -B build-tsan -S . -DADAPTSIM_SANITIZE=thread
    cmake --build build-tsan -j \
        --target test_thread_pool test_repository test_trace_cache \
                 test_obs test_sim test_gather_scheduler \
                 test_shared_llc test_chip
    ctest --test-dir build-tsan --output-on-failure \
        -R 'test_thread_pool|test_repository|test_trace_cache|test_obs|test_sim$|test_gather_scheduler|test_shared_llc|test_chip'
else
    echo "tier1: ThreadSanitizer unavailable; skipping TSan pass"
fi

# 3. ASan+UBSan over the full suite.
if san_available address,undefined; then
    cmake -B build-asan-ubsan -S . \
        -DADAPTSIM_SANITIZE="address;undefined"
    cmake --build build-asan-ubsan -j
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir build-asan-ubsan --output-on-failure \
        -j"$(nproc)"
else
    echo "tier1: ASan+UBSan unavailable; skipping sanitizer pass"
fi

# 4. Compile-out check: with ADAPTSIM_OBS=OFF the OBS_* macros vanish
# from every call site; the library, a bench, and the obs unit tests
# must still build and pass.
cmake -B build-noobs -S . -DADAPTSIM_OBS=OFF
cmake --build build-noobs -j \
    --target test_obs table3_baseline_static
ctest --test-dir build-noobs --output-on-failure -R 'test_obs'

# 5. Hardened warning profile (compile-only).
cmake -B build-werror -S . -DADAPTSIM_WERROR=ON
cmake --build build-werror -j

# 6. Clang thread-safety analysis (compile-only): proves the lock
# annotations across every locked subsystem.  GCC compiles the
# macros out, so this pass needs a real clang++.
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-threadsafety -S . \
        -DCMAKE_CXX_COMPILER=clang++ -DADAPTSIM_THREAD_SAFETY=ON
    cmake --build build-threadsafety -j \
        --target adaptsim adaptsim_lint
else
    echo "tier1: clang++ unavailable; skipping thread-safety pass"
fi

echo "tier1: all passes complete"
