#!/usr/bin/env bash
# Tier-1 verification: builds and runs the full test suite serially and in
# parallel, then rebuilds the threading-relevant tests under ThreadSanitizer.
#
#   scripts/check.sh               # full sweep
#   SKIP_TSAN=1 scripts/check.sh   # skip the ThreadSanitizer leg
#   SKIP_ASAN=1 scripts/check.sh   # skip the AddressSanitizer leg
#   SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan leg
#
# The determinism contract (docs/performance.md) makes DIFFODE_NUM_THREADS=1
# and =4 produce bitwise-identical results, so running both configurations is
# a regression gate, not a flake source. The same holds per kernel ISA:
# DIFFODE_KERNEL_ISA=scalar and =avx2 must pass the identical suite the
# dispatched (widest supported ISA) build passes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: no std::function in kernel / op forward paths =="
# Node::backward_fn (variable.h) is the one sanctioned std::function on the
# tape; op forward paths are templated so no-grad forwards never pay a
# closure allocation, and the tensor kernels dispatch through raw function
# pointers. The legacy Tensor::Map declaration/definition pair is the only
# allowed code occurrence under src/tensor. Comment lines don't count.
tensor_fn=$(grep -rh "std::function" src/tensor/ | grep -cv '^[[:space:]]*//' || true)
ops_fn=$(grep -h "std::function" src/autograd/ops.cc src/autograd/ops_linalg.cc \
  | grep -cv '^[[:space:]]*//' || true)
if [[ "${tensor_fn}" -gt 2 || "${ops_fn}" -gt 0 ]]; then
  echo "lint FAIL: std::function in a forward path" \
       "(src/tensor: ${tensor_fn} > 2, src/autograd/ops*.cc: ${ops_fn} > 0)"
  exit 1
fi

echo "== lint: no raw double in the dtype-generic tensor surface =="
# The tensor/kernel substrate is templated on dtype; its headers must spell
# the element type T (or Scalar for the f64-typedef'd public aliases), never
# raw `double` — a raw double in a generic path silently widens the f32
# serving tier. Lines that are intentionally f64-specific carry a
# `// dtype:ok` escape with a reason; the ISA backend .cc files are exempt
# (each is a concrete-dtype implementation by design). Comment lines don't
# count.
dtype_raw=$(grep -rn '\bdouble\b' src/tensor/*.h \
  | grep -v 'dtype:ok' | grep -cv ':[0-9]*:[[:space:]]*//' || true)
if [[ "${dtype_raw}" -gt 0 ]]; then
  echo "lint FAIL: raw double in src/tensor headers (${dtype_raw} lines);"
  echo "use the dtype template parameter or add '// dtype:ok — <reason>':"
  grep -rn '\bdouble\b' src/tensor/*.h \
    | grep -v 'dtype:ok' | grep -v ':[0-9]*:[[:space:]]*//'
  exit 1
fi

echo "== lint: the lockstep serving engine stays off the tape =="
# src/core/diffode_batched.cc applies every layer through the frozen mirrors
# of nn/frozen.h (ServingLayers<T>) at both dtypes; an autograd module
# forward or a module reference there would put serving back on ag::Var
# holders and per-op tensor copies.
engine_tape=$(grep -cE 'Forward\(ag::|const nn::(Mlp|GruCell|Linear)&' \
  src/core/diffode_batched.cc || true)
if [[ "${engine_tape}" -gt 0 ]]; then
  echo "lint FAIL: autograd layer use in src/core/diffode_batched.cc:"
  grep -nE 'Forward\(ag::|const nn::(Mlp|GruCell|Linear)&' \
    src/core/diffode_batched.cc
  exit 1
fi

echo "== tier-1: configure + build =="
cmake -B build -S . > /dev/null
cmake --build build -j > /dev/null

echo "== tier-1: ctest, DIFFODE_NUM_THREADS=1 =="
(cd build && DIFFODE_NUM_THREADS=1 ctest --output-on-failure -j)

echo "== tier-1: ctest, default thread count =="
(cd build && ctest --output-on-failure -j)

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=scalar =="
# Forces the portable scalar kernel backend through the runtime dispatcher;
# every test must pass on it bit-for-bit deterministically, since it is the
# fallback on machines without AVX2+FMA.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j)

echo "== tier-1: grad-off (NoGradScope) matrix entry =="
# The no-grad forward path must hold its bitwise-equivalence and
# zero-allocation contracts on both the serial and parallel schedules (the
# tests internally sweep 1/4 threads and both kernel ISAs as well).
(cd build && DIFFODE_NUM_THREADS=1 ctest --output-on-failure \
  -R 'nograd_test|serialize_roundtrip_test')
(cd build && ctest --output-on-failure -R 'nograd_test|serialize_roundtrip_test')

echo "== tier-1: batched lockstep equivalence, DIFFODE_KERNEL_ISA=scalar =="
# The lockstep engine must match the per-sequence path (bitwise at B=1) on
# the scalar backend too; the test internally sweeps both ISAs and 1/4
# threads, this leg pins the dispatcher itself to scalar.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure \
  -R 'batched_equiv_test')

echo "== tier-1: f32 serving tier, DIFFODE_KERNEL_ISA=scalar =="
# The f32 tier's accuracy and round-trip contracts must hold on the
# portable scalar f32 kernels — the fallback a non-AVX2 serving host runs.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure \
  -R 'precision_test|serialize_roundtrip_test|kernels_isa_test')

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=avx2 =="
# The full suite pinned to the 256-bit instantiation of the x86 kernels.
# On AVX-512 hosts the default legs above run the 512-bit one, so this leg
# is what keeps the AVX2 build covered there; without AVX2 the dispatcher
# warns and falls back, so the leg is portable.
(cd build && DIFFODE_KERNEL_ISA=avx2 ctest --output-on-failure -j)

echo "== benchmark self-tests (perfbench) =="
# Builds perfbench into .bench_build/ and runs each workload briefly: checks
# the printed metrics against BENCHMARK.json and that train-ushcn reproduces
# its 8-epoch reference bit for bit.
python3 -m unittest discover -s perfbench -p 'test_*.py'

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan: configure + build (-DDIFFODE_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DDIFFODE_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j \
    --target kernels_test trainer_test tensor_test autograd_test \
             alloc_stats_test nograd_test batched_equiv_test \
             precision_test > /dev/null

  echo "== tsan: threading-relevant tests, DIFFODE_NUM_THREADS=4 =="
  # batched_equiv_test flushes BatchPredictor, whose micro-batches are whole
  # f64, f32 and fallback forwards running concurrently as pool tasks;
  # precision_test drives the engine's f32 tier over the model zoo.
  (cd build-tsan && DIFFODE_NUM_THREADS=4 ctest --output-on-failure \
    -R 'kernels_test|trainer_test|tensor_test|autograd_test|alloc_stats_test|nograd_test|batched_equiv_test|precision_test')
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  # The arena hands out raw bump-allocated storage and the pool recycles
  # buffers across tensors; ASan is the gate that no tape node or buffer is
  # ever touched after its arena was Reset or its block rebucketed.
  echo "== asan: configure + build (-DDIFFODE_SANITIZE=address) =="
  cmake -B build-asan -S . -DDIFFODE_SANITIZE=address > /dev/null
  cmake --build build-asan -j > /dev/null

  echo "== asan: full suite =="
  # Four tests in the suite gate the paths that bypass ordinary ownership:
  #   - nograd_test, serialize_roundtrip_test: value-only Vars skip the tape
  #     arena, so no-grad forwards must never read a pooled buffer after
  #     recycling or touch a node that was elided;
  #   - batched_equiv_test: the lockstep engine packs and scatters rows
  #     through raw kernel copies and row views, so no packed block or
  #     checkpoint row may outlive its buffer;
  #   - batched_equiv_test (f64) and precision_test (f32): the per-row
  #     recoveries carve a flat p buffer per (row, head) and reuse one
  #     scratch, and the RHS caches its stage tensors across RK stages, so
  #     no recovery may index outside its slice and no cached stage buffer
  #     may be read after the active-row count changed.
  (cd build-asan && ctest --output-on-failure -j)
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  # The x86 kernels lean on pointer arithmetic over raw panels and masked
  # tail loads; UBSan (non-recovering) is the gate that no kernel indexes
  # out of its contractual range or hits signed overflow on the fixed-grid
  # partition math. Runs on the dispatched ISA, the 256-bit instantiation
  # and the scalar fallback, so each sees identical coverage.
  echo "== ubsan: configure + build (-DDIFFODE_SANITIZE=undefined) =="
  cmake -B build-ubsan -S . -DDIFFODE_SANITIZE=undefined > /dev/null
  cmake --build build-ubsan -j > /dev/null

  echo "== ubsan: full suite (dispatched ISA) =="
  (cd build-ubsan && ctest --output-on-failure -j)

  echo "== ubsan: full suite, DIFFODE_KERNEL_ISA=avx2 =="
  (cd build-ubsan && DIFFODE_KERNEL_ISA=avx2 ctest --output-on-failure -j)

  echo "== ubsan: full suite, DIFFODE_KERNEL_ISA=scalar =="
  (cd build-ubsan && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j)
fi

echo "== check.sh: all green =="
