# One binary per experiment id in DESIGN.md / EXPERIMENTS.md.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench holds nothing but the bench executables and
# `for b in build/bench/*; do $b; done` runs the whole suite.
# All binaries accept --scale to shrink/grow the workloads; defaults are
# sized so the full suite completes in a few minutes on a laptop core.

function(plt_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE plt benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

plt_bench(bench_paper_artifacts)     # P1-P5
plt_bench(bench_structure_size)      # E1
plt_bench(bench_sparse_sweep)        # E2
plt_bench(bench_dense_sweep)         # E3
plt_bench(bench_topdown_crossover)   # E4
plt_bench(bench_scalability)         # E5
plt_bench(bench_subset_check)        # E6 (google-benchmark micro)
plt_bench(bench_parallel_partition)  # E7
plt_bench(bench_rank_ablation)       # E8
plt_bench(bench_condensed)           # E9
plt_bench(bench_incremental)         # E10
plt_bench(bench_ooc_mining)          # E11
plt_bench(bench_stream)              # E12
plt_bench(bench_sampling)            # E13
plt_bench(bench_filter_ablation)     # E14
plt_bench(bench_candidate_family)    # E15
plt_bench(bench_closed_native)       # E16
plt_bench(bench_projection_pool)     # E17
plt_bench(bench_kernels)             # E18
plt_bench(bench_shard)               # E21
plt_bench(bench_serve)               # E22
# The shard bench forks real worker processes: it needs the plt-shard
# binary's path baked in, and the binary built first.
target_compile_definitions(bench_shard PRIVATE
  PLT_SHARD_BIN="$<TARGET_FILE:plt-shard>")
add_dependencies(bench_shard plt-shard)

# Smoke run: every bench binary once at a tiny configuration — a cheap CI
# guard that the whole bench suite still runs end to end. The subset-check
# micro uses google-benchmark flags instead of --scale.
set(PLT_BENCH_SMOKE_SCALE 0.05 CACHE STRING
    "Scale factor bench_smoke passes to every sweep binary")
# Toivonen's lowered sample threshold blows up combinatorially on very
# small scaled datasets (the sample minsup floors near 1), so E13 gets a
# larger floor than the rest of the suite.
set(PLT_BENCH_SMOKE_SCALE_bench_sampling 0.5)
set(PLT_BENCH_SMOKE_TARGETS
  bench_paper_artifacts bench_structure_size bench_sparse_sweep
  bench_dense_sweep bench_topdown_crossover bench_scalability
  bench_parallel_partition bench_rank_ablation bench_condensed
  bench_incremental bench_ooc_mining bench_stream bench_sampling
  bench_filter_ablation bench_candidate_family bench_closed_native
  bench_projection_pool bench_kernels bench_shard bench_serve)
set(PLT_BENCH_SMOKE_COMMANDS "")
foreach(target ${PLT_BENCH_SMOKE_TARGETS})
  set(smoke_scale ${PLT_BENCH_SMOKE_SCALE})
  if(DEFINED PLT_BENCH_SMOKE_SCALE_${target})
    set(smoke_scale ${PLT_BENCH_SMOKE_SCALE_${target}})
  endif()
  list(APPEND PLT_BENCH_SMOKE_COMMANDS
       COMMAND ${CMAKE_BINARY_DIR}/bench/${target}
               --scale ${smoke_scale})
endforeach()
add_custom_target(bench_smoke
  ${PLT_BENCH_SMOKE_COMMANDS}
  COMMAND ${CMAKE_BINARY_DIR}/bench/bench_subset_check
          --benchmark_min_time=0.01
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}
  COMMENT "Running every bench binary at smoke scale"
  VERBATIM)
add_dependencies(bench_smoke ${PLT_BENCH_SMOKE_TARGETS} bench_subset_check)
