# Static-analysis build targets.
#
#   lint          runs tools/plt_lint's contract rules over src/ (exits
#                 non-zero on any finding; suppressions are visible,
#                 reviewed decisions and count as clean).
#   flow-lint     just the flow-sensitive rules (taint-bounds,
#                 syscall-check, typed-status) — the fast loop while
#                 working on serve/shard I/O paths; `lint` already
#                 includes them.
#   thread-safety under clang, re-runs the compile with -Wthread-safety
#                 promoted to an error even without PLT_WERROR (the
#                 annotations in src/util/thread_annotations.hpp are
#                 checked; gcc configurations get a notice instead —
#                 the clang-thread-safety CI job is the real gate).
#   format-check  clang-format --dry-run --Werror over the C++ sources.
#                 Degrades to a notice when clang-format is not installed
#                 (the default dev container does not ship it); the CI
#                 static-analysis job installs it and runs for real.
#   format        rewrites the sources in place (only defined when
#                 clang-format is available).
#
# tests/lint/fixtures is excluded from formatting on purpose: those files
# are deliberately broken inputs whose line positions are pinned by
# EXPECT(rule) markers.

add_custom_target(lint
  COMMAND $<TARGET_FILE:plt-lint> --root ${CMAKE_SOURCE_DIR} src
  COMMENT "plt-lint: contract rules over src/"
  VERBATIM)
add_dependencies(lint plt-lint)

add_custom_target(flow-lint
  COMMAND $<TARGET_FILE:plt-lint> --root ${CMAKE_SOURCE_DIR}
          --rules taint-bounds,syscall-check,typed-status src
  COMMENT "plt-lint: flow-sensitive rules over src/"
  VERBATIM)
add_dependencies(flow-lint plt-lint)

if(CMAKE_CXX_COMPILER_ID STREQUAL "Clang")
  # A scratch object build of the annotated concurrency subsystems with
  # the analysis promoted to an error, independent of PLT_WERROR. The
  # list is every TU that locks a plt::Mutex or shares state across
  # threads; plain data-structure TUs gain nothing from a second compile.
  add_library(plt_thread_safety_check OBJECT EXCLUDE_FROM_ALL
    ${CMAKE_SOURCE_DIR}/src/util/log.cpp
    ${CMAKE_SOURCE_DIR}/src/util/thread_pool.cpp
    ${CMAKE_SOURCE_DIR}/src/util/failpoint.cpp
    ${CMAKE_SOURCE_DIR}/src/obs/trace.cpp
    ${CMAKE_SOURCE_DIR}/src/parallel/partition_miner.cpp
    ${CMAKE_SOURCE_DIR}/src/shard/coordinator.cpp
    ${CMAKE_SOURCE_DIR}/src/serve/blob_store.cpp
    ${CMAKE_SOURCE_DIR}/src/serve/server.cpp)
  target_link_libraries(plt_thread_safety_check PRIVATE plt)
  target_compile_options(plt_thread_safety_check PRIVATE
                         -Wthread-safety -Werror=thread-safety)
  add_custom_target(thread-safety
    DEPENDS plt_thread_safety_check
    COMMENT "clang -Wthread-safety over the annotated sources")
else()
  add_custom_target(thread-safety
    COMMAND ${CMAKE_COMMAND} -E echo
            "thread-safety: requires a clang configuration (annotations are no-ops under ${CMAKE_CXX_COMPILER_ID})"
    COMMENT "clang unavailable"
    VERBATIM)
endif()

find_program(PLT_CLANG_FORMAT
             NAMES clang-format clang-format-19 clang-format-18
                   clang-format-17)

file(GLOB_RECURSE PLT_FORMAT_SOURCES
     ${CMAKE_SOURCE_DIR}/src/*.cpp ${CMAKE_SOURCE_DIR}/src/*.hpp
     ${CMAKE_SOURCE_DIR}/tools/*.cpp ${CMAKE_SOURCE_DIR}/tools/*.hpp
     ${CMAKE_SOURCE_DIR}/tests/*.cpp ${CMAKE_SOURCE_DIR}/tests/*.hpp
     ${CMAKE_SOURCE_DIR}/examples/*.cpp ${CMAKE_SOURCE_DIR}/bench/*.cpp
     ${CMAKE_SOURCE_DIR}/bench/*.hpp)
list(FILTER PLT_FORMAT_SOURCES EXCLUDE REGEX "tests/lint/fixtures/")

if(PLT_CLANG_FORMAT)
  add_custom_target(format-check
    COMMAND ${PLT_CLANG_FORMAT} --dry-run --Werror ${PLT_FORMAT_SOURCES}
    COMMENT "clang-format --dry-run --Werror"
    VERBATIM)
  add_custom_target(format
    COMMAND ${PLT_CLANG_FORMAT} -i ${PLT_FORMAT_SOURCES}
    COMMENT "clang-format -i"
    VERBATIM)
else()
  add_custom_target(format-check
    COMMAND ${CMAKE_COMMAND} -E echo
            "format-check: clang-format not found, skipping (install it to enable)"
    COMMENT "clang-format unavailable"
    VERBATIM)
endif()
