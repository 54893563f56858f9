# Shell-level CLI checks that assert on exit codes and diagnostics, which
# plain add_test COMMAND lines cannot express. Invoked as
#   cmake -DCHECK=<name> -DPLT_MINE=<path> [-DOUT_DIR=<dir>] -P cli_checks.cmake

if(CHECK STREQUAL "bad-backend")
  # An unknown --backend must refuse to run (exit non-zero) with a clear
  # diagnostic, never silently bench/mine on the wrong kernels.
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup 2 --backend bogus
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "plt-mine accepted an unknown --backend (exit 0)")
  endif()
  if(NOT err MATCHES "unknown or unavailable kernel backend")
    message(FATAL_ERROR
            "missing/garbled diagnostic for unknown backend; stderr was:\n"
            "${err}")
  endif()
elseif(CHECK STREQUAL "bad-plan")
  # An unknown --plan must refuse to run (exit non-zero, usage text), never
  # silently mine under the wrong execution plan.
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup 2 --plan bogus
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "plt-mine accepted an unknown --plan (exit 0)")
  endif()
  if(NOT err MATCHES "unknown --plan")
    message(FATAL_ERROR
            "missing/garbled diagnostic for unknown plan; stderr was:\n"
            "${err}")
  endif()
elseif(CHECK STREQUAL "plan-identity")
  # The planner's whole contract at the CLI: --plan adaptive and the default
  # fixed plan print byte-identical itemsets.
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup-frac 0.01 --limit 0 --plan fixed
                  RESULT_VARIABLE fixed_code
                  OUTPUT_VARIABLE fixed_out
                  ERROR_VARIABLE fixed_err)
  if(NOT fixed_code EQUAL 0)
    message(FATAL_ERROR "plt-mine --plan fixed exited ${fixed_code}:\n"
            "${fixed_err}")
  endif()
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup-frac 0.01 --limit 0 --plan adaptive
                  RESULT_VARIABLE adaptive_code
                  OUTPUT_VARIABLE adaptive_out
                  ERROR_VARIABLE adaptive_err)
  if(NOT adaptive_code EQUAL 0)
    message(FATAL_ERROR "plt-mine --plan adaptive exited ${adaptive_code}:\n"
            "${adaptive_err}")
  endif()
  if(NOT fixed_out STREQUAL adaptive_out)
    message(FATAL_ERROR "--plan adaptive changed the mined output:\n"
            "--- fixed ---\n${fixed_out}"
            "--- adaptive ---\n${adaptive_out}")
  endif()
elseif(CHECK STREQUAL "trace-files")
  # --trace / --trace-folded must produce well-formed exports covering the
  # run. Only registered when the obs layer is compiled in (PLT_OBS=ON).
  file(MAKE_DIRECTORY ${OUT_DIR})
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup-frac 0.1
                          --trace ${OUT_DIR}/cli_trace.json
                          --trace-folded ${OUT_DIR}/cli_trace.folded
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "plt-mine --trace exited ${code}:\n${err}")
  endif()
  file(READ ${OUT_DIR}/cli_trace.json json)
  if(NOT json MATCHES "plt-trace-v1")
    message(FATAL_ERROR "trace JSON missing format tag:\n${json}")
  endif()
  if(NOT json MATCHES "\"mine\"")
    message(FATAL_ERROR "trace JSON missing the mine span:\n${json}")
  endif()
  file(READ ${OUT_DIR}/cli_trace.folded folded)
  if(NOT folded MATCHES "trace;mine")
    message(FATAL_ERROR "folded trace missing the mine stack:\n${folded}")
  endif()
elseif(CHECK STREQUAL "bench-harness-flags")
  # bench_subset_check hands its arguments on to google-benchmark, which
  # exits 1 on any flag it does not know, so every flag the shared harness
  # consumed must be stripped first, in both the `--flag=value` and the
  # `--flag value` form.
  file(MAKE_DIRECTORY ${OUT_DIR})
  file(REMOVE ${OUT_DIR}/subset_check_trace.json
              ${OUT_DIR}/subset_check_trace.folded)
  execute_process(COMMAND ${BENCH_SUBSET_CHECK} --backend=scalar
                          --trace=${OUT_DIR}/subset_check_trace.json
                          --trace-folded ${OUT_DIR}/subset_check_trace.folded
                          --benchmark_min_time=0.01
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "bench_subset_check with harness flags exited "
            "${code}:\n${err}")
  endif()
  if(PLT_OBS)
    file(READ ${OUT_DIR}/subset_check_trace.json json)
    if(NOT json MATCHES "plt-trace-v1")
      message(FATAL_ERROR "bench_subset_check --trace wrote no "
              "plt-trace-v1 file:\n${json}")
    endif()
  endif()
elseif(CHECK STREQUAL "validate")
  # --validate must announce itself, run the structural checks on every PLT
  # the invocation builds, and leave the mined results unchanged.
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup 2 --validate
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "plt-mine --validate exited ${code}:\n${err}")
  endif()
  if(NOT err MATCHES "structural validation: enabled")
    message(FATAL_ERROR
            "--validate did not announce validation; stderr was:\n${err}")
  endif()
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup 2
                  RESULT_VARIABLE ref_code
                  OUTPUT_VARIABLE ref_out
                  ERROR_VARIABLE ref_err)
  if(NOT out STREQUAL ref_out)
    message(FATAL_ERROR "--validate changed the mined output:\n"
            "--- with --validate ---\n${out}"
            "--- without ---\n${ref_out}")
  endif()
elseif(CHECK STREQUAL "serve-bad-flag")
  # plt-serve's flags are strict: an unknown flag is a usage error (exit
  # non-zero), never a silently ignored option on a long-running daemon.
  execute_process(COMMAND ${PLT_SERVE} ${OUT_DIR}/nonexistent.plt
                          --bogus-flag 1
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "plt-serve accepted an unknown flag (exit 0)")
  endif()
  if(NOT err MATCHES "unknown flag --bogus-flag")
    message(FATAL_ERROR
            "missing/garbled diagnostic for unknown flag; stderr was:\n"
            "${err}")
  endif()
elseif(CHECK STREQUAL "serve-missing-blob")
  # A missing blob must fail the startup load, before the socket serves.
  execute_process(COMMAND ${PLT_SERVE} ${OUT_DIR}/does_not_exist.plt
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "plt-serve served a missing blob (exit 0)")
  endif()
elseif(CHECK STREQUAL "serve-corrupt-blob")
  # A corrupt blob (one flipped payload byte) must fail the CRC verification
  # in build_index at startup and exit non-zero.
  file(MAKE_DIRECTORY ${OUT_DIR})
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup-frac 0.1
                          --emit-blob ${OUT_DIR}/corrupt_src.plt
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "plt-mine --emit-blob exited ${code}:\n${err}")
  endif()
  # Overwrite the last byte with its complement (always payload/CRC bytes,
  # never the magic) so the CRC verification in build_index must fire.
  execute_process(COMMAND sh -c
      "cp '${OUT_DIR}/corrupt_src.plt' '${OUT_DIR}/corrupt.plt' || exit 1
       size=$(wc -c < '${OUT_DIR}/corrupt.plt')
       last=$(tail -c 1 '${OUT_DIR}/corrupt.plt' | od -An -tu1 | tr -d ' ')
       printf \"\\\\$(printf '%03o' $(( (last + 1) % 256 )))\" |
         dd of='${OUT_DIR}/corrupt.plt' bs=1 seek=$(( size - 1 )) \
            conv=notrunc 2>/dev/null"
                  RESULT_VARIABLE flip_code)
  if(NOT flip_code EQUAL 0)
    message(FATAL_ERROR "could not corrupt the blob copy")
  endif()
  execute_process(COMMAND ${PLT_SERVE} ${OUT_DIR}/corrupt.plt
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "plt-serve served a corrupt blob (exit 0)")
  endif()
  if(NOT err MATCHES "CRC|checksum|corrupt|truncated|mismatch")
    message(FATAL_ERROR
            "corrupt blob rejected without a CRC diagnostic; stderr was:\n"
            "${err}")
  endif()
elseif(CHECK STREQUAL "serve-round-trip")
  # The serving pipeline end to end: plt-mine --emit-blob, daemon on an
  # ephemeral port (--ready-file publishes it), plt-query answers, a second
  # daemon on the same port exits non-zero (port in use), clean SIGTERM.
  file(MAKE_DIRECTORY ${OUT_DIR})
  execute_process(COMMAND ${PLT_MINE} --dataset short-dense --scale 0.2
                          --minsup-frac 0.1
                          --emit-blob ${OUT_DIR}/roundtrip.plt
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "plt-mine --emit-blob exited ${code}:\n${err}")
  endif()
  execute_process(COMMAND sh -c
      "set -e
       rm -f '${OUT_DIR}/roundtrip.port'
       '${PLT_SERVE}' '${OUT_DIR}/roundtrip.plt' \
         --ready-file '${OUT_DIR}/roundtrip.port' &
       daemon=$!
       trap 'kill $daemon 2>/dev/null || true' EXIT
       for i in $(seq 1 100); do
         [ -s '${OUT_DIR}/roundtrip.port' ] && break
         sleep 0.1
       done
       [ -s '${OUT_DIR}/roundtrip.port' ] || {
         echo 'daemon never wrote the ready file' >&2; exit 1; }
       port=$(cat '${OUT_DIR}/roundtrip.port')
       '${PLT_QUERY}' --port $port --op ping
       '${PLT_QUERY}' --port $port --op support --ranks 1 \
         > '${OUT_DIR}/roundtrip.support'
       grep -Eq '^[0-9]+$' '${OUT_DIR}/roundtrip.support' || {
         echo 'plt-query support did not print a number' >&2; exit 1; }
       '${PLT_QUERY}' --port $port --op topk --k 3 \
         > '${OUT_DIR}/roundtrip.topk'
       [ $(wc -l < '${OUT_DIR}/roundtrip.topk') -ge 1 ] || {
         echo 'plt-query topk printed nothing' >&2; exit 1; }
       if '${PLT_SERVE}' '${OUT_DIR}/roundtrip.plt' --port $port \
            2> '${OUT_DIR}/roundtrip.conflict'; then
         echo 'second daemon bound an in-use port (exit 0)' >&2; exit 1
       fi
       grep -qi 'use' '${OUT_DIR}/roundtrip.conflict' || {
         echo 'port conflict lacked a diagnostic' >&2
         cat '${OUT_DIR}/roundtrip.conflict' >&2; exit 1; }
       kill -TERM $daemon
       wait $daemon"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "serve round-trip failed (exit ${code}):\n"
            "${out}\n${err}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK: '${CHECK}'")
endif()
