# CLI smoke test: assemble -> run -> trace -> faultsim -> compact -> campaign
# round trip through the gpustlc binary. Invoked by ctest with -DGPUSTLC=<path>.
set(WORK ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_work)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

file(WRITE ${WORK}/tiny.asm "
.entry tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    EXIT
")

function(run_cli)
  execute_process(COMMAND ${GPUSTLC} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpustlc ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "gpustlc ${ARGN}: OK")
endfunction()

run_cli(assemble tiny.asm -o tiny.gptp)
run_cli(disasm tiny.gptp)
run_cli(lint tiny.asm)
run_cli(run tiny.gptp --dump 0x10000 2)
run_cli(trace tiny.gptp --module DU -o tiny --vcd)
run_cli(faultsim tiny.gptp --module DU)
run_cli(faultsim tiny.gptp --module DU --threads 2)
run_cli(faultsim tiny.gptp --module DU --fault-model transition --threads 2)
run_cli(compact tiny.gptp --module DU -o tiny.cptp.asm --report tiny)
run_cli(disasm tiny.cptp.asm)

# Removed engine switches and malformed numeric flags are usage errors:
# exit 2 naming the problem, never a silent default.
function(expect_usage_error pattern)
  execute_process(COMMAND ${GPUSTLC} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "gpustlc ${ARGN} exited ${rc}, want 2:\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "gpustlc ${ARGN}: stderr lacks '${pattern}':\n${err}")
  endif()
  message(STATUS "gpustlc ${ARGN}: OK (usage error)")
endfunction()

expect_usage_error("unknown flag --backend" faultsim tiny.gptp --module DU --backend wide)
expect_usage_error("unknown flag --no-ffr" faultsim tiny.gptp --module DU --no-ffr)
expect_usage_error("unknown flag --no-cone" faultsim tiny.gptp --module DU --no-cone)
expect_usage_error("--threads must be an integer" faultsim tiny.gptp --module DU --threads abc)
expect_usage_error("--sp must be an integer" faultsim tiny.gptp --module DU --sp x)

file(WRITE ${WORK}/fpu.asm "
.entry fpu_tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x40400000
    I2F R5, R1
    FADD R6, R4, R5
    STG [R2+0x0], R6
    EXIT
")

file(WRITE ${WORK}/manifest.txt "
# file module mode
tiny.asm DU compact
tiny.gptp DU carry
fpu.asm FP32 compact
")
run_cli(campaign manifest.txt --state stl --threads 2)
run_cli(campaign manifest.txt --state stl --threads 2)  # resumed second run

# Like run_cli, but additionally requires `pattern` in the combined output.
function(run_cli_match pattern)
  execute_process(COMMAND ${GPUSTLC} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpustlc ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "gpustlc ${ARGN}: output lacks '${pattern}':\n${out}\n${err}")
  endif()
  message(STATUS "gpustlc ${ARGN}: OK (matched '${pattern}')")
endfunction()

# Result store: a cold faultsim populates the cache, the warm re-run is
# served entirely from it.
run_cli_match("cache: 0 hits / 1 misses" faultsim tiny.gptp --module DU --cache-dir cache)
run_cli_match("cache: 1 hits / 0 misses" faultsim tiny.gptp --module DU --cache-dir cache)

# --no-cache wins over --cache-dir: no cache stats are printed.
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --cache-dir cache --no-cache
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim --no-cache failed (${rc}):\n${out}\n${err}")
endif()
if("${out}${err}" MATCHES "cache:")
  message(FATAL_ERROR "--no-cache still reported cache stats:\n${out}")
endif()
message(STATUS "gpustlc faultsim --no-cache: OK (caching disabled)")

# Campaign checkpointing: the cold run writes ckpt/, the no-op --resume run
# restores every entry, recomputes nothing, and reproduces the report
# byte for byte.
run_cli(campaign manifest.txt --cache-dir cache --resume ckpt --report r1.txt --threads 2)
run_cli_match("resumed 3/3 entries" campaign manifest.txt --cache-dir cache --resume ckpt --report r2.txt --threads 2)
file(READ ${WORK}/r1.txt report_cold)
file(READ ${WORK}/r2.txt report_resumed)
if(NOT report_cold STREQUAL report_resumed)
  message(FATAL_ERROR "resumed campaign report differs from the cold run")
endif()
if(NOT EXISTS ${WORK}/ckpt/campaign.ckpt)
  message(FATAL_ERROR "missing checkpoint file ckpt/campaign.ckpt")
endif()

# Redundancy trimming: reports are bit-identical on and off, so the
# faultsim summaries must match once the (intentionally different)
# "trim: <mode>" observability line is stripped. The default-mode run
# unsets GPUSTL_NO_TRIM explicitly: the no-trim CI leg exports it for the
# whole suite, and this check is about the default, not the inherited env.
execute_process(COMMAND ${CMAKE_COMMAND} -E env --unset=GPUSTL_NO_TRIM
                        ${GPUSTLC} faultsim tiny.gptp --module DU
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_trim ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim (trim) failed (${rc}):\n${out_trim}\n${err}")
endif()
if(NOT out_trim MATCHES "trim: dedup\\+early-exit\\+warm-start")
  message(FATAL_ERROR "default faultsim summary does not report the trim mode:\n${out_trim}")
endif()
execute_process(COMMAND ${GPUSTLC} faultsim tiny.gptp --module DU --no-trim
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_notrim ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim --no-trim failed (${rc}):\n${out_notrim}\n${err}")
endif()
if(NOT out_notrim MATCHES "trim: off")
  message(FATAL_ERROR "--no-trim summary does not report trim: off:\n${out_notrim}")
endif()
string(REGEX REPLACE " *trim: [^\n]*\n" "" stripped_trim "${out_trim}")
string(REGEX REPLACE " *trim: [^\n]*\n" "" stripped_notrim "${out_notrim}")
if(NOT stripped_trim STREQUAL stripped_notrim)
  message(FATAL_ERROR "--no-trim changed the faultsim report:\n${out_trim}\nvs\n${out_notrim}")
endif()
message(STATUS "gpustlc faultsim --no-trim: OK (report identical)")

# GPUSTL_NO_TRIM is the env spelling of the same switch; "0" means unset.
execute_process(COMMAND ${CMAKE_COMMAND} -E env GPUSTL_NO_TRIM=1
                        ${GPUSTLC} faultsim tiny.gptp --module DU
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_tenv ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim (GPUSTL_NO_TRIM=1) failed (${rc}):\n${out_tenv}\n${err}")
endif()
if(NOT out_notrim STREQUAL out_tenv)
  message(FATAL_ERROR "GPUSTL_NO_TRIM=1 differs from --no-trim:\n${out_notrim}\nvs\n${out_tenv}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E env GPUSTL_NO_TRIM=0
                        ${GPUSTLC} faultsim tiny.gptp --module DU
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out_tenv0 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpustlc faultsim (GPUSTL_NO_TRIM=0) failed (${rc}):\n${out_tenv0}\n${err}")
endif()
if(NOT out_trim STREQUAL out_tenv0)
  message(FATAL_ERROR "GPUSTL_NO_TRIM=0 disabled trimming:\n${out_trim}\nvs\n${out_tenv0}")
endif()
message(STATUS "gpustlc faultsim GPUSTL_NO_TRIM: OK (env mirrors the flag)")

run_cli(faultsim tiny.gptp --module DU --no-trim --threads 2)
run_cli(faultsim tiny.gptp --module DU --no-trim --fault-model transition)
run_cli(compact tiny.gptp --module DU --no-trim -o tiny.notrim.asm)
message(STATUS "gpustlc faultsim --no-trim composition: OK")

# Campaign: the deterministic report excludes the trim observability
# fields entirely, so trimmed and untrimmed campaigns write identical
# bytes; --no-trim also composes with --resume (the restored run must
# reproduce the trimmed run's report).
run_cli(campaign manifest.txt --report rt1.txt --threads 2)
run_cli(campaign manifest.txt --no-trim --report rt2.txt --threads 2)
file(READ ${WORK}/rt1.txt report_trim)
file(READ ${WORK}/rt2.txt report_notrim)
if(NOT report_trim STREQUAL report_notrim)
  message(FATAL_ERROR "--no-trim changed the campaign report")
endif()
run_cli(campaign manifest.txt --resume ckpt2 --report rt3.txt --threads 2)
run_cli_match("resumed 3/3 entries" campaign manifest.txt --no-trim --resume ckpt2 --report rt4.txt --threads 2)
file(READ ${WORK}/rt3.txt report_ckpt_trim)
file(READ ${WORK}/rt4.txt report_ckpt_notrim)
if(NOT report_ckpt_trim STREQUAL report_ckpt_notrim)
  message(FATAL_ERROR "--no-trim --resume changed the campaign report")
endif()
message(STATUS "gpustlc campaign --no-trim: OK (report identical, resume composes)")

foreach(artifact tiny.gptp tiny.trace.txt tiny.vcde tiny.vcd tiny.cptp.asm tiny.labels.txt tiny.report.txt)
  if(NOT EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
