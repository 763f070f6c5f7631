# Sweep determinism and resume smoke, run via
# `cmake -DSRS_SIM=<path> -P sweep_smoke.cmake`.
#
# One small grid (gups, gcc x rrs, scale-srs x rates 3, 6) checks:
#  - thread-count invariance: --threads=1 and --threads=8 write
#    byte-identical CSVs;
#  - resume after a kill: the full CSV cut mid-line to its first 300
#    bytes resumes to byte-identical output;
#  - the resumed run's journal is a complete checkpoint: resuming
#    from it (at another thread count) still matches.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()

set(work ${CMAKE_CURRENT_BINARY_DIR}/sweep_smoke)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

set(grid sweep --workloads=gups,gcc --mitigations=rrs,scale-srs
    --trh=1200 --rates=3,6 --cycles=100000 --epoch=40000)

function(sweep)
  execute_process(COMMAND ${SRS_SIM} ${grid} ${ARGV}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "srs_sim ${grid} ${ARGV} exited ${rc}\nstdout:\n${out}\n"
            "stderr:\n${err}")
  endif()
endfunction()

function(expect_same expected actual what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${expected} ${actual} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: ${actual} differs from ${expected}")
  endif()
endfunction()

sweep(--threads=1 --out=${work}/t1.csv)
sweep(--threads=8 --out=${work}/t8.csv)
expect_same(${work}/t1.csv ${work}/t8.csv "thread-count invariance")

# (file(READ ... LIMIT) appends a newline, so cut the string instead.)
file(READ ${work}/t8.csv full)
string(SUBSTRING "${full}" 0 300 head)
if(head MATCHES "\n$")
  message(FATAL_ERROR "the 300-byte cut fell on a line end")
endif()
file(WRITE ${work}/partial.csv "${head}")
sweep(--threads=8 --resume=${work}/partial.csv --out=${work}/resumed.csv)
expect_same(${work}/t8.csv ${work}/resumed.csv "resume of a cut CSV")

sweep(--threads=1 --resume=${work}/resumed.csv.journal
      --out=${work}/journaled.csv)
expect_same(${work}/t8.csv ${work}/journaled.csv "resume from the journal")

message(STATUS "sweep_smoke passed")
