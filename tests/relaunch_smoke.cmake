# Relaunch smoke, run via `cmake -DSRS_SIM=<path> -P relaunch_smoke.cmake`.
#
# Drives the shard supervisor behind `srs_sim orchestrate` through
# its relaunch path, deterministically: a --sim wrapper script runs
# shard 1's first launch to completion, cuts its journal back to one
# row, deletes its CSV and SIGKILLs itself, which is what a shard
# killed mid-run leaves behind.  Checks:
#  - the supervisor says "relaunching", and the relaunch resumes
#    from the cut journal (--resume=...shard1.csv.journal);
#  - the merged CSV is byte-identical to a single-process sweep;
#  - with --retries=0 the same crash fails the run, and a re-run
#    skips the finished shard, resumes the crashed one from its
#    journal, and merges byte-identically;
#  - a stitch-only `merge` of that directory agrees.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()

set(work ${CMAKE_CURRENT_BINARY_DIR}/relaunch_smoke)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

# The wrapper logs every launch's arguments next to itself, so the
# test can see which launch carried --resume.
file(CONFIGURE OUTPUT ${work}/crash_once.sh @ONLY CONTENT [=[#!/bin/sh
here=$(dirname "$0")
echo "$*" >> "$here/launches.log"
case "$*" in
  *shard1.csv*)
    if [ ! -e "$here/crashed" ]; then
      touch "$here/crashed"
      for arg in "$@"; do
        case "$arg" in
          --out=*) csv=${arg#--out=} ;;
          --journal=*) journal=${arg#--journal=} ;;
        esac
      done
      "@SRS_SIM@" "$@" || exit $?
      head -n 2 "$journal" > "$journal.cut"
      mv "$journal.cut" "$journal"
      rm -f "$csv"
      kill -KILL $$
    fi ;;
esac
exec "@SRS_SIM@" "$@"
]=])
file(CHMOD ${work}/crash_once.sh PERMISSIONS OWNER_READ OWNER_WRITE
     OWNER_EXECUTE)

set(sweep_grid --workloads=gups,gcc,hmmer --mitigations=rrs,scale-srs
    --trh=1200,2400 --rates=3,6 --cycles=60000 --epoch=25000)
set(grid ${sweep_grid} --shards=3 --threads=1)

# run_sim(<expect 0|fail> <stderr variable> <args>...)
function(run_sim expect err_var)
  execute_process(COMMAND ${SRS_SIM} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect STREQUAL "0" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${ARGN} exited ${rc}:\n${err}")
  elseif(expect STREQUAL "fail" AND rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${ARGN} unexpectedly exited 0:\n${err}")
  endif()
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

function(expect_match text regex what)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${what}: no match for '${regex}' in:\n${text}")
  endif()
endfunction()

function(expect_same_csv csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${work}/single.csv ${csv} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${csv} differs from the single-process sweep")
  endif()
endfunction()

run_sim(0 err sweep ${sweep_grid} --threads=2 --out=${work}/single.csv
        --journal=none)

# In-run restart: shard 1 is killed once, is relaunched from its
# journal, and the merge still matches.
run_sim(0 err orchestrate ${grid} --jobs=2 --sim=${work}/crash_once.sh
        --out=${work}/a.csv --dir=${work}/a)
expect_match("${err}"
             "shard 1 failed \\(killed by signal 9\\), relaunching from its journal"
             "orchestrate stderr")
expect_match("${err}" " 1 restarted," "orchestrate summary")
file(STRINGS ${work}/launches.log shard1_launches REGEX "shard1[.]csv")
list(LENGTH shard1_launches shard1_count)
if(NOT shard1_count EQUAL 2)
  message(FATAL_ERROR "shard 1 launched ${shard1_count} times, not 2")
endif()
list(GET shard1_launches 1 relaunch)
expect_match("${relaunch}" "--resume=[^ ]*/a/shard1[.]csv[.]journal"
             "shard 1 relaunch")
expect_same_csv(${work}/a.csv)

# Re-orchestration: with --retries=0 the same kill fails the run;
# one job slot makes shard 0 finish before shard 1 dies and keeps
# shard 2 unlaunched.  The re-run skips shard 0, resumes shard 1 from
# its journal, runs shard 2, and merges byte-identically.
file(REMOVE ${work}/crashed ${work}/launches.log)
run_sim(fail err orchestrate ${grid} --jobs=1 --retries=0
        --sim=${work}/crash_once.sh --out=${work}/b.csv --dir=${work}/b)
expect_match("${err}" "shard 1 failed after 1 attempt" "failed run")
file(REMOVE ${work}/launches.log)
run_sim(0 err orchestrate ${grid} --jobs=1 --retries=0
        --sim=${work}/crash_once.sh --out=${work}/b.csv --dir=${work}/b)
expect_match("${err}" "shard 0 already complete" "re-run")
expect_match("${err}" "[(]2 launched," "re-run summary")
file(STRINGS ${work}/launches.log shard1_launches REGEX "shard1[.]csv")
expect_match("${shard1_launches}" "--resume=[^ ]*/b/shard1[.]csv[.]journal"
             "shard 1 re-run")
expect_same_csv(${work}/b.csv)

# Stitch-only merge from the same manifest agrees too.
run_sim(0 err merge --manifest=${work}/b/manifest --out=${work}/c.csv)
expect_same_csv(${work}/c.csv)

message(STATUS "relaunch_smoke passed")
