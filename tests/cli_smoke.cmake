# CLI smoke test, run via `cmake -DSRS_SIM=<path> -P cli_smoke.cmake`.
#
# Asserts that the cheap srs_sim subcommands exit 0 and that an
# unknown flag is rejected with a fatal error (nonzero exit) instead
# of being silently ignored.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()

function(run_expect_ok)
  execute_process(COMMAND ${SRS_SIM} ${ARGV}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "srs_sim ${ARGV} exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# run_expect_fail(<args>... [STDERR <regex>]): nonzero exit, and with
# STDERR the error output must match <regex>.
function(run_expect_fail)
  cmake_parse_arguments(PARSE_ARGV 0 arg "" "STDERR" "")
  execute_process(COMMAND ${SRS_SIM} ${arg_UNPARSED_ARGUMENTS}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${ARGV} unexpectedly exited 0")
  endif()
  if(DEFINED arg_STDERR AND NOT err MATCHES "${arg_STDERR}")
    message(FATAL_ERROR
            "srs_sim ${ARGV} failed without '${arg_STDERR}':\n${err}")
  endif()
endfunction()

# Tiny cycle budgets keep the smoke test fast.
run_expect_ok(list)
run_expect_ok(storage --trh=1200)
run_expect_ok(perf --workload=gups --mitigation=rrs --trh=1200
              --rate=6 --cycles=60000 --epoch=25000 --csv)
run_expect_ok(sweep --workloads=gups --mitigations=rrs --trh=1200
              --rates=6 --cycles=60000 --epoch=25000 --threads=2)

# MIX points and batched Monte-Carlo validation.
run_expect_ok(sweep --workloads= --mix=1 --mitigations=rrs --trh=1200
              --rates=6 --cycles=60000 --epoch=25000 --threads=2)
run_expect_ok(attack --defense=rrs --trh=2400 --rate=6 --rounds=900
              --montecarlo=2000 --shards=4 --threads=2)

# Resume roundtrip: a full CSV resumes to byte-identical output
# without recomputing anything.
set(smoke_dir ${CMAKE_CURRENT_BINARY_DIR})
set(smoke_args sweep --workloads=gups --mitigations=rrs,scale-srs
    --trh=1200 --rates=6 --cycles=60000 --epoch=25000 --threads=2)
run_expect_ok(${smoke_args} --out=${smoke_dir}/smoke_full.csv)
run_expect_ok(${smoke_args} --resume=${smoke_dir}/smoke_full.csv
              --out=${smoke_dir}/smoke_resumed.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/smoke_full.csv
                ${smoke_dir}/smoke_resumed.csv
                RESULT_VARIABLE smoke_diff)
if(NOT smoke_diff EQUAL 0)
  message(FATAL_ERROR "resumed sweep CSV differs from the fresh run")
endif()
# The journal of the full run is itself a resumable checkpoint.
run_expect_ok(${smoke_args} --resume=${smoke_dir}/smoke_full.csv.journal
              --out=${smoke_dir}/smoke_journal.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/smoke_full.csv
                ${smoke_dir}/smoke_journal.csv
                RESULT_VARIABLE smoke_jdiff)
if(NOT smoke_jdiff EQUAL 0)
  message(FATAL_ERROR "journal-resumed sweep CSV differs")
endif()

# Trace-file workloads and the system axes: record a synthetic
# workload as a USIMM trace, then sweep the recorded file next to a
# synthetic workload across both page policies — threads=1 and
# threads=2 must produce byte-identical CSVs, and the identity
# columns must carry the trace spelling and both policy names.
run_expect_ok(trace --workload=gups --records=20000 --seed=7
              --out=${smoke_dir}/smoke_trace.usimm)
set(axes_grid --workloads=gcc --trace=${smoke_dir}/smoke_trace.usimm
    --mitigations=rrs --trh=1200 --rates=6 --page-policy=closed,open
    --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${axes_grid} --threads=1
              --out=${smoke_dir}/axes_t1.csv --journal=none)
run_expect_ok(sweep ${axes_grid} --threads=2
              --out=${smoke_dir}/axes_t2.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/axes_t1.csv ${smoke_dir}/axes_t2.csv
                RESULT_VARIABLE axes_diff)
if(NOT axes_diff EQUAL 0)
  message(FATAL_ERROR "trace/page-policy sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/axes_t1.csv axes_csv)
foreach(needle "trace:${smoke_dir}/smoke_trace.usimm" ",closed," ",open,")
  if(NOT axes_csv MATCHES "${needle}")
    message(FATAL_ERROR "sweep CSV lacks identity field '${needle}'")
  endif()
endforeach()
# A tRC-override axis sweeps through the same mechanism.
run_expect_ok(sweep --workloads=gups --mitigations=rrs --trh=1200
              --rates=6 --trc=48 --cycles=60000 --epoch=25000
              --threads=2)

# The DDR5 preset and the per-knob timing overrides are system axes
# too: a preset + trefi-override grid must be thread-count invariant,
# carry the chained axes spellings in the identity column, and ride
# orchestrate/merge byte-identically (the Section VIII-5 recipe).
set(ddr5_grid --workloads=gups --mitigations=rrs --trh=1200 --rates=6
    --preset=ddr4,ddr5 --trefi=0,5000 --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${ddr5_grid} --threads=1
              --out=${smoke_dir}/ddr5_t1.csv --journal=none)
run_expect_ok(sweep ${ddr5_grid} --threads=2
              --out=${smoke_dir}/ddr5_t2.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_t2.csv
                RESULT_VARIABLE ddr5_diff)
if(NOT ddr5_diff EQUAL 0)
  message(FATAL_ERROR "preset/timing sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/ddr5_t1.csv ddr5_csv)
foreach(needle ",closed," ",closed@ddr5," ",closed@trefi=5000,"
        ",closed@ddr5@trefi=5000,")
  if(NOT ddr5_csv MATCHES "${needle}")
    message(FATAL_ERROR "sweep CSV lacks axes field '${needle}'")
  endif()
endforeach()
file(REMOVE_RECURSE ${smoke_dir}/ddr5_shards)
run_expect_ok(orchestrate ${ddr5_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/ddr5_merged.csv
              --dir=${smoke_dir}/ddr5_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_merged.csv
                RESULT_VARIABLE ddr5_orch_diff)
if(NOT ddr5_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated preset/timing CSV differs")
endif()
run_expect_ok(merge --manifest=${smoke_dir}/ddr5_shards/manifest
              --out=${smoke_dir}/ddr5_stitched.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_stitched.csv
                RESULT_VARIABLE ddr5_merge_diff)
if(NOT ddr5_merge_diff EQUAL 0)
  message(FATAL_ERROR "stitch-only preset/timing CSV differs")
endif()

# The recorded trace rides orchestrate/merge too: the merged CSV is
# byte-identical to the single-process sweep of the same grid.
file(REMOVE_RECURSE ${smoke_dir}/axes_shards)
run_expect_ok(orchestrate ${axes_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/axes_merged.csv
              --dir=${smoke_dir}/axes_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/axes_t1.csv ${smoke_dir}/axes_merged.csv
                RESULT_VARIABLE axes_orch_diff)
if(NOT axes_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated trace/page-policy CSV differs")
endif()

# Orchestrate: split the same grid into 3 shards (one per workload),
# run them as supervised child processes two at a time, and require
# the merged CSV to be byte-identical to a single-process sweep.
set(orch_grid --workloads=gups,gcc,hmmer --mitigations=rrs --trh=1200
    --rates=3,6 --cycles=60000 --epoch=25000)
file(REMOVE_RECURSE ${smoke_dir}/orch_shards ${smoke_dir}/orch_plan)
run_expect_ok(sweep ${orch_grid} --threads=2
              --out=${smoke_dir}/orch_single.csv --journal=none)
run_expect_ok(orchestrate ${orch_grid} --shards=3 --jobs=2 --threads=1
              --out=${smoke_dir}/orch_merged.csv
              --dir=${smoke_dir}/orch_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/orch_single.csv
                ${smoke_dir}/orch_merged.csv
                RESULT_VARIABLE orch_diff)
if(NOT orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated CSV differs from single-process sweep")
endif()
# Re-orchestrating a finished run launches nothing and still merges
# identically; stitch-only `merge` reads the same manifest.
run_expect_ok(orchestrate ${orch_grid} --shards=3 --jobs=2 --threads=1
              --out=${smoke_dir}/orch_again.csv
              --dir=${smoke_dir}/orch_shards)
run_expect_ok(merge --manifest=${smoke_dir}/orch_shards/manifest
              --out=${smoke_dir}/orch_stitched.csv)
foreach(redone orch_again orch_stitched)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${smoke_dir}/orch_single.csv
                  ${smoke_dir}/${redone}.csv
                  RESULT_VARIABLE orch_rediff)
  if(NOT orch_rediff EQUAL 0)
    message(FATAL_ERROR "${redone}.csv differs from single-process sweep")
  endif()
endforeach()
# --plan writes the manifest and the per-shard commands without
# running anything; merging the unrun plan must fail (no shard CSVs).
run_expect_ok(orchestrate ${orch_grid} --shards=3 --plan
              --dir=${smoke_dir}/orch_plan)
if(NOT EXISTS ${smoke_dir}/orch_plan/manifest)
  message(FATAL_ERROR "orchestrate --plan did not write a manifest")
endif()
if(EXISTS ${smoke_dir}/orch_plan/shard0.csv)
  message(FATAL_ERROR "orchestrate --plan ran a shard")
endif()
run_expect_fail(merge --manifest=${smoke_dir}/orch_plan/manifest)

# A tampered shard must be rejected by merge, never mixed in.
file(READ ${smoke_dir}/orch_shards/shard1.csv shard1_text)
string(REPLACE ",1200,3," ",4800,3," shard1_bad "${shard1_text}")
file(WRITE ${smoke_dir}/orch_shards/shard1.csv "${shard1_bad}")
run_expect_fail(merge --manifest=${smoke_dir}/orch_shards/manifest
                --out=${smoke_dir}/orch_rejected.csv)
file(WRITE ${smoke_dir}/orch_shards/shard1.csv "${shard1_text}")

# Generator workloads: a zipf + blend grid must be thread-count
# invariant, carry the canonical spellings in the identity column,
# and emit the schema-v6 tail-latency + Monte-Carlo-confidence
# header.
set(gen_grid --workloads=zipf:4096@s=0.99,blend:zipf:4096@s=0.9+attack@0.05
    --mitigations=rrs --trh=1200 --rates=6 --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${gen_grid} --threads=1
              --out=${smoke_dir}/gen_t1.csv --journal=none)
run_expect_ok(sweep ${gen_grid} --threads=8
              --out=${smoke_dir}/gen_t8.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/gen_t1.csv ${smoke_dir}/gen_t8.csv
                RESULT_VARIABLE gen_diff)
if(NOT gen_diff EQUAL 0)
  message(FATAL_ERROR "generator sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/gen_t1.csv gen_csv)
foreach(needle ",zipf:4096@s=0.99," ",blend:zipf:4096@s=0.9\\+attack@0.05,"
        ",p50_lat,p99_lat,p999_lat,lat_samples,iterations,censored,p_break,ci_lo,ci_hi")
  if(NOT gen_csv MATCHES "${needle}")
    message(FATAL_ERROR "generator sweep CSV lacks '${needle}'")
  endif()
endforeach()
# The generator grid rides orchestrate/merge byte-identically too.
file(REMOVE_RECURSE ${smoke_dir}/gen_shards)
run_expect_ok(orchestrate ${gen_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/gen_merged.csv
              --dir=${smoke_dir}/gen_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/gen_t1.csv ${smoke_dir}/gen_merged.csv
                RESULT_VARIABLE gen_orch_diff)
if(NOT gen_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated generator CSV differs")
endif()
# Malformed generator spellings must be fatal up front.
run_expect_fail(sweep --workloads=zipf:0 --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(sweep --workloads=blend:zipf:64@s=1 --mitigations=rrs
                --trh=1200 --rates=6)
run_expect_fail(sweep --workloads=hotspot:4096@hot=1.5@p=0.5
                --mitigations=rrs --trh=1200 --rates=6)

# The DRAM organization is a system axis too: an org grid must be
# invariant under --threads, carry the @org= spellings in the
# identity column, and ride orchestrate/merge byte-identically.
set(org_grid --workloads=gups --mitigations=rrs,scale-srs --trh=1200
    --rates=6 --org=1x1x16,2x1x16,2x2x32 --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${org_grid} --threads=1
              --out=${smoke_dir}/org_serial.csv --journal=none)
run_expect_ok(sweep ${org_grid} --threads=8
              --out=${smoke_dir}/org_parallel.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/org_serial.csv
                ${smoke_dir}/org_parallel.csv
                RESULT_VARIABLE org_diff)
if(NOT org_diff EQUAL 0)
  message(FATAL_ERROR "org sweep depends on the thread count")
endif()
file(READ ${smoke_dir}/org_serial.csv org_csv)
foreach(needle ",closed@org=1x1x16," ",closed,")
  if(NOT org_csv MATCHES "${needle}")
    message(FATAL_ERROR "org sweep CSV lacks axes field '${needle}'")
  endif()
endforeach()
if(NOT org_csv MATCHES ",closed@org=2x2x32,")
  message(FATAL_ERROR "org sweep CSV lacks the 2x2x32 axes field")
endif()
file(REMOVE_RECURSE ${smoke_dir}/org_shards)
run_expect_ok(orchestrate ${org_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/org_merged.csv
              --dir=${smoke_dir}/org_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/org_serial.csv ${smoke_dir}/org_merged.csv
                RESULT_VARIABLE org_orch_diff)
if(NOT org_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated org CSV differs")
endif()
# Malformed or out-of-range --org values are fatal up front.
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --org=2x2)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --org=0x1x16)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --org=2x2x128)

# Unknown axis values must be fatal with the accepted spellings
# listed, and schema-v1/v2/v3/v4 checkpoints/manifests must be
# rejected with a versioned error instead of a cryptic identity
# mismatch.
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --page-policy=half-open)
run_expect_fail(sweep --workloads=trace: --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --trc=fast)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --preset=ddr6)
# Inconsistent timings (tRC < tRCD + tRP) are fatal up front.
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --trc=20)
file(WRITE ${smoke_dir}/v1_checkpoint.csv
     "index,workload,mitigation,tracker,trh,rate,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts\n")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/v1_checkpoint.csv)
file(WRITE ${smoke_dir}/v2_checkpoint.csv
     "index,workload_spec,mitigation,tracker,trh,rate,policy,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts\n")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/v2_checkpoint.csv)
file(WRITE ${smoke_dir}/v3_checkpoint.csv
     "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts\n")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/v3_checkpoint.csv)
file(WRITE ${smoke_dir}/v4_checkpoint.csv
     "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat\n")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/v4_checkpoint.csv)
file(WRITE ${smoke_dir}/v5_checkpoint.csv
     "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat,lat_samples\n")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/v5_checkpoint.csv)
file(READ ${smoke_dir}/orch_shards/manifest manifest_v6)
if(NOT manifest_v6 MATCHES "version=6")
  message(FATAL_ERROR "orchestrate manifest is not schema v6")
endif()
foreach(stale_version 1 2 3 4 5)
  string(REPLACE "version=6" "version=${stale_version}" manifest_stale
         "${manifest_v6}")
  file(WRITE ${smoke_dir}/orch_shards/stale_manifest "${manifest_stale}")
  run_expect_fail(merge --manifest=${smoke_dir}/orch_shards/stale_manifest)
endforeach()
file(REMOVE ${smoke_dir}/orch_shards/stale_manifest)

# Farm: dispatch a planned orchestration across a simulated fleet of
# two "local" hosts x 2 jobs and require the merged CSV to be
# byte-identical to the single-process sweep; the JSON plan names
# every shard's argv; monitor reports fleet completion from the
# journals alone.
file(REMOVE_RECURSE ${smoke_dir}/farm_shards)
run_expect_ok(orchestrate ${orch_grid} --shards=3 --plan
              --dir=${smoke_dir}/farm_shards)
execute_process(COMMAND ${SRS_SIM} orchestrate ${orch_grid} --shards=3
                --plan --plan-format=json --dir=${smoke_dir}/farm_shards
                OUTPUT_VARIABLE plan_json RESULT_VARIABLE plan_rc
                ERROR_QUIET)
if(NOT plan_rc EQUAL 0)
  message(FATAL_ERROR "orchestrate --plan --plan-format=json failed")
endif()
foreach(needle "\"shards\":" "\"argv\":" "\"merge\":")
  if(NOT plan_json MATCHES "${needle}")
    message(FATAL_ERROR "JSON plan lacks '${needle}'")
  endif()
endforeach()
run_expect_fail(orchestrate ${orch_grid} --plan --plan-format=yaml)
file(WRITE ${smoke_dir}/farm_hosts.conf
     "version=1\nhosts=2\nhost0.host=local\nhost0.jobs=2\nhost1.host=local\nhost1.jobs=2\n")
run_expect_ok(farm --manifest=${smoke_dir}/farm_shards/manifest
              --hosts=${smoke_dir}/farm_hosts.conf --threads=1
              --out=${smoke_dir}/farm_merged.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/orch_single.csv
                ${smoke_dir}/farm_merged.csv
                RESULT_VARIABLE farm_diff)
if(NOT farm_diff EQUAL 0)
  message(FATAL_ERROR "farm CSV differs from single-process sweep")
endif()
file(READ ${smoke_dir}/farm_shards/farm.status farm_status)
foreach(needle "\"type\":\"fleet\"" "\"done\":3" "\"host\":\"local\"")
  if(NOT farm_status MATCHES "${needle}")
    message(FATAL_ERROR "farm status file lacks '${needle}'")
  endif()
endforeach()
execute_process(COMMAND ${SRS_SIM} monitor --dir=${smoke_dir}/farm_shards
                OUTPUT_VARIABLE monitor_json RESULT_VARIABLE monitor_rc
                ERROR_QUIET)
if(NOT monitor_rc EQUAL 0)
  message(FATAL_ERROR "monitor exited ${monitor_rc}")
endif()
foreach(needle "\"type\":\"shard\"" "\"type\":\"fleet\"" "\"done\":3"
        "\"pct\":100.0" "\"host\":\"local\"")
  if(NOT monitor_json MATCHES "${needle}")
    message(FATAL_ERROR "monitor JSON lacks '${needle}'")
  endif()
endforeach()
# Re-farming a finished directory launches nothing and merges the
# same bytes.
run_expect_ok(farm --manifest=${smoke_dir}/farm_shards/manifest
              --hosts=${smoke_dir}/farm_hosts.conf
              --out=${smoke_dir}/farm_again.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/orch_single.csv ${smoke_dir}/farm_again.csv
                RESULT_VARIABLE farm_rediff)
if(NOT farm_rediff EQUAL 0)
  message(FATAL_ERROR "re-farmed CSV differs from single-process sweep")
endif()
# Misconfigured fleets and missing inputs are fatal by name.
run_expect_fail(farm)
run_expect_fail(farm --manifest=${smoke_dir}/farm_shards/manifest)
run_expect_fail(farm --hosts=${smoke_dir}/farm_hosts.conf)
file(WRITE ${smoke_dir}/bad_hosts.conf
     "version=9\nhosts=1\nhost0.host=local\n")
run_expect_fail(farm --manifest=${smoke_dir}/farm_shards/manifest
                --hosts=${smoke_dir}/bad_hosts.conf)
run_expect_fail(monitor)
run_expect_fail(monitor --dir=${smoke_dir}/no_such_dir)

# Security sweep: the security subcommand enumerates (axes, trh,
# rate) security cells with the same schema-v6 CSV the performance
# sweep writes, thread-count invariant, Monte-Carlo confidence
# columns live when a campaign runs and zero when analytic-only.
set(sec_grid --defenses=srs,rrs --trh=2400 --rates=6 --rounds=900,best)
run_expect_ok(security ${sec_grid} --montecarlo=2000 --threads=1
              --out=${smoke_dir}/sec_t1.csv)
run_expect_ok(security ${sec_grid} --montecarlo=2000 --threads=8
              --out=${smoke_dir}/sec_t8.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/sec_t1.csv ${smoke_dir}/sec_t8.csv
                RESULT_VARIABLE sec_diff)
if(NOT sec_diff EQUAL 0)
  message(FATAL_ERROR "security sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/sec_t1.csv sec_csv)
foreach(needle ",iterations,censored,p_break,ci_lo,ci_hi"
        ",attack:srs,srs,-,2400,6,closed,0x"
        ",attack:rrs@n=900,rrs,-,2400,6,closed,0x"
        ",attack:rrs@best,rrs,-,2400,6,closed,0x")
  if(NOT sec_csv MATCHES "${needle}")
    message(FATAL_ERROR "security sweep CSV lacks '${needle}'")
  endif()
endforeach()
if(NOT sec_csv MATCHES ",2000,[0-9]+,[0-9.e+-]+,")
  message(FATAL_ERROR "security CSV has no live Monte-Carlo columns")
endif()
# Analytic-only runs leave the campaign columns zeroed.
run_expect_ok(security --defenses=srs --trh=4800 --rates=6
              --out=${smoke_dir}/sec_analytic.csv)
file(READ ${smoke_dir}/sec_analytic.csv sec_analytic_csv)
if(NOT sec_analytic_csv MATCHES ",0,0,0,0,0\n")
  message(FATAL_ERROR
          "analytic-only security row has live campaign columns")
endif()
run_expect_fail(security --defenses=scale-rrs --trh=2400 --rates=6)
run_expect_fail(security ${sec_grid} --montecarlo=banana)

# Unknown flags must be fatal on every subcommand; so are a resume
# file that does not exist, a sweep with no workloads at all, a
# merge without a manifest, and an orchestration with zero shards.
run_expect_fail(list --bogus=1)
run_expect_fail(storage --thr=1200)
run_expect_fail(perf --workload=gups --cylces=1000)
run_expect_fail(sweep --workloads=gups --thread=2)
# Cells run one serial controller; there is no channel-worker flag.
run_expect_fail(sweep ${org_grid} --channel-workers=2 STDERR "unknown option")
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/no_such_file.csv)
run_expect_fail(sweep --workloads= --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(orchestrate ${orch_grid} --shard=3)
run_expect_fail(orchestrate ${orch_grid} --shards=0)
run_expect_fail(orchestrate --workloads= --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(merge)
run_expect_fail(merge --manifest=${smoke_dir}/no_such_manifest)

# No subcommand / unknown subcommand -> usage + nonzero exit, and the
# usage text actually summarizes every subcommand's flags.
run_expect_fail()
run_expect_fail(frobnicate)
execute_process(COMMAND ${SRS_SIM} OUTPUT_VARIABLE usage_text
                RESULT_VARIABLE usage_rc ERROR_QUIET)
foreach(subcommand perf sweep orchestrate merge farm monitor attack
        security storage trace list
        --workloads --shards --manifest --montecarlo --defenses --rounds
        --trace --page-policy --preset --org
        --trc --trcd --trp --trefi --trfc "trace:"
        --hosts --status-file --stale-sec --plan-format --watch
        --interval-ms --poll-ms)
  if(NOT usage_text MATCHES "${subcommand}")
    message(FATAL_ERROR "usage() does not mention '${subcommand}'")
  endif()
endforeach()

message(STATUS "cli_smoke passed")
