# Golden-regression test, run via
#   cmake -DSRS_SIM=<path> -DGOLDEN=<tests/golden/NAME.csv> \
#         -P golden_regression.cmake
#
# Re-runs the reference sweep committed as tests/golden/NAME.csv with
# the arguments listed for NAME below, and byte-compares the
# regenerated CSV against the checked-in file.  Any drift in the CSV
# schema, the axes spellings, the per-cell seeding, or the simulation
# itself is caught here *by name* instead of as a downstream
# resume/merge failure.
#
# tiny_sweep: the grid deliberately crosses the identity-bearing axes
# (page policy, DDR4/DDR5 preset, a DRAM organization, a tREFI
# override) at a tiny cycle budget, and uses a low T_RH so the
# mitigations actually swap rows — the payload columns lock down
# mitigation behaviour, not just identity formatting.  A zipf and a
# blend generator cell ride next to the synthetic workload so the
# generator sampling paths and the schema-v6 latency-percentile and
# Monte-Carlo-confidence columns are locked down too, and the
# multi-channel multi-rank org cells pin down the controller's
# channel-order scheduling.
#
# sched_sweep: the controller paths tiny_sweep misses.  It runs the
# unprotected baseline (no listener), srs, blockhammer (the
# actAllowedAt throttle path), aqua and rrs-no-unswap under the Hydra
# tracker, on gups, a hotspot and a blended attack, at T_RH 120, both
# page policies, and a one-channel two-rank org next to the default.
#
# org_sweep: the edges of the controller's per-rank bank masks.
# 1x4x64 fills all 64 bits of each rank's mask (bank 63 included)
# and makes the closed-page idle close wrap from the last rank back
# to rank 0; 2x2x32 and 8x1x4 cover half-full and nearly empty
# masks across several channels.  Baseline, srs and blockhammer run
# gups and a blended attack at T_RH 48 under both page policies.
#
# The regeneration runs at the default thread count: sweep CSVs are
# byte-identical for any --threads value (that invariant has its own
# tests), so the comparison is exact while the regeneration
# parallelizes.
#
# If a change intentionally alters simulation results or the schema,
# regenerate the reference with `srs_sim sweep <arguments below>
# --out=tests/golden/NAME.csv --journal=none` and commit the new file
# together with the change that explains it.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()
if(NOT DEFINED GOLDEN)
  message(FATAL_ERROR "pass -DGOLDEN=<path to the committed reference CSV>")
endif()
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "reference CSV '${GOLDEN}' does not exist")
endif()

get_filename_component(name ${GOLDEN} NAME_WE)
if(name STREQUAL "tiny_sweep")
  set(sweep_args
      --workloads=gups,zipf:4096@s=0.99,blend:zipf:4096@s=0.9+attack@0.05
      --mitigations=rrs,scale-srs --trh=60
      --rates=6 --page-policy=closed,open --preset=ddr4,ddr5
      --org=2x1x16,2x2x32
      --trefi=0,3900 --cycles=120000 --epoch=30000)
elseif(name STREQUAL "sched_sweep")
  set(sweep_args
      --workloads=gups,hotspot:1024@hot=0.01@p=0.9,blend:zipf:4096@s=1.1+attack@0.05
      --mitigations=baseline,srs,blockhammer,aqua,rrs-no-unswap
      --tracker=hydra --trh=120 --rates=6 --page-policy=closed,open
      --org=2x1x16,1x2x8 --cycles=200000 --epoch=40000)
elseif(name STREQUAL "org_sweep")
  set(sweep_args
      --workloads=gups,blend:zipf:4096@s=1.1+attack@0.05
      --mitigations=baseline,srs,blockhammer --trh=48 --rates=6
      --page-policy=closed,open --org=1x4x64,2x2x32,8x1x4
      --cycles=200000 --epoch=40000)
else()
  message(FATAL_ERROR "no sweep arguments known for golden '${name}'")
endif()

set(regen ${CMAKE_CURRENT_BINARY_DIR}/${name}_regen.csv)
execute_process(
  COMMAND ${SRS_SIM} sweep ${sweep_args} --threads=0
          --out=${regen} --journal=none
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "golden sweep exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${GOLDEN} ${regen}
                RESULT_VARIABLE golden_diff)
if(NOT golden_diff EQUAL 0)
  message(FATAL_ERROR
          "regenerated sweep CSV differs from the committed reference "
          "${GOLDEN} (regenerated copy: ${regen}).  If the change is "
          "intentional, regenerate the reference with the arguments in "
          "tests/golden_regression.cmake and commit it.")
endif()

message(STATUS "golden_regression passed for ${name}")
