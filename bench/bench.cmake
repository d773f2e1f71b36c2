# Bench binaries land directly in ${CMAKE_BINARY_DIR}/bench (no
# CMakeFiles pollution: this file is include()d, not add_subdirectory'd)
# so `for b in build/bench/*; do $b; done` runs exactly the benches.
set(SMARTCONF_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(smartconf_add_bench name source)
    add_executable(${name} ${SMARTCONF_BENCH_DIR}/${source})
    target_link_libraries(${name} PRIVATE smartconf_exec
                                          smartconf_scenarios
                                          smartconf_study)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

smartconf_add_bench(bench_table2_5_study bench_table2_5_study.cc)
smartconf_add_bench(bench_table6_suite bench_table6_suite.cc)
smartconf_add_bench(bench_table7_loc bench_table7_loc.cc)
smartconf_add_bench(bench_fig5_tradeoff bench_fig5_tradeoff.cc)
smartconf_add_bench(bench_fig6_hb3813 bench_fig6_hb3813.cc)
smartconf_add_bench(bench_fig7_ablation bench_fig7_ablation.cc)
smartconf_add_bench(bench_fig8_interacting bench_fig8_interacting.cc)

smartconf_add_bench(bench_micro_controller bench_micro_controller.cc)
target_link_libraries(bench_micro_controller PRIVATE benchmark::benchmark)
smartconf_add_bench(bench_micro_sim bench_micro_sim.cc)
target_link_libraries(bench_micro_sim PRIVATE benchmark::benchmark)
# Hand-rolled timing loop (no google-benchmark): check_regression runs
# it on every invocation, so it has to stay fast and JSON-clean.
smartconf_add_bench(bench_micro_kernels bench_micro_kernels.cc)
smartconf_add_bench(bench_ablation_profiling bench_ablation_profiling.cc)
smartconf_add_bench(bench_ablation_period bench_ablation_period.cc)
smartconf_add_bench(bench_limitations bench_limitations.cc)
smartconf_add_bench(bench_sweep bench_sweep.cc)
smartconf_add_bench(bench_store bench_store.cc)
smartconf_add_bench(bench_chaos bench_chaos.cc)
target_link_libraries(bench_chaos PRIVATE smartconf_fault)
smartconf_add_bench(bench_fleet bench_fleet.cc)
target_link_libraries(bench_fleet PRIVATE smartconf_fleet)
