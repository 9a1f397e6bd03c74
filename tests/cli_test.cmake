# CTest script driving the maxutil_cli binary end-to-end:
# generate -> validate -> solve (lp and gradient agree) -> dot.
# Invoked as: cmake -DCLI=<path-to-maxutil_cli> -DWORK=<dir> -P cli_test.cmake

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE error
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "maxutil_cli ${ARGN} failed (${result}): ${error}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

set(scenario_file ${WORK}/cli_test_scenario.txt)

run_cli(generated generate --servers 12 --commodities 2 --stages 3 --seed 7)
file(WRITE ${scenario_file} "${generated}")

run_cli(validated validate ${scenario_file})
if(NOT validated MATCHES "OK")
  message(FATAL_ERROR "validate did not report OK: ${validated}")
endif()

run_cli(lp_out solve ${scenario_file} --algo lp)
if(NOT lp_out MATCHES "total utility \\(lp\\): ([0-9.]+)")
  message(FATAL_ERROR "lp solve output unparseable: ${lp_out}")
endif()
set(lp_value ${CMAKE_MATCH_1})

run_cli(grad_out solve ${scenario_file} --algo gradient --iters 6000 --eps 0.05)
if(NOT grad_out MATCHES "total utility \\(gradient\\): ([0-9.]+)")
  message(FATAL_ERROR "gradient solve output unparseable: ${grad_out}")
endif()
set(grad_value ${CMAKE_MATCH_1})

# Gradient within 10% of the LP optimum.
math(EXPR dummy "0")  # noop to keep CMake happy with math contexts
if(grad_value LESS 0)
  message(FATAL_ERROR "negative utility")
endif()
# CMake's math() is integer-only; compare via floating arithmetic in CMake 3.19+
# string comparison fallback: compute ratio with execute_process(awk)-free trick:
# use if(LESS) on scaled integers.
string(REPLACE "." "" _ignore "${grad_value}")  # ensure numeric-ish
math(EXPR grad_milli "0")
# Use CMake's native float comparison (3.7+ supports VERSION_LESS misuse is
# fragile); do a computed check instead:
execute_process(COMMAND ${CMAKE_COMMAND} -E echo "check"
                OUTPUT_QUIET)
# Simple threshold: grad >= 0.9 * lp  <=>  10*grad >= 9*lp.
# Parse into integer micro-units.
macro(to_micro var value)
  string(FIND "${value}" "." dot_pos)
  if(dot_pos EQUAL -1)
    set(int_part "${value}")
    set(frac_part "000000")
  else()
    string(SUBSTRING "${value}" 0 ${dot_pos} int_part)
    math(EXPR frac_start "${dot_pos} + 1")
    string(SUBSTRING "${value}" ${frac_start} -1 frac_part)
    set(frac_part "${frac_part}000000")
    string(SUBSTRING "${frac_part}" 0 6 frac_part)
  endif()
  math(EXPR ${var} "${int_part} * 1000000 + ${frac_part}")
endmacro()
to_micro(grad_micro "${grad_value}")
to_micro(lp_micro "${lp_value}")
math(EXPR lhs "10 * ${grad_micro}")
math(EXPR rhs "9 * ${lp_micro}")
if(lhs LESS rhs)
  message(FATAL_ERROR "gradient ${grad_value} below 90% of LP ${lp_value}")
endif()

run_cli(dot_out dot ${scenario_file})
if(NOT dot_out MATCHES "digraph G")
  message(FATAL_ERROR "dot output malformed")
endif()
run_cli(dot_ext dot ${scenario_file} --extended)
if(NOT dot_ext MATCHES "dummy")
  message(FATAL_ERROR "extended dot output lacks dummy nodes")
endif()

# A flag outside the help text's vocabulary fails loudly, naming the flag,
# instead of being silently ignored.
execute_process(COMMAND ${CLI} solve ${scenario_file} --algo gradient
                        --partition chunked
                OUTPUT_VARIABLE unknown_out
                ERROR_VARIABLE unknown_err
                RESULT_VARIABLE unknown_result)
if(NOT unknown_result EQUAL 1)
  message(FATAL_ERROR
          "solve --partition chunked exited ${unknown_result}, expected 1")
endif()
if(NOT unknown_err MATCHES "unknown flag --partition")
  message(FATAL_ERROR
          "solve --partition chunked did not name the flag: ${unknown_err}")
endif()

# The dense-tableau LP selector is gone with the dense production engine:
# `lp` always runs the revised simplex, so --lp-backend is an unknown flag.
execute_process(COMMAND ${CLI} solve ${scenario_file} --algo lp
                        --lp-backend dense
                OUTPUT_VARIABLE backend_out
                ERROR_VARIABLE backend_err
                RESULT_VARIABLE backend_result)
if(NOT backend_result EQUAL 1)
  message(FATAL_ERROR
          "solve --lp-backend dense exited ${backend_result}, expected 1")
endif()
if(NOT backend_err MATCHES "unknown flag --lp-backend")
  message(FATAL_ERROR
          "solve --lp-backend dense did not name the flag: ${backend_err}")
endif()

message(STATUS "cli_test: all checks passed (lp=${lp_value}, gradient=${grad_value})")
