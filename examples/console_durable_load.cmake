# Drives mie_console --durable through save -> load -> relaunch and checks
# that a snapshot loaded into a durable console survives the relaunch.
#
#   cmake -DCONSOLE=<mie_console> -DWORK_DIR=<scratch dir> \
#         -P console_durable_load.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `script` (one console command per line) against --durable `dir` and
# stores the transcript in `out_var`.
function(run_console dir script out_var)
  file(WRITE "${WORK_DIR}/input.txt" "${script}")
  execute_process(
    COMMAND "${CONSOLE}" --durable "${WORK_DIR}/${dir}" --threads 2
    INPUT_FILE "${WORK_DIR}/input.txt"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "mie_console exited with ${status}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect transcript pattern what)
  if(NOT transcript MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: expected '${pattern}' in:\n${transcript}")
  endif()
endfunction()

run_console(dir1
  "create\naddbatch 0 6\ntrain\nsave ${WORK_DIR}/a.snap\nquit\n" saved)
expect("${saved}" "saved to" "save")

run_console(dir2
  "create\naddbatch 0 2\nload ${WORK_DIR}/a.snap\nstats\nquit\n" loaded)
expect("${loaded}" "objects=6 trained=yes" "stats after load")

run_console(dir2 "stats\nquit\n" relaunched)
expect("${relaunched}" "objects=6 trained=yes" "stats after relaunch")
