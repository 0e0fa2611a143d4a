# Lenient number parsing stays out of the command-line code: tools/*.cc
# and src/sweep/gridcli.cc read numbers through sweep::parseU64 and
# sweep::parseFiniteDouble, never through atoi/atof/atol/atoll/strtoul/
# strtoull, which turn a typo into a silent 0 (or an octal or hex
# value).
#
#   cmake -DSOURCE_DIR=<repo root> -P check_strict_parse.cmake
file(GLOB sources "${SOURCE_DIR}/tools/*.cc")
list(APPEND sources "${SOURCE_DIR}/src/sweep/gridcli.cc")
set(bad "")
foreach(src ${sources})
    file(STRINGS "${src}" lines REGEX
         "(^|[^A-Za-z0-9_])(atoi|atof|atol|atoll|strtoul|strtoull)[ \t]*\\(")
    foreach(line ${lines})
        string(APPEND bad "${src}: ${line}\n")
    endforeach()
endforeach()
if(bad)
    message(FATAL_ERROR "lenient number parsing:\n${bad}")
endif()
