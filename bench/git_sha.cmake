# Writes OUT, a header defining HALK_GIT_SHA as the short commit of
# SOURCE_DIR's HEAD ("unknown" outside a git clone). Run on every build by
# the halk_git_sha target (bench/CMakeLists.txt); the header is rewritten
# only when the commit changes, so a build at an unchanged commit
# recompiles nothing.
execute_process(COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(content "// Generated by bench/git_sha.cmake on every build.\n#define HALK_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
