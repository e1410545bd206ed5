/**
 * @file
 * The `pifetch` command line: one entry point over the experiment
 * registry, the checker, the event store and lint. docs/cli.md
 * documents every verb, option and exit code.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace pifetch {

/**
 * Run one `pifetch` command line. @p args are the arguments after the
 * program name; reports and `-` outputs go to @p out, diagnostics to
 * @p err. Returns the exit code: 0 success, 1 runtime failure
 * (including a failed write to @p out), 2 usage error.
 */
int runCli(const std::vector<std::string> &args, std::FILE *out,
           std::FILE *err);

} // namespace pifetch
