/**
 * @file
 * The `pifetch` binary (docs/cli.md).
 */

#include "cli/cli.hh"

int
main(int argc, char **argv)
{
    return pifetch::runCli({argv + 1, argv + argc}, stdout, stderr);
}
