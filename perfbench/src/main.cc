/**
 * @file
 * FlowGuard benchmark entry point.
 *
 *   flowguard_perfbench --workload <serve|storm|cold-fleet>
 *                       --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints every metric by name and unit, then one JSON result line.
 * Exits 1 when the correctness gate fails, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"

namespace {

using namespace flowguard::perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "flowguard_perfbench: %s\n"
                 "usage: flowguard_perfbench --workload "
                 "<serve|storm|cold-fleet> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            char *end = nullptr;
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end != '\0')
                return usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            double number = 0.0;
            if (!parseNumber(value, number) || number <= 0 ||
                number > 600)
                return usage("--seconds takes a number in (0, 600]");
            options.seconds = number;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    Report report;
    if (options.workload == "serve")
        report = runServe(options);
    else if (options.workload == "storm")
        report = runStorm(options);
    else if (options.workload == "cold-fleet")
        report = runColdFleet(options);
    else
        return usage("--workload takes serve, storm or cold-fleet");
    report.print();
    return report.correct() ? 0 : 1;
}
