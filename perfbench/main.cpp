/**
 * @file
 * Entry point of the benchmark binary. run.py builds it and calls
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --scratch DIR [--t0-ns NS] [--source-id ID]
 *
 * It prints progress lines, a `meta` line recording the run's
 * machine and build, and as its last line one JSON object with the
 * keys correct, attempted, failed and metrics. A failed correctness
 * gate still prints the result, with correct=false, and exits 1.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common/parse.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload train|serve|tune|islands "
                 "--seed N --seconds S --trace 0|1 --scratch DIR "
                 "[--t0-ns NS] [--source-id ID]\n");
    return 2;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printResult(const Report &rep)
{
    for (const Report::Metric &m : rep.metrics)
        std::printf("metric %-32s %.6g %s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
                rep.attempted
                    ? static_cast<double>(rep.failed) /
                        static_cast<double>(rep.attempted)
                    : 1.0,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::string json = "{\"correct\": ";
    json += rep.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Report::Metric &m = rep.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        json += (i ? ", \"" : "\"") + jsonEscape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            jsonEscape(m.unit) + "\", \"samples\": " +
            std::to_string(m.samples) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point entered = Clock::now();
    if (argc == 2 && std::string(argv[1]) == kStartupProbe)
        return 0;
    Clock::time_point process_start = entered;
    Args args;
    std::string source_id = "unknown";
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            const auto v = hwsw::parseUnsigned(value);
            ok = v.has_value();
            args.seed = v.value_or(0);
        } else if (flag == "--seconds") {
            const auto v = hwsw::parseDouble(value);
            ok = v && *v > 0.0;
            args.seconds = v.value_or(0.0);
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--scratch") {
            args.scratch = value;
        } else if (flag == "--source-id") {
            source_id = value;
        } else if (flag == "--t0-ns") {
            // Spawn time from the launcher, on the same monotonic
            // clock, so set-up includes process start-up.
            const auto ns = hwsw::parseUnsigned(value);
            ok = ns.has_value();
            const Clock::time_point t0{
                std::chrono::nanoseconds(ns.value_or(0))};
            if (ok && t0 <= entered)
                process_start = t0;
        } else {
            ok = false;
        }
        if (!ok)
            return usage();
    }
    if (argc % 2 == 0 || args.workload.empty() || !have_trace)
        return usage();
    std::error_code ec;
    std::filesystem::create_directories(args.scratch, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     args.scratch.c_str(), ec.message().c_str());
        return 2;
    }

    std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
                jsonEscape(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                jsonEscape(source_id).c_str());
    std::fflush(stdout);

    Report rep;
    try {
        if (args.workload == "train")
            rep = runTrain(args, process_start);
        else if (args.workload == "serve")
            rep = runServe(args, process_start);
        else if (args.workload == "tune")
            rep = runTune(args, process_start);
        else if (args.workload == "islands")
            rep = runIslands(args, process_start);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "workload %s aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    printResult(rep);
    return rep.correct ? 0 : 1;
}
