/**
 * @file
 * Shared pieces of the end-to-end benchmark: run arguments, the
 * result every workload fills in, sample statistics, and the seeded
 * inputs of the `hwsw save` chain that three workloads reuse.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/genetic.hpp"
#include "core/model.hpp"
#include "core/sampler.hpp"

namespace perfbench {

namespace core = hwsw::core;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

/** Nearest-rank quantile q in [0,1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

/**
 * Clock readings at one instant: wall time, this process's CPU time
 * (all threads) and the machine's busy and stolen vCPU ticks from
 * /proc/stat (both 0 where the file is unavailable).
 */
struct Stamp
{
    Clock::time_point wall;
    double cpu = 0.0;
    double busy = 0.0;  ///< user + nice + system + irq + softirq
    double stolen = 0.0; ///< ticks the hypervisor ran something else

    static Stamp now();
};

/**
 * One measured interval. On a shared virtual machine the hypervisor
 * can take a large, changing share of the vCPUs' time ("steal"); the
 * benchmark reports wall time with that share removed, so that its
 * figures describe the program rather than the host's load.
 */
struct Interval
{
    double wall = 0.0;       ///< seconds
    double cpu = 0.0;        ///< process CPU seconds
    double stealShare = 0.0; ///< stolen share of demanded vCPU time

    static Interval between(const Stamp &a, const Stamp &b);

    /** Wall time less its stolen share. */
    double unstolen() const { return wall * (1.0 - stealShare); }
};

/**
 * Seconds from @p start to now, less the share stolen since @p from
 * (a stamp taken at or after @p start).
 */
double unstolenSince(Clock::time_point start, const Stamp &from);

/** Peak resident set of this process in MB. */
double peakRssMb();

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = "."; ///< directory for journals, checkpoints
};

/** One workload's outcome; printed as the benchmark's last line. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t samples = 1;
    };

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit, std::size_t samples = 1);

    /** Record a failed correctness gate (printed to stderr). */
    void gateFailed(const std::string &why);
};

/**
 * Inputs of `hwsw save` at its CLI defaults: training sample 1,
 * validation sample 2 and GA seed 42, whatever the benchmark seed.
 * The seed draws the held-out sample that err_pct is measured on,
 * 200 pairs per app, so that a seed changes the check, not the
 * chain being timed.
 */
struct TrainInputs
{
    std::uint64_t trainSeed = 1;
    std::uint64_t valSeed = 2;
    std::uint64_t gaSeed = 42;
    std::uint64_t heldOutSeed = 1000;
    std::size_t pairs = 150;
    std::size_t valPairs = 40;
    std::size_t heldOutPairs = 200;
    std::size_t generations = 12;
    std::size_t population = 24;
    unsigned threads = 0; ///< 0: hardware concurrency, as the CLI

    static TrainInputs fromSeed(std::uint64_t seed);
};

/** The CLI's sampler scale: 16 shards x 16,384 ops per app. */
core::SamplerOptions cliSamplerOptions();

/** Everything one run of the `hwsw save` chain produced. */
struct TrainOutcome
{
    std::unique_ptr<core::SpaceSampler> sampler;
    core::Dataset train;
    core::Dataset validation;
    core::GaResult search;
    core::HwSwModel model;
    double validationErrPct = 0.0; ///< the CLI's validation line
    std::string modelText;     ///< saveModelToString of the champion
};

/**
 * The `hwsw save` chain: dataset, folds, search, champion fit,
 * validation and serialization. Each call into a layer is a trace
 * span under a `train.unit` root carrying @p unit.
 */
TrainOutcome trainChain(const TrainInputs &in, std::uint64_t unit);

/** True when both searches found the same spec with the same fitness bits. */
bool sameChampion(const core::GaResult &a, const core::GaResult &b);

/** True when both models give bit-identical predictions on @p ds. */
bool samePredictions(const core::HwSwModel &a, const core::HwSwModel &b,
                     const core::Dataset &ds);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
