#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>

#include <sys/resource.h>
#include <ctime>

#include "core/serialize.hpp"
#include "trace.hpp"
#include "workload/apps.hpp"

namespace perfbench {

using namespace hwsw;

double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

Stamp
Stamp::now()
{
    Stamp s;
    s.wall = Clock::now();
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    s.cpu = static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
    if (std::FILE *f = std::fopen("/proc/stat", "r")) {
        // cpu user nice system idle iowait irq softirq steal
        unsigned long long v[8] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]) == 8) {
            s.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
            s.stolen = static_cast<double>(v[7]);
        }
        std::fclose(f);
    }
    return s;
}

Interval
Interval::between(const Stamp &a, const Stamp &b)
{
    Interval i;
    i.wall = secondsBetween(a.wall, b.wall);
    i.cpu = b.cpu - a.cpu;
    const double stolen = b.stolen - a.stolen;
    const double demanded = b.busy - a.busy + stolen;
    i.stealShare = demanded > 0.0 ? std::clamp(stolen / demanded, 0.0, 0.9)
                                  : 0.0;
    return i;
}

double
unstolenSince(Clock::time_point start, const Stamp &from)
{
    const Stamp now = Stamp::now();
    return secondsBetween(start, now.wall) *
        (1.0 - Interval::between(from, now).stealShare);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
Report::gateFailed(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "correctness gate failed: %s\n", why.c_str());
}

TrainInputs
TrainInputs::fromSeed(std::uint64_t seed)
{
    TrainInputs in;
    in.heldOutSeed = 1000 + seed;
    return in;
}

core::SamplerOptions
cliSamplerOptions()
{
    core::SamplerOptions o;
    o.shardLength = 16384;
    o.shardsPerApp = 16;
    return o;
}

TrainOutcome
trainChain(const TrainInputs &in, std::uint64_t unit)
{
    TrainOutcome out;
    trace::Scope root("train.unit", unit);
    {
        trace::Scope s("core.sampler.build", unit);
        out.sampler = std::make_unique<core::SpaceSampler>(
            wl::makeSuite(), cliSamplerOptions());
    }
    {
        trace::Scope s("core.sampler.sample", unit);
        out.train = out.sampler->sample(in.pairs, in.trainSeed);
    }
    {
        trace::Scope s("core.sampler.sample", unit);
        out.validation = out.sampler->sample(in.valPairs, in.valSeed);
    }
    core::GaOptions ga;
    ga.populationSize = in.population;
    ga.generations = in.generations;
    ga.numThreads = in.threads;
    ga.seed = in.gaSeed;
    std::optional<core::GeneticSearch> search;
    {
        trace::Scope s("core.search.folds", unit);
        search.emplace(out.train, ga);
    }
    {
        trace::Scope s("core.search.run", unit);
        out.search = search->run();
    }
    {
        trace::Scope s("core.model.fit", unit);
        out.model.fit(out.search.best.spec, out.train);
    }
    {
        trace::Scope s("core.model.validate", unit);
        out.validationErrPct =
            100.0 * out.model.validate(out.validation).medianAbsPctError;
    }
    {
        trace::Scope s("core.serialize", unit);
        out.modelText = core::saveModelToString(out.model);
    }
    return out;
}

bool
sameChampion(const core::GaResult &a, const core::GaResult &b)
{
    return a.best.spec == b.best.spec &&
        std::bit_cast<std::uint64_t>(a.best.fitness) ==
        std::bit_cast<std::uint64_t>(b.best.fitness);
}

bool
samePredictions(const core::HwSwModel &a, const core::HwSwModel &b,
                const core::Dataset &ds)
{
    for (std::size_t i = 0; i < ds.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a.predict(ds[i])) !=
            std::bit_cast<std::uint64_t>(b.predict(ds[i])))
            return false;
    return true;
}

} // namespace perfbench
