#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <map>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_nextId{1};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::vector<Span> &
threadBuffer()
{
    thread_local std::vector<Span> *buf = [] {
        auto owned = std::make_unique<std::vector<Span>>();
        owned->reserve(4096);
        std::vector<Span> *raw = owned.get();
        std::lock_guard lock(registry().mutex);
        registry().buffers.push_back(std::move(owned));
        return raw;
    }();
    return *buf;
}

thread_local std::uint64_t t_current = 0;

/** Length of the union of [start, end) intervals clipped to [lo, hi). */
double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

/** Self time of every span, keyed by span id. */
std::unordered_map<std::uint64_t, double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans)
        if (s.parent)
            children[s.parent].emplace_back(s.start, s.end);
    std::unordered_map<std::uint64_t, double> self;
    for (const Span &s : spans) {
        const auto it = children.find(s.id);
        const double covered = it == children.end()
            ? 0.0
            : coveredLength(it->second, s.start, s.end);
        self[s.id] = (s.end - s.start) - covered;
    }
    return self;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

double
now()
{
    return toTraceTime(Clock::now());
}

double
toTraceTime(Clock::time_point t)
{
    return std::chrono::duration<double>(t - g_epoch).count();
}

std::uint64_t
newId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

void
record(const Span &span)
{
    if (enabled())
        threadBuffer().push_back(span);
}

Scope::Scope(const char *name, std::uint64_t unit, std::uint64_t parent)
    : on_(enabled())
{
    if (!on_)
        return;
    span_.name = name;
    span_.id = newId();
    span_.parent = parent == ~std::uint64_t{0} ? t_current : parent;
    span_.unit = unit;
    saved_ = t_current;
    t_current = span_.id;
    span_.start = now();
}

Scope::~Scope()
{
    if (!on_)
        return;
    span_.end = now();
    t_current = saved_;
    record(span_);
}

std::vector<Span>
collect()
{
    std::vector<Span> all;
    std::lock_guard lock(registry().mutex);
    for (const auto &buf : registry().buffers)
        all.insert(all.end(), buf->begin(), buf->end());
    return all;
}

bool
writeJsonLines(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                     "\"id\": %llu, \"parent\": %llu, \"unit\": %llu}\n",
                     s.name, s.start, s.end,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.unit));
    return std::fclose(f) == 0;
}

std::vector<double>
perUnitTotals(const std::vector<Span> &spans, const std::string &name)
{
    std::map<std::uint64_t, double> by_unit;
    for (const Span &s : spans)
        if (name == s.name)
            by_unit[s.unit] += s.end - s.start;
    std::vector<double> out;
    for (const auto &[unit, total] : by_unit)
        out.push_back(total);
    return out;
}

std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (name == s.name)
            out.push_back(s.end - s.start);
    return out;
}

double
unaccountedShare(const std::vector<Span> &spans, const std::string &root)
{
    const auto self = selfTimes(spans);
    double total = 0.0, uncovered = 0.0;
    for (const Span &s : spans) {
        if (root != s.name)
            continue;
        total += s.end - s.start;
        uncovered += self.at(s.id);
    }
    return total > 0.0 ? uncovered / total : 0.0;
}

} // namespace perfbench::trace
