#include "common.hh"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Digest::add(std::uint64_t v)
{
    h_ = adaptsim::fnv1a64(&v, sizeof(v), h_);
}

void
Digest::add(const std::string &s)
{
    h_ = adaptsim::fnv1a64(s.data(), s.size(), h_);
    add(std::uint64_t(s.size()));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Outcome::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (!what.empty())
            std::fprintf(stderr, "perfbench: failed: %s\n",
                         what.c_str());
    }
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 what.c_str());
}

void
Outcome::digest(const std::string &name, const std::string &value)
{
    const DigestTable &table = digests();
    if (table.print)
        std::printf("digest %s %llu %s %s\n", table.workload.c_str(),
                    static_cast<unsigned long long>(table.seed),
                    name.c_str(), value.c_str());
    const std::string *want = table.lookup(name);
    if (!table.frozen())
        return;
    if (!want) {
        check(false, "no frozen digest named " + name);
        return;
    }
    check(*want == value, "digest " + name + " is " + value +
                              ", frozen " + *want);
    if (*want == value)
        std::printf("digest %s: ok\n", name.c_str());
}

bool
DigestTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, seed, name, value;
        if (!(ls >> wl >> seed >> name >> value))
            return false;
        entries[wl + " " + seed + " " + name] = value;
    }
    return true;
}

bool
DigestTable::frozen() const
{
    const std::string prefix =
        workload + " " + std::to_string(seed) + " ";
    const auto it = entries.lower_bound(prefix);
    return it != entries.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
}

const std::string *
DigestTable::lookup(const std::string &name) const
{
    const auto it = entries.find(
        workload + " " + std::to_string(seed) + " " + name);
    return it == entries.end() ? nullptr : &it->second;
}

DigestTable &
digests()
{
    static DigestTable table;
    return table;
}

double
Sheet::get(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
LayerClock::add(const std::string &name, double seconds)
{
    seconds_[name] += seconds;
}

double
LayerClock::seconds(const std::string &name) const
{
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
}

LayerClock &
layerClock()
{
    static LayerClock clock;
    return clock;
}

Span::~Span()
{
    const auto end = Clock::now();
    layerClock().add(name_,
                     std::chrono::duration<double>(end - start_).count());
    if (auto *writer = adaptsim::obs::TraceWriter::active())
        writer->completeEvent(name_, start_, end);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux: KiB
}

bool
positiveFinite(double v)
{
    return std::isfinite(v) && v > 0.0;
}

} // namespace perfbench
