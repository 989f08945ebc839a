#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "obs/json_util.hh"

namespace envy {
namespace obs {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    ENVY_PANIC("obs: bad MetricKind ", static_cast<int>(kind));
}

void
Histogram::record(std::uint64_t v)
{
    if (!cell_)
        return;
    // Bucket i counts samples v <= edges[i]; the final bucket is the
    // overflow for v > edges.back().
    auto it = std::lower_bound(cell_->edges.begin(), cell_->edges.end(), v);
    std::size_t idx =
        static_cast<std::size_t>(it - cell_->edges.begin());
    cell_->counts[idx]++;
    cell_->count++;
    cell_->sum += static_cast<double>(v);
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name, MetricKind kind,
                              const std::string &unit,
                              const std::string &desc)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        Entry &e = entries_[it->second];
        if (e.kind != kind) {
            ENVY_FATAL("obs: metric '", name, "' re-registered as ",
                       metricKindName(kind), " but exists as ",
                       metricKindName(e.kind));
        }
        if (e.unit != unit) {
            ENVY_FATAL("obs: metric '", name, "' re-registered with unit '",
                       unit, "' but exists with unit '", e.unit, "'");
        }
        return e;
    }
    if (name.empty())
        ENVY_FATAL("obs: metric name must not be empty");
    entries_.emplace_back();
    Entry &e = entries_.back();
    e.name = name;
    e.unit = unit;
    e.desc = desc;
    e.kind = kind;
    index_.emplace(name, entries_.size() - 1);
    return e;
}

Counter
MetricsRegistry::counter(const std::string &name, const std::string &unit,
                         const std::string &desc)
{
    MutexLock lock(mu_);
    return Counter(&findOrCreate(name, MetricKind::Counter, unit, desc)
                        .counter);
}

Gauge
MetricsRegistry::gauge(const std::string &name, const std::string &unit,
                       const std::string &desc)
{
    MutexLock lock(mu_);
    return Gauge(&findOrCreate(name, MetricKind::Gauge, unit, desc).gauge);
}

Histogram
MetricsRegistry::histogram(const std::string &name, const std::string &unit,
                           const std::string &desc,
                           std::vector<std::uint64_t> edges)
{
    if (edges.empty())
        ENVY_FATAL("obs: histogram '", name, "' needs at least one edge");
    if (!std::is_sorted(edges.begin(), edges.end()) ||
        std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
        ENVY_FATAL("obs: histogram '", name,
                   "' edges must be strictly ascending");
    }
    MutexLock lock(mu_);
    Entry &e = findOrCreate(name, MetricKind::Histogram, unit, desc);
    if (e.histogram.edges.empty()) {
        e.histogram.edges = std::move(edges);
        e.histogram.counts.assign(e.histogram.edges.size() + 1, 0);
    } else if (e.histogram.edges != edges) {
        ENVY_FATAL("obs: histogram '", name,
                   "' re-registered with different bucket edges");
    }
    return Histogram(&e.histogram);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MutexLock lock(mu_);
    MetricsSnapshot snap;
    snap.entries.reserve(entries_.size());
    for (const Entry &e : entries_) {
        MetricsSnapshot::Entry out;
        out.name = e.name;
        out.unit = e.unit;
        out.kind = e.kind;
        out.value = e.counter.value.load(std::memory_order_relaxed);
        out.gaugeValue = e.gauge.value.load(std::memory_order_relaxed);
        out.gaugeHigh = e.gauge.high.load(std::memory_order_relaxed);
        out.edges = e.histogram.edges;
        out.counts = e.histogram.counts;
        out.histCount = e.histogram.count;
        out.histSum = e.histogram.sum;
        snap.entries.push_back(std::move(out));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    MutexLock lock(mu_);
    for (Entry &e : entries_) {
        e.counter.value.store(0, std::memory_order_relaxed);
        e.gauge.value.store(0.0, std::memory_order_relaxed);
        e.gauge.high.store(0.0, std::memory_order_relaxed);
        e.gauge.everSet.store(false, std::memory_order_relaxed);
        std::fill(e.histogram.counts.begin(), e.histogram.counts.end(),
                  std::uint64_t(0));
        e.histogram.count = 0;
        e.histogram.sum = 0.0;
    }
}

std::string
MetricsRegistry::describe(const std::string &name) const
{
    MutexLock lock(mu_);
    auto it = index_.find(name);
    return it == index_.end() ? std::string() : entries_[it->second].desc;
}

const MetricsSnapshot::Entry *
MetricsSnapshot::find(const std::string &name) const
{
    for (const Entry &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != MetricKind::Counter)
        ENVY_FATAL("obs: snapshot has no counter '", name, "'");
    return e->value;
}

double
MetricsSnapshot::gauge(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != MetricKind::Gauge)
        ENVY_FATAL("obs: snapshot has no gauge '", name, "'");
    return e->gaugeValue;
}

double
MetricsSnapshot::gaugeHigh(const std::string &name) const
{
    const Entry *e = find(name);
    if (!e || e->kind != MetricKind::Gauge)
        ENVY_FATAL("obs: snapshot has no gauge '", name, "'");
    return e->gaugeHigh;
}

std::uint64_t
MetricsSnapshot::counterDelta(const MetricsSnapshot &earlier,
                              const std::string &name) const
{
    std::uint64_t now = counter(name);
    const Entry *before = earlier.find(name);
    std::uint64_t then = before ? before->value : 0;
    if (now < then) {
        ENVY_FATAL("obs: counter '", name, "' went backwards (", then,
                   " -> ", now, ") across snapshots");
    }
    return now - then;
}

namespace {

// %.17g round-trips doubles; trim to something readable but exact.
std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const Entry &e : entries) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"kind\":\""
           << metricKindName(e.kind) << "\",\"unit\":\""
           << jsonEscape(e.unit) << "\"";
        switch (e.kind) {
          case MetricKind::Counter:
            os << ",\"value\":" << e.value;
            break;
          case MetricKind::Gauge:
            os << ",\"value\":" << jsonNumber(e.gaugeValue)
               << ",\"high\":" << jsonNumber(e.gaugeHigh);
            break;
          case MetricKind::Histogram:
            os << ",\"edges\":[";
            for (std::size_t i = 0; i < e.edges.size(); i++)
                os << (i ? "," : "") << e.edges[i];
            os << "],\"counts\":[";
            for (std::size_t i = 0; i < e.counts.size(); i++)
                os << (i ? "," : "") << e.counts[i];
            os << "],\"count\":" << e.histCount
               << ",\"sum\":" << jsonNumber(e.histSum);
            break;
        }
        os << "}";
    }
    os << "]";
    return os.str();
}

Counter
counterOf(MetricsRegistry *reg, const std::string &name,
          const std::string &unit, const std::string &desc)
{
    return reg ? reg->counter(name, unit, desc) : Counter();
}

Gauge
gaugeOf(MetricsRegistry *reg, const std::string &name,
        const std::string &unit, const std::string &desc)
{
    return reg ? reg->gauge(name, unit, desc) : Gauge();
}

Histogram
histogramOf(MetricsRegistry *reg, const std::string &name,
            const std::string &unit, const std::string &desc,
            std::vector<std::uint64_t> edges)
{
    return reg ? reg->histogram(name, unit, desc, std::move(edges))
               : Histogram();
}

MetricsRegistry &
registryOr(MetricsRegistry *reg, std::unique_ptr<MetricsRegistry> &own)
{
    if (reg)
        return *reg;
    if (!own)
        own = std::make_unique<MetricsRegistry>();
    return *own;
}

} // namespace obs
} // namespace envy
