/**
 * @file
 * The metrics registry: always-on, typed, snapshot-on-demand counters
 * for every core component.
 *
 * The paper validates eNVy almost entirely through internal counters —
 * cleaning cost per flush (Fig 6), policy comparisons (Fig 8),
 * utilization and latency curves (Figs 14-15).  This registry makes
 * those counters first-class: each component registers its metrics
 * once at construction and bumps them on the hot path through a
 * handle that is a single pointer indirection (no lookup, no
 * allocation, no lock).  Counter and gauge cells are relaxed atomics
 * so concurrent workers and cleaners (PR 8) can bump them without
 * lost updates; histograms are only recorded under exclusive locks.
 *
 * Three metric kinds:
 *
 *  - Counter:   monotonically increasing event count (u64);
 *  - Gauge:     last-set level plus its high-water mark (double, so
 *               derived figures like cleaning cost fit too);
 *  - Histogram: fixed bucket edges chosen at registration; bucket i
 *               counts samples in (edges[i-1], edges[i]], the last
 *               bucket is the overflow.  Recording is a small binary
 *               search over the edges — no allocation.
 *
 * Registration is idempotent: asking twice for the same name returns
 * a handle to the same cell (recovery re-registers its counters on
 * every run), and asking with a different kind or unit is fatal.
 * Handles are null-safe: a component built without a registry (unit
 * tests, bare harnesses) gets no-op handles and pays one branch.
 * Components whose counts something reads back register through
 * registryOr() instead and count into a private registry.
 *
 * snapshot() returns a deep copy — MetricsSnapshot — that later
 * mutations do not touch.  Snapshots serialise to the JSON `metrics`
 * block of the envy-bench-v2 schema (docs/OBSERVABILITY.md) and
 * support windowed deltas (counterDelta) for measured-interval
 * figures.
 */

#ifndef ENVY_OBS_METRICS_HH
#define ENVY_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"

namespace envy {
namespace obs {

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

const char *metricKindName(MetricKind kind);

namespace detail {

// Counter and gauge cells are relaxed atomics so worker and cleaner
// threads can bump them concurrently with no lost updates (PR 8).
// Snapshots read them relaxed too: consumers only look at snapshots
// taken at quiesce points, so no ordering is implied or needed.
struct CounterCell
{
    std::atomic<std::uint64_t> value{0};
};

struct GaugeCell
{
    std::atomic<double> value{0.0};
    std::atomic<double> high{0.0};
    std::atomic<bool> everSet{false};
};

// Histogram cells stay plain: every record() site runs under an
// exclusive lock (flush/clean paths hold the structural lock), and
// snapshots are only taken at quiesce points.
struct HistogramCell
{
    std::vector<std::uint64_t> edges; //!< ascending, fixed at creation
    std::vector<std::uint64_t> counts; //!< edges.size() + 1 buckets
    std::uint64_t count = 0;
    double sum = 0.0;
};

} // namespace detail

/** Null-safe counter handle: add() on a default handle is a no-op. */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n = 1)
    {
        if (cell_)
            cell_->value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return cell_ ? cell_->value.load(std::memory_order_relaxed) : 0;
    }

  private:
    friend class MetricsRegistry;
    explicit Counter(detail::CounterCell *cell) : cell_(cell) {}
    detail::CounterCell *cell_ = nullptr;
};

/** Null-safe gauge handle; set() also maintains the high-water mark. */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v)
    {
        if (!cell_)
            return;
        cell_->value.store(v, std::memory_order_relaxed);
        // High-water: seed from the 0.0 default exactly once (so a
        // negative first sample still lands), then CAS-max.
        if (!cell_->everSet.exchange(true, std::memory_order_relaxed)) {
            double expected = 0.0;
            cell_->high.compare_exchange_strong(expected, v,
                                                std::memory_order_relaxed);
        }
        double high = cell_->high.load(std::memory_order_relaxed);
        while (v > high &&
               !cell_->high.compare_exchange_weak(
                   high, v, std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return cell_ ? cell_->value.load(std::memory_order_relaxed) : 0.0;
    }
    double
    high() const
    {
        return cell_ ? cell_->high.load(std::memory_order_relaxed) : 0.0;
    }

  private:
    friend class MetricsRegistry;
    explicit Gauge(detail::GaugeCell *cell) : cell_(cell) {}
    detail::GaugeCell *cell_ = nullptr;
};

/** Null-safe fixed-bucket histogram handle. */
class Histogram
{
  public:
    Histogram() = default;

    void record(std::uint64_t v);

    std::uint64_t count() const { return cell_ ? cell_->count : 0; }
    double sum() const { return cell_ ? cell_->sum : 0.0; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(detail::HistogramCell *cell) : cell_(cell) {}
    detail::HistogramCell *cell_ = nullptr;
};

/** Deep copy of a registry at one instant (see snapshot()). */
struct MetricsSnapshot
{
    struct Entry
    {
        std::string name;
        std::string unit;
        MetricKind kind = MetricKind::Counter;

        // Counter.
        std::uint64_t value = 0;
        // Gauge.
        double gaugeValue = 0.0;
        double gaugeHigh = 0.0;
        // Histogram.
        std::vector<std::uint64_t> edges;
        std::vector<std::uint64_t> counts;
        std::uint64_t histCount = 0;
        double histSum = 0.0;
    };

    std::vector<Entry> entries; //!< in registration order

    /** Entry by name, nullptr when absent. */
    const Entry *find(const std::string &name) const;

    /** Counter value by name; fatal when absent or not a counter. */
    std::uint64_t counter(const std::string &name) const;

    /** Gauge value by name; fatal when absent or not a gauge. */
    double gauge(const std::string &name) const;

    /** Gauge high-water by name; fatal when absent / not a gauge. */
    double gaugeHigh(const std::string &name) const;

    /**
     * counter(name) - earlier.counter(name): the measured-window
     * delta the figure tables are built from.
     */
    std::uint64_t counterDelta(const MetricsSnapshot &earlier,
                               const std::string &name) const;

    /**
     * The snapshot as one JSON array of entry objects, each
     * {"name", "kind", "unit", ...kind-specific fields} — the
     * `entries` value of an envy-bench-v2 metrics block.
     */
    std::string toJson() const;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register (or re-find) a metric.  Idempotent per name; a kind or
     * unit mismatch against the existing registration is fatal.
     * Names are dotted `component.metric` style, lowercase.
     */
    Counter counter(const std::string &name, const std::string &unit,
                    const std::string &desc);
    Gauge gauge(const std::string &name, const std::string &unit,
                const std::string &desc);
    /** @p edges must be non-empty and strictly ascending. */
    Histogram histogram(const std::string &name,
                        const std::string &unit,
                        const std::string &desc,
                        std::vector<std::uint64_t> edges);

    /** Number of registered metrics. */
    std::size_t size() const
    {
        MutexLock lock(mu_);
        return entries_.size();
    }

    /** Deep, isolated copy of every metric right now. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric (measurement windows); keeps registrations. */
    void reset();

    /** Description of a registered metric ("" when absent). */
    std::string describe(const std::string &name) const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        std::string desc;
        MetricKind kind;
        detail::CounterCell counter;
        detail::GaugeCell gauge;
        detail::HistogramCell histogram;
    };

    Entry &findOrCreate(const std::string &name, MetricKind kind,
                        const std::string &unit,
                        const std::string &desc) ENVY_REQUIRES(mu_);

    // Guards registration and snapshot/reset.  The hot-path cell
    // handles (Counter/Gauge/Histogram) deliberately stay outside it:
    // a store and its registry belong to one simulated controller
    // (see file comment), and deque addresses are stable, so bumping
    // a cell never races with registration of another.
    mutable Mutex mu_;

    // deque: handles point into entries, so addresses must be stable.
    std::deque<Entry> entries_ ENVY_GUARDED_BY(mu_);
    std::map<std::string, std::size_t> index_ ENVY_GUARDED_BY(mu_);
};

/** Null-safe registration helpers for components whose registry
 *  pointer may be null (unit tests, bare harnesses). */
Counter counterOf(MetricsRegistry *reg, const std::string &name,
                  const std::string &unit, const std::string &desc);
Gauge gaugeOf(MetricsRegistry *reg, const std::string &name,
              const std::string &unit, const std::string &desc);
Histogram histogramOf(MetricsRegistry *reg, const std::string &name,
                      const std::string &unit, const std::string &desc,
                      std::vector<std::uint64_t> edges);

/**
 * @p reg, or a private registry created in @p own when @p reg is
 * null.  Components whose counts drive behaviour or a figure (the
 * cleaner's cost, wear rotations, flash and buffer traffic) register
 * through this, so a component built bare still counts instead of
 * silently reading 0.
 */
MetricsRegistry &registryOr(MetricsRegistry *reg,
                            std::unique_ptr<MetricsRegistry> &own);

} // namespace obs
} // namespace envy

#endif // ENVY_OBS_METRICS_HH
