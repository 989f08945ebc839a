/**
 * @file
 * Structured event tracing: typed events from fixed call sites, fed
 * to a pluggable per-thread sink, compiled out entirely when timing
 * is being measured.
 *
 * The observability layer's second half (metrics.hh is the first):
 * where metrics answer "how many, over the run", a trace answers
 * "what happened, in order" — each flush, each clean with its victim
 * and utilization, each wear rotation, each injected fault, as one
 * typed event.  tools/obs/summarize_trace.py folds a JSONL trace
 * back into the paper's Fig 6-style cleaning-cost table, which is
 * also the cross-check that the stream and the counters agree.
 *
 * Design rules, in the image of ENVY_CRASH_POINT (faults/crash_point.hh):
 *
 *  - Call sites use `ENVY_TRACE("cleaner.clean.start", tv("live", n))`.
 *    Event names are string literals, dotted, unique per call site,
 *    and pre-registered in the canonical inventory (trace.cc) —
 *    enforced by envy-analyze's trace-event rules.
 *  - The sink is thread-local: each worker of the parallel experiment
 *    engine traces only its own simulated system.  Installing is one
 *    pointer write; with no sink installed a trace site is a single
 *    predicate check and evaluates none of its field expressions.
 *  - Events carry at most kMaxFields typed fields, each a
 *    (key, u64 | string) pair built by tv() — no allocation on the
 *    emit path for numeric fields; the ring sink stores events by
 *    value.
 *  - Configuring with -DENVY_TRACE=OFF defines ENVY_OBS_NO_TRACE and
 *    the macro compiles to nothing, so `--jobs N` timing is
 *    unaffected; sinks still link (tests build against them).
 *
 * Two sinks ship: RingBufferSink (last-N events in memory, for tests
 * and post-mortem dumps) and JsonlFileSink (one JSON object per line,
 * for summarize_trace.py).
 */

#ifndef ENVY_OBS_TRACE_HH
#define ENVY_OBS_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

namespace envy {
namespace obs {

/** One typed field of a trace event: numeric or string payload. */
struct TraceField
{
    const char *key = nullptr;
    std::uint64_t value = 0;
    /**
     * String payload; when set, `value` is ignored.  Points at the
     * caller's storage and is only valid during emit() — sinks that
     * keep events (the ring) copy it into `strings`.
     */
    const char *str = nullptr;
};

inline TraceField
tv(const char *key, bool value)
{
    return TraceField{key, value ? 1u : 0u, nullptr};
}

template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
inline TraceField
tv(const char *key, T value)
{
    return TraceField{key, static_cast<std::uint64_t>(value), nullptr};
}

inline TraceField
tv(const char *key, const char *value)
{
    return TraceField{key, 0, value};
}

/** A trace event as sinks receive it: name + up to kMaxFields. */
struct TraceEvent
{
    static constexpr std::size_t kMaxFields = 8;

    const char *name = nullptr;
    std::uint64_t seq = 0; //!< per-sink sequence number, from 1 (==
                           //!< the sink's totalEvents() after emit)
    std::size_t numFields = 0;
    std::array<TraceField, kMaxFields> fields{};
};

/** A retained copy of an event (string fields copied), for the ring. */
struct StoredTraceEvent
{
    std::string name;
    std::uint64_t seq = 0;
    struct Field
    {
        std::string key;
        std::uint64_t value = 0;
        bool isString = false;
        std::string str;
    };
    std::vector<Field> fields;

    /** Numeric field by key; fatal when absent or a string field. */
    std::uint64_t num(const std::string &key) const;
    /** String field by key; fatal when absent or numeric. */
    const std::string &text(const std::string &key) const;
    /** True when a field with @p key exists. */
    bool has(const std::string &key) const;
};

/** Receives every ENVY_TRACE hit while installed on this thread. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const TraceEvent &event) = 0;

    /** Events ever emitted into this sink. */
    std::uint64_t totalEvents() const { return seq_; }

    /** Emit path only: assign the next per-sink sequence number. */
    std::uint64_t nextSeq() { return ++seq_; }

  private:
    std::uint64_t seq_ = 0;
};

/** Keeps the most recent `capacity` events, by value. */
class RingBufferSink : public TraceSink
{
  public:
    explicit RingBufferSink(std::size_t capacity);

    void emit(const TraceEvent &event) override;

    /** Events currently retained, oldest first. */
    std::vector<StoredTraceEvent> events() const;

    std::size_t capacity() const { return capacity_; }

    /** Drop retained events (totalEvents() stays cumulative). */
    void clear();

  private:
    std::size_t capacity_;
    std::deque<StoredTraceEvent> ring_;
};

/**
 * Writes one flat JSON object per event per line:
 * {"seq":N,"event":"name","k1":v1,...}.  String fields are escaped
 * via obs::jsonEscape.  Fatal if the file cannot be opened.
 */
class JsonlFileSink : public TraceSink
{
  public:
    explicit JsonlFileSink(const std::string &path);
    ~JsonlFileSink() override;

    void emit(const TraceEvent &event) override;

    /** Flush buffered lines to the file. */
    void flush();

  private:
    std::ofstream out_;
};

namespace trace {

/** Add @p name to the global event-name registry (idempotent). */
const char *registerEvent(const char *name);

/** All registered event names, sorted. */
std::vector<std::string> allEvents();

/**
 * Install @p sink for the calling thread (nullptr to clear).
 * Returns the previous sink.  Sinks on other threads are unaffected.
 */
TraceSink *setTraceSink(TraceSink *sink);

TraceSink *currentTraceSink();

/** RAII: install a sink for a scope, restore the previous on exit. */
class ScopedTraceSink
{
  public:
    explicit ScopedTraceSink(TraceSink *sink) : prev_(setTraceSink(sink)) {}
    ~ScopedTraceSink() { setTraceSink(prev_); }

    ScopedTraceSink(const ScopedTraceSink &) = delete;
    ScopedTraceSink &operator=(const ScopedTraceSink &) = delete;

  private:
    TraceSink *prev_;
};

namespace detail {
extern constinit thread_local TraceSink *sink; // one sink per worker thread

struct Registrar
{
    explicit Registrar(const char *name) { registerEvent(name); }
};

void emitSlow(const char *name, const TraceField *fields,
              std::size_t numFields);
} // namespace detail

template <typename... Fields>
inline void
hit(const char *name, const Fields &...fields)
{
    if (detail::sink) {
        const TraceField arr[] = {fields...};
        detail::emitSlow(name, arr, sizeof...(fields));
    }
}

inline void
hit(const char *name)
{
    if (detail::sink)
        detail::emitSlow(name, nullptr, 0);
}

} // namespace trace
} // namespace obs
} // namespace envy

/**
 * Emit a structured trace event.  Use only at statement scope;
 * `name` must be a string literal, unique per call site, dotted
 * `component.operation[.moment]` style, registered in the canonical
 * inventory (obs/trace.cc).  Field expressions are NOT evaluated
 * when no sink is installed, and the whole statement compiles away
 * under -DENVY_TRACE=OFF.
 */
#ifdef ENVY_OBS_NO_TRACE
#define ENVY_TRACE(name, ...) \
    do {                      \
    } while (0)
#else
#define ENVY_TRACE(name, ...)                                          \
    do {                                                               \
        static ::envy::obs::trace::detail::Registrar                   \
            envyTraceEventReg_{name};                                  \
        if (::envy::obs::trace::detail::sink) {                        \
            ::envy::obs::trace::hit(name __VA_OPT__(, ) __VA_ARGS__);  \
        }                                                              \
    } while (0)
#endif

#endif // ENVY_OBS_TRACE_HH
