/**
 * @file
 * Named crash points: the hooks the fault-injection subsystem uses to
 * cut execution at precisely-defined instants.
 *
 * The paper's central durability claim (§3.2–§3.4) is that eNVy
 * survives power failure at *any* instant because the battery-backed
 * SRAM page table is the single commit point.  To test that claim
 * systematically rather than at a few hand-picked spots, every
 * interesting ordering boundary in the controller, cleaner, wear
 * leveler and transaction manager is marked with
 *
 *     ENVY_CRASH_POINT("ctl.flush.after_program");
 *
 * In normal operation a crash point is one predicate check (no sink
 * installed — nothing happens).  A test or the CrashPointExplorer
 * installs a CrashSink; the sink sees every hit and may throw
 * PowerLoss to model the machine dying right there.  The exception
 * unwinds to the harness, which then runs Recovery::run against
 * whatever durable state (flash + battery-backed SRAM) was left
 * behind — exactly what a real power failure would present.
 *
 * Points register themselves on first execution; in addition the
 * canonical inventory (crash_point.cc) is pre-registered at startup
 * so allPoints() lists every point compiled into the system, not
 * only the ones a particular workload happens to reach.
 *
 * Each simulated controller is single-threaded, like the paper's,
 * but the experiment harness runs many isolated systems on worker
 * threads (src/envysim/parallel.hh).  The sink is therefore
 * thread-local — a FaultInjector armed on one worker only sees the
 * crash points its own System hits — and the name registry, the one
 * piece of genuinely shared state, takes a mutex.
 *
 * The concurrent store inverts that shape: ONE system, MANY threads
 * (host workers, the cleaner pool, the commit pipeline's epoch
 * thread), all of whose crash points belong to the same experiment.
 * For that case a process-wide fallback sink (setGlobalSink) sees
 * hits from every thread that has no thread-local sink installed.
 * The thread-local sink, when present, still wins — a worker running
 * an isolated System keeps its isolation even if a global sink is
 * armed elsewhere in the process.
 */

#ifndef ENVY_FAULTS_CRASH_POINT_HH
#define ENVY_FAULTS_CRASH_POINT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace envy {

/** Thrown by a sink to model power dying at a crash point. */
struct PowerLoss
{
    const char *point;         //!< crash point that fired
    std::uint64_t occurrence;  //!< 1-based hit count at the throw
};

/** Receives every crash-point hit while installed. */
class CrashSink
{
  public:
    virtual ~CrashSink() = default;
    /** May throw PowerLoss to cut execution here. */
    virtual void onCrashPoint(const char *name) = 0;
};

namespace crash_points {

/** Add @p name to the global registry (idempotent); returns name. */
const char *registerPoint(const char *name);

/** All registered point names, sorted. */
std::vector<std::string> allPoints();

/**
 * Install @p sink for the calling thread (nullptr to clear).
 * Returns the previous sink.  Sinks on other threads are unaffected.
 */
CrashSink *setSink(CrashSink *sink);

CrashSink *currentSink();

/**
 * Install @p sink for EVERY thread that has no thread-local sink
 * (nullptr to clear).  Returns the previous global sink.  The sink
 * must be thread-safe: the concurrent store hits points from host
 * workers, cleaners and the commit pipeline simultaneously.
 */
CrashSink *setGlobalSink(CrashSink *sink);

namespace detail {
extern constinit thread_local CrashSink *sink; // one sink per worker thread
extern std::atomic<CrashSink *> globalSink; // process-wide fallback

struct Registrar
{
    explicit Registrar(const char *name) { registerPoint(name); }
};
} // namespace detail

inline void
hit(const char *name)
{
    if (detail::sink) {
        detail::sink->onCrashPoint(name);
        return;
    }
    if (CrashSink *g =
            detail::globalSink.load(std::memory_order_acquire))
        g->onCrashPoint(name);
}

} // namespace crash_points
} // namespace envy

/**
 * Mark a crash point.  Use only at statement scope inside a function;
 * `name` must be a string literal, unique per point, dotted
 * `component.operation.moment` style.
 */
#define ENVY_CRASH_POINT(name)                                         \
    do {                                                               \
        static ::envy::crash_points::detail::Registrar                 \
            envyCrashPointReg_{name};                                  \
        ::envy::crash_points::hit(name);                               \
    } while (0)

#endif // ENVY_FAULTS_CRASH_POINT_HH
