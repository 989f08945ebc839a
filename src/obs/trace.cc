#include "obs/trace.hh"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "obs/json_util.hh"

namespace envy {
namespace obs {

std::uint64_t
StoredTraceEvent::num(const std::string &key) const
{
    for (const Field &f : fields) {
        if (f.key == key) {
            if (f.isString) {
                ENVY_FATAL("obs: trace field '", key, "' of event '", name,
                           "' is a string, not a number");
            }
            return f.value;
        }
    }
    ENVY_FATAL("obs: event '", name, "' has no field '", key, "'");
}

const std::string &
StoredTraceEvent::text(const std::string &key) const
{
    for (const Field &f : fields) {
        if (f.key == key) {
            if (!f.isString) {
                ENVY_FATAL("obs: trace field '", key, "' of event '", name,
                           "' is numeric, not a string");
            }
            return f.str;
        }
    }
    ENVY_FATAL("obs: event '", name, "' has no field '", key, "'");
}

bool
StoredTraceEvent::has(const std::string &key) const
{
    for (const Field &f : fields) {
        if (f.key == key)
            return true;
    }
    return false;
}

namespace {

StoredTraceEvent
store(const TraceEvent &event)
{
    StoredTraceEvent out;
    out.name = event.name;
    out.seq = event.seq;
    out.fields.reserve(event.numFields);
    for (std::size_t i = 0; i < event.numFields; i++) {
        const TraceField &f = event.fields[i];
        StoredTraceEvent::Field sf;
        sf.key = f.key;
        if (f.str) {
            sf.isString = true;
            sf.str = f.str;
        } else {
            sf.value = f.value;
        }
        out.fields.push_back(std::move(sf));
    }
    return out;
}

} // namespace

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        ENVY_FATAL("obs: RingBufferSink capacity must be > 0");
}

void
RingBufferSink::emit(const TraceEvent &event)
{
    if (ring_.size() == capacity_)
        ring_.pop_front();
    ring_.push_back(store(event));
}

std::vector<StoredTraceEvent>
RingBufferSink::events() const
{
    return std::vector<StoredTraceEvent>(ring_.begin(), ring_.end());
}

void
RingBufferSink::clear()
{
    ring_.clear();
}

JsonlFileSink::JsonlFileSink(const std::string &path) : out_(path)
{
    if (!out_)
        ENVY_FATAL("obs: cannot open trace file '", path, "' for writing");
}

JsonlFileSink::~JsonlFileSink() = default;

void
JsonlFileSink::emit(const TraceEvent &event)
{
    std::ostringstream line;
    line << "{\"seq\":" << event.seq << ",\"event\":\""
         << jsonEscape(event.name) << "\"";
    for (std::size_t i = 0; i < event.numFields; i++) {
        const TraceField &f = event.fields[i];
        line << ",\"" << jsonEscape(f.key) << "\":";
        if (f.str)
            line << "\"" << jsonEscape(f.str) << "\"";
        else
            line << f.value;
    }
    line << "}";
    out_ << line.str() << "\n";
}

void
JsonlFileSink::flush()
{
    out_.flush();
}

namespace trace {

namespace detail {
constinit thread_local TraceSink *sink = nullptr;

void
emitSlow(const char *name, const TraceField *fields, std::size_t numFields)
{
    ENVY_ASSERT(numFields <= TraceEvent::kMaxFields,
                "obs: event '", name, "' has too many fields");
    TraceEvent event;
    event.name = name;
    event.seq = sink->nextSeq();
    event.numFields = numFields;
    for (std::size_t i = 0; i < numFields; i++)
        event.fields[i] = fields[i];
    sink->emit(event);
}
} // namespace detail

namespace {

/** Guards the registry: events register lazily from worker threads. */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::vector<std::string> &
registry()
{
    static std::vector<std::string> events = [] {
        // Canonical inventory of the trace events threaded through
        // the system — the event catalog of docs/OBSERVABILITY.md.
        // envy-analyze's trace-event-registered rule checks every
        // ENVY_TRACE call site against this list, so adding an event
        // means adding it here (and to the docs) first.
        return std::vector<std::string>{
            "ctl.cow",            // copy-on-write fault absorbed
            "ctl.flush",          // one buffer page flushed to flash
            "ctl.backpressure",   // producer waited for buffer room
            "cleaner.clean.start", // victim chosen, clean beginning
            "cleaner.clean.end",  // clean committed
            "wear.rotate",        // wear-leveling rotation finished
            "flash.erase",        // a segment erase completed
            "recovery.done",      // Recovery::run finished
            "persist.reopen",     // persistent store replayed on open
            "persist.checkpoint", // journal compacted to a checkpoint
            "persist.group_commit", // one group-commit epoch completed
            "fault.power_loss",   // injector cut power at a point
            "fault.program_fail", // injected program spec-failure
            "fault.erase_fail",   // injected transient erase failure
            "serve.request",      // one request executed
            "serve.batch",        // a Batch request's sub-ops ran
            "serve.shed",         // request refused by admission
            "serve.queue",        // request admitted under pressure
            "serve.protocol_error", // malformed request payload
            "serve.frame_error",  // malformed frame, conn torn down
            "serve.commit_batch", // durable-ack batch shared one flush
        };
    }();
    return events;
}

} // namespace

const char *
registerEvent(const char *name)
{
    const std::lock_guard<std::mutex> lock(registryMutex());
    auto &events = registry();
    if (std::find(events.begin(), events.end(), name) == events.end())
        events.emplace_back(name);
    return name;
}

std::vector<std::string>
allEvents()
{
    std::vector<std::string> events;
    {
        const std::lock_guard<std::mutex> lock(registryMutex());
        events = registry();
    }
    std::sort(events.begin(), events.end());
    return events;
}

TraceSink *
setTraceSink(TraceSink *sink)
{
    TraceSink *old = detail::sink;
    detail::sink = sink;
    return old;
}

TraceSink *
currentTraceSink()
{
    return detail::sink;
}

} // namespace trace
} // namespace obs
} // namespace envy
