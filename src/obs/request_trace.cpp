#include "obs/request_trace.hpp"

#include <atomic>
#include <mutex>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dcs::obs {

namespace {

std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_batch_id{1};
std::atomic<double> g_threshold_us{0.0};

struct ExemplarRing {
  std::mutex mutex;
  std::vector<RequestExemplar> slots;
  std::size_t capacity = 256;
  std::size_t next = 0;      ///< ring cursor
  std::uint64_t total = 0;   ///< exemplars ever kept
};

ExemplarRing& ring() {
  static ExemplarRing* r = new ExemplarRing;
  return *r;
}

// Expands a kept exemplar into its span chain on the live trace stream. The
// root span covers the whole request; phase spans nest at depth+1 and all
// carry the request's trace id. Zero-length phases are skipped so distance
// queries don't emit empty row_fill spans.
void export_span_chain(const RequestExemplar& e) {
  const std::uint32_t tid = Trace::thread_id();
  Trace::record({"req", e.start_us, e.total_us, tid, 0, e.trace_id});
  double at = e.start_us;
  struct Phase {
    const char* name;
    double dur;
  };
  const Phase phases[] = {{"req.queue_wait", e.queue_us},
                          {"req.dispatch", e.dispatch_us},
                          {"req.execute", e.execute_us},
                          {"req.row_fill", e.row_fill_us}};
  for (const Phase& p : phases) {
    if (p.dur > 0.0) Trace::record({p.name, at, p.dur, tid, 1, e.trace_id});
    at += p.dur;
  }
}

}  // namespace

RequestTracer& RequestTracer::instance() {
  static RequestTracer* tracer = new RequestTracer;
  return *tracer;
}

void RequestTracer::configure(double threshold_us, std::size_t capacity) {
  DCS_REQUIRE(threshold_us >= 0.0, "exemplar threshold must be >= 0");
  DCS_REQUIRE(capacity > 0, "exemplar capacity must be positive");
  g_threshold_us.store(threshold_us, std::memory_order_relaxed);
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  r.slots.clear();
  r.capacity = capacity;
  r.next = 0;
  r.total = 0;
}

double RequestTracer::threshold_us() const {
  return g_threshold_us.load(std::memory_order_relaxed);
}

std::size_t RequestTracer::capacity() const {
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  return r.capacity;
}

std::uint64_t RequestTracer::next_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t RequestTracer::next_batch_id() {
  return g_next_batch_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t RequestTracer::next_trace_id_block(std::uint64_t n) {
  DCS_REQUIRE(n > 0, "trace id block must be non-empty");
  return g_next_trace_id.fetch_add(n, std::memory_order_relaxed);
}

void RequestTracer::offer(const RequestExemplar& exemplar) {
  if (exemplar.total_us < g_threshold_us.load(std::memory_order_relaxed))
    return;
  if (Trace::active()) export_span_chain(exemplar);
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  if (r.slots.size() < r.capacity) {
    r.slots.push_back(exemplar);
  } else {
    r.slots[r.next] = exemplar;
    r.next = (r.next + 1) % r.capacity;
  }
  ++r.total;
}

void RequestTracer::offer_batch(const std::vector<RequestExemplar>& batch) {
  const double threshold = g_threshold_us.load(std::memory_order_relaxed);
  const bool tracing = Trace::active();
  ExemplarRing& r = ring();
  std::unique_lock<std::mutex> lock;  // taken on the first kept exemplar
  for (const RequestExemplar& e : batch) {
    if (e.total_us < threshold) continue;
    if (tracing) export_span_chain(e);
    if (!lock.owns_lock()) lock = std::unique_lock(r.mutex);
    if (r.slots.size() < r.capacity) {
      r.slots.push_back(e);
    } else {
      r.slots[r.next] = e;
      r.next = (r.next + 1) % r.capacity;
    }
    ++r.total;
  }
}

std::vector<RequestExemplar> RequestTracer::exemplars() const {
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  std::vector<RequestExemplar> out;
  out.reserve(r.slots.size());
  // `next` points at the oldest slot once the ring has wrapped.
  const std::size_t n = r.slots.size();
  const std::size_t start = n == r.capacity ? r.next : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(r.slots[(start + i) % n]);
  return out;
}

std::size_t RequestTracer::size() const {
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  return r.slots.size();
}

std::string RequestTracer::to_json() const {
  const std::vector<RequestExemplar> kept = exemplars();
  std::ostringstream os;
  os << "{\"threshold_us\":" << json_number(threshold_us())
     << ",\"exemplars\":[";
  bool first = true;
  for (const RequestExemplar& e : kept) {
    if (!first) os << ',';
    first = false;
    os << "{\"trace_id\":" << e.trace_id << ",\"batch_id\":" << e.batch_id
       << ",\"epoch\":" << e.epoch << ",\"kind\":" << e.kind
       << ",\"outcome\":" << e.outcome
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false")
       << ",\"start_us\":" << json_number(e.start_us)
       << ",\"queue_us\":" << json_number(e.queue_us)
       << ",\"dispatch_us\":" << json_number(e.dispatch_us)
       << ",\"execute_us\":" << json_number(e.execute_us)
       << ",\"row_fill_us\":" << json_number(e.row_fill_us)
       << ",\"total_us\":" << json_number(e.total_us) << '}';
  }
  os << "]}";
  return os.str();
}

void RequestTracer::clear() {
  ExemplarRing& r = ring();
  std::lock_guard lock(r.mutex);
  r.slots.clear();
  r.next = 0;
  r.total = 0;
}

}  // namespace dcs::obs
