// Pieces shared by the end-to-end and traced runs: the pinned serving
// configuration, the serving process, the sequential reference, the host
// fingerprint and the metric report.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client.hpp"
#include "serve/types.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace servebench {

// Pinned and recorded in every result's fingerprint. Busy threads stay
// within the 4 vCPUs of the reference host: the client's generator thread,
// the server's event loop and two HTTP workers. The kernel pool is a single
// lane, so every kernel runs inline on the thread that calls it; on a
// shared host a multi-lane pool waits at each kernel's barrier for its
// slowest lane, which turned any one vCPU's contention into a slowdown of
// every request and widened run-to-run spread two- to threefold.
inline constexpr int kHttpWorkers = 2;
inline constexpr int kPoolThreads = 1;
inline constexpr int kConnections = 4;  // client keep-alive connections
// Caller threads of the sequential reference (not timed).
inline constexpr int kReferenceThreads = 4;
// Admission bound of the HTTP service: a request past four in flight is
// shed (429) instead of queueing behind the workers. The client never has
// more than kConnections requests in flight, so under this client nothing
// is shed: overload queues on the client side and shows in latency and
// goodput, not in serve.shed_share.
inline constexpr int kQueueCapacity = 4;
inline constexpr int kHttpMaxBatch = 8;  // scheduler cap (unused by HTTP)
// batch-eval: requests per suggest_batch call and the in-flight cap.
inline constexpr int kBatchRequests = 64;
inline constexpr int kBatchInFlight = 16;
// Serving-process starts per run; setup_s is their median. One start takes
// about 20 ms on a 4-vCPU host and single starts range over +-20%; the
// median of 41 moves far less between runs than the median of 5 did.
inline constexpr int kSetupRepeats = 41;
// goodput_rps counts a peak-phase response only within both limits. On a
// 4-vCPU host the peak phase's p99s are about 15-25 ms (TTFT a few ms
// less) and reach about 60 ms while the host runs at half speed, so a
// healthy service meets both limits; a service that can no longer carry
// the peak rate builds a client-side backlog whose latencies grow past
// them within a second, and goodput falls.
inline constexpr double kGoodTtftMs = 50.0;
inline constexpr double kGoodLatencyMs = 100.0;
// An open-loop run whose generator noticed due requests later than this
// (p99, either phase) fell behind its schedule and is invalid. Lateness is
// already charged to latency (requests are timed from when they were due);
// the bound flags a generator that no longer offers the scheduled load,
// well above the few milliseconds host stalls cause.
inline constexpr double kMaxLagP99Ms = 50.0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string checkpoint;
  std::string exe;  // this binary, re-executed as the serving process
};

// The serving process: `servebench serve` (net::HttpServer over
// serve::InferenceService) on an ephemeral loopback port.
class ServerProcess {
 public:
  // Starts the process and waits for the first 200 response to a warm-up
  // request; nullptr (with *error) when it does not come up.
  static std::unique_ptr<ServerProcess> start(const RunOptions& options,
                                              std::string* error);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  // Process start until the first 200 to the warm-up request.
  double setup_s() const { return setup_s_; }
  // Peak resident set (VmHWM) so far.
  double rss_peak_mb() const;
  // SIGTERM, then SIGKILL after a grace period; waits for the exit.
  void stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
};

// Starts the serving process kSetupRepeats times and reports the median
// setup time. Returns the last process still running when `keep_last`.
std::unique_ptr<ServerProcess> measure_setup(const RunOptions& options,
                                             bool keep_last, Summary* setup,
                                             std::string* error);

// One open-loop HTTP run of a workload: the nominal phase, then the peak
// phase, against a freshly started serving process.
struct HttpRun {
  Summary setup;
  std::vector<Outcome> outcomes;  // aligned with Workload::arrivals
  std::string metrics_before, metrics_after;  // /v1/metrics scrapes
  double rss_mb = 0;
};
bool drive_http(const RunOptions& options, const Workload& workload,
                HttpRun* run, std::string* error);

// `servebench serve`: runs the serving process until SIGTERM.
int serve_main(const std::string& checkpoint);

// Sequential InferenceService::suggest on a fresh service with the shared
// options and both caches off, one request per call, spread over
// `threads` caller threads. Aligned with `items`.
std::vector<wisdom::serve::SuggestionResponse> reference_responses(
    const ServedModel& served, const std::vector<Item>& items, int threads);

// The byte-identity contract: everything but timing, trace ids and the
// cache flag.
bool same_output(const wisdom::serve::SuggestionResponse& a,
                 const wisdom::serve::SuggestionResponse& b);

// Peak resident set (VmHWM) of a process, in MB.
double rss_peak_mb_of(pid_t pid);

// Sum of every sample of a Prometheus metric (all label sets).
double prom_value(std::string_view exposition, std::string_view name);

std::string fingerprint_json(const ServedModel& served,
                             const std::string& checkpoint);

// Metrics of one run, printed by name with unit and sample count, and
// rendered as the result line's "metrics" object.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t count, std::string note = "");
  void print() const;
  std::string metrics_json() const;

 private:
  struct Entry {
    std::string name, unit, note;
    double value;
    std::size_t count;
  };
  std::vector<Entry> entries_;
};

}  // namespace servebench
