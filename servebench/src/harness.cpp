#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "client.hpp"
#include "net/server.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "util/hashing.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace servebench {

using wisdom::serve::SuggestionRequest;
using wisdom::serve::SuggestionResponse;

namespace {

// The warm-up request every setup measurement ends with.
std::string warmup_bytes() {
  SuggestionRequest request;
  request.prompt = "Install nginx";
  std::string body = wisdom::serve::to_json(request);
  return "POST /v1/suggest HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Reads one line from fd within `timeout_ms`.
bool read_line(int fd, std::string* line, int timeout_ms) {
  line->clear();
  double deadline = now_us() + timeout_ms * 1e3;
  char c;
  while (true) {
    int left = static_cast<int>((deadline - now_us()) / 1e3);
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) return false;
    if (::read(fd, &c, 1) != 1) return false;
    if (c == '\n') return true;
    *line += c;
  }
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::start(const RunOptions& options,
                                                    std::string* error) {
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const double t0 = now_us();
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execl(options.exe.c_str(), options.exe.c_str(), "serve", "--checkpoint",
            options.checkpoint.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipefd[1]);
  proc->pid_ = pid;
  std::string line;
  bool got = read_line(pipefd[0], &line, 30000);
  ::close(pipefd[0]);
  if (!got || line.rfind("PORT ", 0) != 0) {
    *error = "serving process did not report its port";
    return nullptr;
  }
  proc->port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + 5));
  const std::string request = warmup_bytes();
  while (now_us() - t0 < 30e6) {
    if (http_exchange(proc->port_, request, nullptr, 10.0) == 200) {
      proc->setup_s_ = (now_us() - t0) / 1e6;
      return proc;
    }
    ::usleep(1000);
  }
  *error = "no 200 response to the warm-up request";
  return nullptr;
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::rss_peak_mb() const { return rss_peak_mb_of(pid_); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    ::usleep(10000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

std::unique_ptr<ServerProcess> measure_setup(const RunOptions& options,
                                             bool keep_last, Summary* setup,
                                             std::string* error) {
  std::vector<double> samples;
  std::unique_ptr<ServerProcess> last;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (last) last->stop();
    last = ServerProcess::start(options, error);
    if (!last) return nullptr;
    samples.push_back(last->setup_s());
  }
  *setup = summarize(samples);
  setup->p50 = median(samples);
  if (!keep_last) last->stop();
  return last;
}

bool drive_http(const RunOptions& options, const Workload& w, HttpRun* run,
                std::string* error) {
  auto server = measure_setup(options, true, &run->setup, error);
  if (!server) return false;
  const std::string scrape = get_request_bytes("/v1/metrics");
  http_exchange(server->port(), scrape, &run->metrics_before, 10);
  run->outcomes.resize(w.arrivals.size());
  for (int phase = 0; phase < 2; ++phase) {
    std::vector<std::size_t> index;
    std::vector<std::string> bodies;
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
      if (static_cast<int>(w.arrivals[i].phase) != phase) continue;
      index.push_back(i);
      bodies.push_back(wisdom::serve::to_json(w.items[w.arrivals[i].item].request));
    }
    const double base = now_us() + 20e3;
    std::vector<double> due_us;
    for (std::size_t i : index) due_us.push_back(base + w.arrivals[i].due_s * 1e6);
    auto got = run_open_loop(server->port(), bodies, due_us, kConnections);
    for (std::size_t k = 0; k < got.size(); ++k)
      run->outcomes[index[k]] = std::move(got[k]);
  }
  http_exchange(server->port(), scrape, &run->metrics_after, 10);
  run->rss_mb = server->rss_peak_mb();
  server->stop();
  return true;
}

int serve_main(const std::string& checkpoint) {
  // Block the stop signals before any thread starts so every thread
  // inherits the mask and sigwait below receives them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  wisdom::util::ThreadPool::set_global_threads(kPoolThreads);
  std::string error;
  auto served = load_served(checkpoint, &error);
  if (!served) {
    std::fprintf(stderr, "serve: cannot load %s: %s\n", checkpoint.c_str(),
                 error.c_str());
    return 1;
  }
  wisdom::serve::InferenceService service(
      served->model, served->tokenizer,
      service_options(kQueueCapacity, kHttpMaxBatch));
  wisdom::net::ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = kHttpWorkers;
  wisdom::net::HttpServer server(service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "serve: cannot bind\n");
    return 1;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  int sig = 0;
  sigwait(&stop_signals, &sig);
  server.stop();
  return 0;
}

std::vector<SuggestionResponse> reference_responses(
    const ServedModel& served, const std::vector<Item>& items, int threads) {
  wisdom::serve::ServiceOptions options = service_options(0, kHttpMaxBatch);
  options.prefix_cache_enabled = false;
  options.response_cache_enabled = false;
  wisdom::serve::InferenceService service(served.model, served.tokenizer,
                                          options);
  std::vector<SuggestionResponse> out(items.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < items.size();)
      out[i] = service.suggest(items[i].request);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  return out;
}

bool same_output(const SuggestionResponse& a, const SuggestionResponse& b) {
  return a.ok == b.ok && a.snippet == b.snippet &&
         a.schema_correct == b.schema_correct &&
         a.generated_tokens == b.generated_tokens &&
         a.degraded == b.degraded && a.error == b.error &&
         a.repaired == b.repaired &&
         a.diagnostics.size() == b.diagnostics.size();
}

double rss_peak_mb_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double prom_value(std::string_view text, std::string_view name) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, name.size()) != name) continue;
    std::string_view rest = line.substr(name.size());
    if (!rest.empty() && rest[0] == '{') {
      std::size_t close = rest.find('}');
      if (close == std::string_view::npos) continue;
      rest = rest.substr(close + 1);
    }
    if (rest.empty() || rest[0] != ' ') continue;
    total += std::strtod(std::string(rest.substr(1)).c_str(), nullptr);
  }
  return total;
}

std::string fingerprint_json(const ServedModel& served,
                             const std::string& checkpoint) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  auto blob = wisdom::util::read_file(checkpoint);
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(
                    wisdom::util::fnv1a64(blob ? *blob : std::string())));
  const char* obs_env = std::getenv("WISDOM_OBS");
  return JsonObject()
      .integer("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .str("cpu", cpu)
      .str("build_type", SERVEBENCH_BUILD_TYPE)
      .boolean("wisdom_native", SERVEBENCH_NATIVE)
      .boolean("wisdom_obs_compiled", SERVEBENCH_OBS)
      .str("wisdom_obs_env", obs_env ? obs_env : "")
      .integer("http_workers", kHttpWorkers)
      .integer("pool_threads", kPoolThreads)
      .integer("client_connections", kConnections)
      .integer("model_params", static_cast<long long>(served.model.param_count()))
      .str("checkpoint_fnv1a64", hash)
      .done();
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t count, std::string note) {
  entries_.push_back({std::move(name), std::move(unit), std::move(note), value,
                      count});
}

void Report::print() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %14.6g %-6s n=%zu%s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.count, e.note.empty() ? "" : "  ",
                e.note.c_str());
  }
}

std::string Report::metrics_json() const {
  JsonObject out;
  for (const Entry& e : entries_)
    out.raw(e.name,
            JsonObject().num("value", e.value).str("unit", e.unit).done());
  return out.done();
}

}  // namespace servebench
