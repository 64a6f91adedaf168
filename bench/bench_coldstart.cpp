// Cold start, stage by stage: how long a serving process takes from fork
// to its first 200, split into the stages DESIGN.md §12 reports.
//
//   ./build/bench/bench_coldstart servebench/model/served-350m.bin [starts]
//
// Each start forks and execs this binary in child mode, which loads the
// checkpoint, builds the service and the HTTP server with the serving
// benchmark's options (servebench/src/workload.cpp, service_options(4, 8);
// 2 HTTP workers, a 1-lane kernel pool), sends itself the benchmark's
// warm-up request over loopback and reports each stage's milliseconds.
// The parent prints the median of every stage over all starts (default 41,
// as servebench does) as one JSON line. Stages:
//   exec     fork -> child main (exec, dynamic loading, static init)
//   read     whole-file read plus the FNV-1a checksum of its payload
//   model    load_checkpoint_ex minus that checksum, plus the tokenizer
//   service  InferenceService construction (caches, KV arena, scheduler)
//   server   HttpServer construction and start (bind, event loop, workers)
//   warmup   the warm-up POST /v1/suggest until its 200 is read
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "text/bpe.hpp"
#include "util/hashing.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr const char* kStages[] = {"exec",    "read",   "model",
                                   "service", "server", "warmup"};
constexpr int kStageCount = 6;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// POSTs the warm-up request and returns the HTTP status (0 on failure).
int warmup(std::uint16_t port) {
  wisdom::serve::SuggestionRequest request;
  request.prompt = "Install nginx";
  const std::string body = wisdom::serve::to_json(request);
  const std::string bytes =
      "POST /v1/suggest HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
      reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (reply.rfind("HTTP/1.1 ", 0) != 0) return 0;
  return std::atoi(reply.c_str() + 9);
}

int child(double t0, const std::string& path) {
  double stage[kStageCount];
  double t = now_ms();
  stage[0] = t - t0;
  wisdom::util::ThreadPool::set_global_threads(1);

  t = now_ms();
  const auto data = wisdom::util::read_file(path);
  if (!data || data->size() < 16) return 1;
  const double read_done = now_ms();
  volatile std::uint64_t sum =
      wisdom::util::fnv1a64(std::string_view(*data).substr(16));
  (void)sum;
  const double checksum_ms = now_ms() - read_done;
  stage[1] = now_ms() - t;

  t = now_ms();
  auto loaded = wisdom::model::load_checkpoint_ex(*data);
  if (!loaded.ok()) return 1;
  auto tokenizer = wisdom::text::BpeTokenizer::deserialize(loaded.tokenizer);
  if (!tokenizer) return 1;
  stage[2] = now_ms() - t - checksum_ms;

  t = now_ms();
  wisdom::serve::ServiceOptions options;
  options.prefix_cache_enabled = true;
  options.response_cache_enabled = true;
  options.lint_policy = wisdom::serve::LintPolicy::Repair;
  options.queue_capacity = 4;
  options.beam_width = 1;
  options.speculative_k = 0;
  options.max_batch_sequences = 8;
  wisdom::serve::InferenceService service(*loaded.model, *tokenizer, options);
  stage[3] = now_ms() - t;

  t = now_ms();
  wisdom::net::ServerOptions server_options;
  server_options.port = 0;
  server_options.worker_threads = 2;
  wisdom::net::HttpServer server(service, server_options);
  if (!server.start()) return 1;
  stage[4] = now_ms() - t;

  t = now_ms();
  if (warmup(server.port()) != 200) return 1;
  stage[5] = now_ms() - t;
  server.stop();

  for (int s = 0; s < kStageCount; ++s) std::printf("%.6f ", stage[s]);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--child")
    return child(std::atof(argv[2]), argv[3]);
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s CHECKPOINT [starts]\n", argv[0]);
    return 2;
  }
  const int starts = argc == 3 ? std::max(1, std::atoi(argv[2])) : 41;
  std::vector<std::vector<double>> samples(kStageCount);
  std::vector<double> totals;
  for (int i = 0; i < starts; ++i) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) return 1;
    char t0[64];
    std::snprintf(t0, sizeof t0, "%.6f", now_ms());
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::execl("/proc/self/exe", argv[0], "--child", t0, argv[1],
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(pipefd[1]);
    std::string line;
    char buf[512];
    ssize_t n;
    while ((n = ::read(pipefd[0], buf, sizeof buf)) > 0)
      line.append(buf, static_cast<std::size_t>(n));
    ::close(pipefd[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "start %d failed\n", i);
      return 1;
    }
    double total = 0.0;
    const char* p = line.c_str();
    for (int s = 0; s < kStageCount; ++s) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      p = end;
      samples[static_cast<std::size_t>(s)].push_back(v);
      total += v;
    }
    totals.push_back(total);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  std::printf("{\"starts\": %d", starts);
  for (int s = 0; s < kStageCount; ++s)
    std::printf(", \"%s_ms\": %.3f", kStages[s],
                median(samples[static_cast<std::size_t>(s)]));
  std::printf(", \"total_ms\": %.3f}\n", median(totals));
  return 0;
}
