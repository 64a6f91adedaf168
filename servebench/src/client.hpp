// Open-loop HTTP load generator for /v1/suggest/stream: one thread, a
// timerfd for the arrival schedule, and a fixed set of keep-alive
// connections. A request that falls due while every connection is busy
// waits on the client side; every request is timed from when it was due.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/types.hpp"

namespace servebench {

// The exact bytes sent for one streaming suggestion request.
std::string stream_request_bytes(std::string_view json_body);
// The exact bytes of a GET request for `path`.
std::string get_request_bytes(std::string_view path);

// What the client observed for one scheduled request. Times are
// steady-clock microseconds (stats.hpp now_us()).
struct Outcome {
  double due_us = 0;
  double noticed_us = 0;  // when the generator saw it was due
  double sent_us = 0;
  double first_delta_us = 0;  // first non-empty SSE data event (0: none)
  double done_us = 0;         // the `done` event (0: never arrived)
  std::vector<double> delta_us;  // arrival of every non-empty delta
  int http_status = 0;
  std::string protocol_error;  // empty when the exchange was well-formed
  std::string streamed;        // deltas reassembled (append/reset)
  std::optional<wisdom::serve::SuggestionResponse> response;  // `done` data
};

// Sends bodies[i] when due_us[i] (absolute, ascending) arrives, over
// `connections` keep-alive connections to 127.0.0.1:port.
std::vector<Outcome> run_open_loop(std::uint16_t port,
                                   const std::vector<std::string>& bodies,
                                   const std::vector<double>& due_us,
                                   int connections);

// One blocking request/response exchange on a fresh connection (warm-up,
// metrics scrape). Returns the status (0 on a connection or protocol
// failure) and fills `body` with the decoded body.
int http_exchange(std::uint16_t port, std::string_view request_bytes,
                  std::string* body, double timeout_s);

// Decodes the value of a JSON string field from a flat object
// (`{"text": "...", ...}`); nullopt when absent or malformed.
std::optional<std::string> json_string_field(std::string_view json,
                                             std::string_view key);

}  // namespace servebench
