#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "serve/wire.hpp"
#include "stats.hpp"

namespace servebench {

std::string stream_request_bytes(std::string_view json_body) {
  std::string out =
      "POST /v1/suggest/stream HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: ";
  out += std::to_string(json_body.size());
  out += "\r\n\r\n";
  out += json_body;
  return out;
}

std::string get_request_bytes(std::string_view path) {
  return "GET " + std::string(path) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::optional<std::string> json_string_field(std::string_view json,
                                             std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\"";
  std::size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  pos = json.find(':', pos + needle.size());
  if (pos == std::string_view::npos) return std::nullopt;
  pos = json.find('"', pos);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = pos + 1; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= json.size()) return std::nullopt;
    switch (json[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 >= json.size()) return std::nullopt;
        unsigned cp = static_cast<unsigned>(
            std::strtoul(std::string(json.substr(i + 1, 4)).c_str(), nullptr, 16));
        i += 4;
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        break;
      }
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

namespace {

// Incremental HTTP/1.1 response parser: Content-Length bodies and chunked
// SSE streams (one `data:` event per delta, then `event: done`).
class ResponseParser {
 public:
  // Consumes bytes that arrived at `now`; returns true once the response
  // is complete or malformed (check out->protocol_error).
  bool feed(std::string_view data, double now, Outcome* out) {
    buf_.append(data);
    while (true) {
      if (state_ == State::Head) {
        std::size_t end = buf_.find("\r\n\r\n");
        if (end == std::string::npos) return false;
        if (!parse_head(buf_.substr(0, end), out)) return fail(out, "bad head");
        buf_.erase(0, end + 4);
        state_ = chunked_ ? State::Chunks : State::Body;
      } else if (state_ == State::Body) {
        if (buf_.size() < content_length_) return false;
        body_ = buf_.substr(0, content_length_);
        buf_.erase(0, content_length_);
        state_ = State::Done;
        return true;
      } else if (state_ == State::Chunks) {
        std::size_t eol = buf_.find("\r\n");
        if (eol == std::string::npos) return false;
        char* endp = nullptr;
        std::string size_text = buf_.substr(0, eol);
        unsigned long size = std::strtoul(size_text.c_str(), &endp, 16);
        if (size_text.empty() || endp != size_text.c_str() + size_text.size())
          return fail(out, "bad chunk size");
        if (buf_.size() < eol + 2 + size + 2) return false;
        if (buf_.compare(eol + 2 + size, 2, "\r\n") != 0)
          return fail(out, "bad chunk framing");
        if (size == 0) {
          buf_.erase(0, eol + 4);
          state_ = State::Done;
          if (!out->response) return fail(out, "stream ended without done");
          return true;
        }
        sse_.append(buf_, eol + 2, size);
        buf_.erase(0, eol + 2 + size + 2);
        if (!drain_events(now, out)) return fail(out, "bad SSE event");
      } else {
        return true;
      }
    }
  }

  const std::string& body() const { return body_; }

 private:
  enum class State { Head, Body, Chunks, Done };

  bool fail(Outcome* out, const char* why) {
    out->protocol_error = why;
    state_ = State::Done;
    return true;
  }

  bool parse_head(const std::string& head, Outcome* out) {
    if (head.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    out->http_status = std::atoi(head.c_str() + 9);
    std::size_t pos = head.find("\r\n");
    while (pos != std::string::npos && pos < head.size()) {
      std::size_t next = head.find("\r\n", pos + 2);
      std::string line = head.substr(pos + 2, next == std::string::npos
                                                  ? std::string::npos
                                                  : next - pos - 2);
      for (char& c : line) c = static_cast<char>(std::tolower(c));
      if (line.rfind("content-length:", 0) == 0)
        content_length_ = std::strtoul(line.c_str() + 15, nullptr, 10);
      if (line.rfind("transfer-encoding:", 0) == 0 &&
          line.find("chunked") != std::string::npos)
        chunked_ = true;
      pos = next;
    }
    return out->http_status > 0;
  }

  bool drain_events(double now, Outcome* out) {
    std::size_t end;
    while ((end = sse_.find("\n\n")) != std::string::npos) {
      std::string event = sse_.substr(0, end);
      sse_.erase(0, end + 2);
      std::string name, data;
      std::size_t pos = 0;
      while (pos <= event.size()) {
        std::size_t nl = event.find('\n', pos);
        std::string line = event.substr(pos, nl == std::string::npos
                                                 ? std::string::npos
                                                 : nl - pos);
        if (line.rfind("event: ", 0) == 0) name = line.substr(7);
        else if (line.rfind("data: ", 0) == 0) data = line.substr(6);
        if (nl == std::string::npos) break;
        pos = nl + 1;
      }
      if (name == "done") {
        out->response = wisdom::serve::response_from_json(data);
        if (!out->response) return false;
        out->done_us = now;
        continue;
      }
      if (!name.empty()) return false;
      auto text = json_string_field(data, "text");
      if (!text) return false;
      bool reset = data.find("\"reset\": true") != std::string::npos;
      if (reset) out->streamed = *text;
      else out->streamed += *text;
      if (!text->empty()) {
        out->delta_us.push_back(now);
        if (out->first_delta_us == 0) out->first_delta_us = now;
      }
    }
    return true;
  }

  State state_ = State::Head;
  std::string buf_, body_, sse_;
  std::size_t content_length_ = 0;
  bool chunked_ = false;
};

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

struct Conn {
  int fd = -1;
  bool busy = false;
  std::size_t index = 0;
  ResponseParser parser;
  std::string out;
  std::size_t out_off = 0;
};

}  // namespace

int http_exchange(std::uint16_t port, std::string_view request_bytes,
                  std::string* body, double timeout_s) {
  int fd = connect_loopback(port);
  if (fd < 0) return 0;
  timeval tv{static_cast<time_t>(timeout_s),
             static_cast<suseconds_t>((timeout_s - static_cast<long>(timeout_s)) * 1e6)};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::size_t off = 0;
  while (off < request_bytes.size()) {
    ssize_t n = ::send(fd, request_bytes.data() + off, request_bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    off += static_cast<std::size_t>(n);
  }
  ResponseParser parser;
  Outcome out;
  char buf[16384];
  bool done = false;
  while (!done) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    done = parser.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                       now_us(), &out);
  }
  ::close(fd);
  if (!done || !out.protocol_error.empty()) return 0;
  if (body) *body = parser.body();
  return out.http_status;
}

std::vector<Outcome> run_open_loop(std::uint16_t port,
                                   const std::vector<std::string>& bodies,
                                   const std::vector<double>& due_us,
                                   int connections) {
  const std::size_t n = bodies.size();
  std::vector<Outcome> outcomes(n);
  // The generator must not queue behind the serving process for a CPU:
  // raise this thread's priority where the host allows it.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
  for (std::size_t i = 0; i < n; ++i) outcomes[i].due_us = due_us[i];

  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = ~0ULL;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &tev);

  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  auto open_conn = [&](std::size_t c) {
    conns[c] = Conn{};
    int fd = connect_loopback(port);
    if (fd < 0) return;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
    conns[c].fd = fd;
  };
  auto close_conn = [&](std::size_t c) {
    if (conns[c].fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, conns[c].fd, nullptr);
      ::close(conns[c].fd);
    }
    conns[c].fd = -1;
  };
  for (std::size_t c = 0; c < conns.size(); ++c) open_conn(c);

  std::size_t next = 0, finished = 0;
  std::deque<std::size_t> pending;
  double last_progress = now_us();
  auto finish = [&](std::size_t c) {
    conns[c].busy = false;
    ++finished;
    last_progress = now_us();
  };
  auto flush = [&](std::size_t c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                         conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w <= 0) return false;
      conn.out_off += static_cast<std::size_t>(w);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.out_off < conn.out.size() ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
    return true;
  };
  auto fail_conn = [&](std::size_t c, const char* why) {
    if (conns[c].busy) {
      outcomes[conns[c].index].protocol_error = why;
      finish(c);
    }
    close_conn(c);
    open_conn(c);
  };

  epoll_event events[16];
  while (finished < n) {
    double now = now_us();
    while (next < n && due_us[next] <= now) {
      outcomes[next].noticed_us = now;
      pending.push_back(next++);
    }
    for (std::size_t c = 0; c < conns.size() && !pending.empty(); ++c) {
      if (conns[c].busy) continue;
      if (conns[c].fd < 0) open_conn(c);
      if (conns[c].fd < 0) continue;
      std::size_t i = pending.front();
      pending.pop_front();
      Conn& conn = conns[c];
      conn.busy = true;
      conn.index = i;
      conn.parser = ResponseParser{};
      conn.out = stream_request_bytes(bodies[i]);
      conn.out_off = 0;
      outcomes[i].sent_us = now_us();
      if (!flush(c)) fail_conn(c, "send failed");
    }
    itimerspec its{};
    if (next < n) {
      double due_s = due_us[next] / 1e6;
      its.it_value.tv_sec = static_cast<time_t>(due_s);
      its.it_value.tv_nsec = static_cast<long>((due_s - static_cast<double>(
                                                    its.it_value.tv_sec)) * 1e9);
      if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0)
        its.it_value.tv_nsec = 1;
    }
    ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
    int ready = ::epoll_wait(ep, events, 16, 1000);
    if (ready == 0 && now_us() - last_progress > 60e6) break;  // wedged
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == ~0ULL) {
        std::uint64_t expirations;
        [[maybe_unused]] ssize_t r = ::read(tfd, &expirations, sizeof expirations);
        continue;
      }
      std::size_t c = events[e].data.u64;
      Conn& conn = conns[c];
      if (conn.fd < 0) continue;
      if (events[e].events & EPOLLOUT) {
        if (!flush(c)) {
          fail_conn(c, "send failed");
          continue;
        }
      }
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      char buf[65536];
      while (conn.fd >= 0) {
        ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r <= 0) {
          fail_conn(c, "connection closed mid-response");
          break;
        }
        if (!conn.busy) {
          fail_conn(c, "unsolicited bytes");
          break;
        }
        Outcome& out = outcomes[conn.index];
        if (conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)),
                             now_us(), &out)) {
          finish(c);
          if (!out.protocol_error.empty()) {
            close_conn(c);
            open_conn(c);
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (outcomes[i].done_us == 0 && outcomes[i].protocol_error.empty())
      outcomes[i].protocol_error = "no response";
  for (std::size_t c = 0; c < conns.size(); ++c) close_conn(c);
  ::close(tfd);
  ::close(ep);
  return outcomes;
}

}  // namespace servebench
