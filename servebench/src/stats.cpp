#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace servebench {

namespace {

// Nearest rank ceil(p/100 * n), immune to p/100 not being exact in binary.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = nearest_rank(p, sorted.size());
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    std::size_t rank = nearest_rank(p, n);
    if (n >= rank && n - rank >= 10) return p;
  }
  return 0.0;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 50.0);
  s.tail_pct = supported_percentile(values.size());
  s.tail = s.tail_pct > 0.0 ? percentile_sorted(values, s.tail_pct)
                            : values.back();
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = std::string(name);
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.request = request;
  rec.start_us = now_us();
  spans_.push_back(std::move(rec));
  int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> self_time_us(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_begin = 0.0, cur_end = -1.0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_us);
      e = std::min(e, s.end_us);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
      } else {
        if (open) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_begin;
    out[s.name] += std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": ";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace servebench
