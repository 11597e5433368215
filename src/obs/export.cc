#include "obs/export.h"

#include <cstdio>
#include <utility>

namespace efind {
namespace obs {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Timestamp in simulated microseconds, fixed-point so traces diff cleanly.
std::string Micros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds * 1e6);
  return buf;
}

void AppendArgs(const std::vector<TraceArg>& args, std::string* out) {
  out->append(",\"args\":{");
  bool first = true;
  for (const TraceArg& a : args) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    out->append(JsonEscape(a.key));
    out->append("\":\"");
    out->append(JsonEscape(a.value));
    out->push_back('"');
  }
  out->push_back('}');
}

/// Appends `{"name":value,...}` for a sequence of (name, number) pairs.
template <typename Pairs>
void AppendNumbers(const Pairs& pairs, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [name, v] : pairs) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    out->append(JsonEscape(name));
    out->append("\":");
    out->append(Num(v));
  }
  out->push_back('}');
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

std::string ChromeTraceJson(const TraceRecorder& trace, int num_nodes) {
  if (num_nodes < 0) num_nodes = 0;
  const int cluster_pid = num_nodes;
  std::string out = "{\"traceEvents\":[\n";

  // Track naming metadata: one process per simulated node, plus the
  // cluster-wide orchestration track. Commas lead each entry after the
  // first so an event-free trace still closes the array validly.
  bool first = true;
  for (int n = 0; n <= num_nodes; ++n) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    out.append(std::to_string(n));
    out.append(",\"tid\":0,\"args\":{\"name\":\"");
    out.append(n == num_nodes ? std::string("cluster")
                              : "node" + std::to_string(n));
    out.append("\"}}");
  }

  for (const TraceEvent& e : trace.events()) {
    if (!first) out.append(",\n");
    first = false;
    const int pid = e.node == kClusterTrack ? cluster_pid : e.node;
    out.append("{\"name\":\"");
    out.append(JsonEscape(e.name));
    out.append("\",\"cat\":\"");
    out.append(JsonEscape(e.category));
    out.append("\",\"ph\":\"");
    out.append(e.instant ? "i" : "X");
    out.append("\",\"ts\":");
    out.append(Micros(e.start_sec));
    if (!e.instant) {
      out.append(",\"dur\":");
      out.append(Micros(e.duration_sec));
    }
    out.append(",\"pid\":");
    out.append(std::to_string(pid));
    out.append(",\"tid\":");
    out.append(std::to_string(e.lane));
    if (e.instant) out.append(",\"s\":\"t\"");
    std::vector<TraceArg> args = e.args;
    if (e.task_index >= 0) {
      args.push_back({"task_index", std::to_string(e.task_index)});
    }
    AppendArgs(args, &out);
    out.push_back('}');
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

namespace {

void AppendHistogramJson(const HistogramData& h, std::string* out) {
  out->append("{\"count\":");
  out->append(std::to_string(h.count));
  out->append(",\"sum\":");
  out->append(Num(h.sum));
  if (h.count > 0) {
    out->append(",\"min\":");
    out->append(Num(h.min));
    out->append(",\"max\":");
    out->append(Num(h.max));
    out->append(",\"mean\":");
    out->append(Num(h.mean()));
  }
  out->append(",\"buckets\":{");
  bool first = true;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("\"le_");
    out->append(Num(HistogramData::BucketUpperSec(static_cast<int>(b))));
    out->append("\":");
    out->append(std::to_string(h.buckets[b]));
  }
  out->append("}}");
}

}  // namespace

std::string RunReportJson(const RunReportInput& in) {
  std::string out = "{\"job\":\"";
  out.append(JsonEscape(in.name));
  out.append("\",\"sim_seconds\":");
  out.append(Num(in.sim_seconds));
  out.append(",\"plan\":\"");
  out.append(JsonEscape(in.plan));
  out.append("\",\"replanned\":");
  out.append(in.replanned ? "true" : "false");

  if (!in.config.empty()) {
    out.append(",\"config\":{");
    bool first = true;
    for (const auto& [k, v] : in.config) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out.append(JsonEscape(k));
      out.append("\":\"");
      out.append(JsonEscape(v));
      out.push_back('"');
    }
    out.push_back('}');
  }

  if (in.counters != nullptr) {
    out.append(",\"counters\":");
    AppendNumbers(in.counters->values(), &out);
  }

  if (in.metrics != nullptr) {
    out.append(",\"metrics\":{\"counters\":");
    AppendNumbers(in.metrics->CounterValues(), &out);
    out.append(",\"gauges\":");
    AppendNumbers(in.metrics->GaugeValues(), &out);
    out.append(",\"histograms\":{");
    bool first = true;
    for (const auto& [name, h] : in.metrics->HistogramValues()) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      out.append(JsonEscape(name));
      out.append("\":");
      AppendHistogramJson(h, &out);
    }
    out.append("}}");
  }

  if (in.trace != nullptr) {
    size_t spans = 0, instants = 0;
    for (const TraceEvent& e : in.trace->events()) {
      if (e.instant) {
        ++instants;
      } else {
        ++spans;
      }
    }
    out.append(",\"trace\":{\"spans\":");
    out.append(std::to_string(spans));
    out.append(",\"instants\":");
    out.append(std::to_string(instants));
    out.append(",\"dropped\":");
    out.append(std::to_string(in.trace->dropped_events()));
    out.push_back('}');
  }

  out.append("}\n");
  return out;
}

bool WriteFile(const std::string& path, const std::string& content,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace obs
}  // namespace efind
