#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace cmtbench {

bool SpanLog::write_chrome_json(const std::string& path,
                                const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (int r = 0; r < ranks(); ++r) {
    out << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":0,\"tid\":" << r << ",\"args\":{\"name\":\"rank " << r
        << "\"}}";
    first = false;
    for (const SpanEvent& ev : events(r)) {
      const std::string name(ev.name);
      const std::string layer = name.substr(0, name.find('.'));
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", ev.start_us,
                    ev.end_us - ev.start_us);
      out << ",\n{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
          << json_escape(layer) << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << ev.rank
          << "," << buf << ",\"args\":{\"id\":" << ev.id
          << ",\"parent\":" << ev.parent << ",\"run\":\""
          << json_escape(run_ids_[std::size_t(ev.run)]) << "\"}}";
    }
  }
  out << "\n]}\n";
  return bool(out);
}

}  // namespace cmtbench
