#include "config/candidates.hpp"

#include "util/json.hpp"

namespace air::config {

namespace {

using util::json::Value;

[[nodiscard]] Ticks ticks_of(const Value& v, std::string_view key,
                             Ticks fallback) {
  const std::int64_t raw = v.get_int(key, fallback);
  return raw < 0 ? kInfiniteTime : raw;
}

[[nodiscard]] std::string require_array(const Value& v, std::string_view key,
                                        const Value*& out) {
  out = v.find(key);
  if (out == nullptr) return std::string{key} + " missing";
  if (!out->is_array()) return std::string{key} + " must be an array";
  return {};
}

}  // namespace

CandidateParse parse_candidate(std::string_view line) {
  CandidateParse result;
  const auto parsed = util::json::parse(line);
  if (!parsed.ok()) {
    result.error = parsed.error->to_string();
    return result;
  }
  const Value& root = *parsed.value;
  if (!root.is_object()) {
    result.error = "candidate must be a JSON object";
    return result;
  }

  // Verdict lines echo the id, and util::json reads integers only within
  // the int64 range: a negative id would come back out as an unreadable
  // 2^64 - |id|.
  const std::int64_t id = root.get_int("id", 0);
  if (id < 0) {
    result.error = "id must be a non-negative integer";
    return result;
  }
  model::Candidate candidate;
  candidate.id = static_cast<std::uint64_t>(id);
  candidate.name = root.get_string("name", "");
  candidate.mtf = root.get_int("mtf", 0);

  const Value* reqs = nullptr;
  if (std::string err = require_array(root, "requirements", reqs);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  for (const Value& r : reqs->as_array()) {
    model::ScheduleRequirement req;
    req.partition =
        PartitionId{static_cast<std::int32_t>(r.get_int("partition", 0))};
    req.period = r.get_int("period", 0);
    req.duration = r.get_int("duration", 0);
    candidate.requirements.push_back(req);
  }

  if (const Value* windows = root.find("windows"); windows != nullptr) {
    if (!windows->is_array()) {
      result.error = "windows must be an array";
      return result;
    }
    for (const Value& w : windows->as_array()) {
      model::Window window;
      window.partition =
          PartitionId{static_cast<std::int32_t>(w.get_int("partition", 0))};
      window.offset = w.get_int("offset", 0);
      window.duration = w.get_int("duration", 0);
      candidate.windows.push_back(window);
    }
  }

  const Value* partitions = nullptr;
  if (std::string err = require_array(root, "partitions", partitions);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  for (const Value& p : partitions->as_array()) {
    model::PartitionModel pm;
    pm.id = PartitionId{static_cast<std::int32_t>(p.get_int("id", 0))};
    pm.name = p.get_string("name", "P" + std::to_string(pm.id.value()));
    if (const Value* procs = p.find("processes"); procs != nullptr) {
      if (!procs->is_array()) {
        result.error = "processes must be an array";
        return result;
      }
      for (const Value& q : procs->as_array()) {
        model::ProcessModel proc;
        proc.name = q.get_string("name", "");
        proc.period = ticks_of(q, "period", 0);
        proc.deadline = ticks_of(q, "deadline", -1);
        proc.priority =
            static_cast<Priority>(q.get_int("priority", 0));
        proc.wcet = q.get_int("wcet", 0);
        proc.periodic = q.get_bool("periodic", true);
        pm.processes.push_back(std::move(proc));
      }
    }
    candidate.partitions.push_back(std::move(pm));
  }

  result.candidate = std::move(candidate);
  return result;
}

CandidateStream parse_candidates(std::string_view text) {
  CandidateStream stream;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    // Trim and skip blanks / // comment lines.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.substr(0, 2) == "//") continue;
    CandidateParse parsed = parse_candidate(line);
    if (parsed.ok()) {
      stream.candidates.push_back(std::move(*parsed.candidate));
    } else {
      stream.errors.push_back("line " + std::to_string(line_no) + ": " +
                              parsed.error);
    }
  }
  return stream;
}

std::string candidate_to_jsonl(const model::Candidate& candidate) {
  // Hand-rolled, key order fixed by this function (std::map-based
  // Value::dump would alphabetise) -- reproducer files must be diffable.
  std::string out = "{\"id\":" + std::to_string(candidate.id);
  const auto num = [&out](std::string_view key, std::int64_t value) {
    out += key;
    out += std::to_string(value);
  };
  const auto str = [&out](std::string_view key, const std::string& value) {
    out += key;
    util::json::append_string(out, value);
  };
  const auto ticks = [](Ticks t) {
    return t == kInfiniteTime ? std::int64_t{-1}
                              : static_cast<std::int64_t>(t);
  };
  str(",\"name\":", candidate.name);
  num(",\"mtf\":", candidate.mtf);
  out += ",\"requirements\":[";
  for (std::size_t i = 0; i < candidate.requirements.size(); ++i) {
    const model::ScheduleRequirement& r = candidate.requirements[i];
    num(i ? ",{\"partition\":" : "{\"partition\":", r.partition.value());
    num(",\"period\":", r.period);
    num(",\"duration\":", r.duration);
    out += '}';
  }
  out += ']';
  if (!candidate.windows.empty()) {
    out += ",\"windows\":[";
    for (std::size_t i = 0; i < candidate.windows.size(); ++i) {
      const model::Window& w = candidate.windows[i];
      num(i ? ",{\"partition\":" : "{\"partition\":", w.partition.value());
      num(",\"offset\":", w.offset);
      num(",\"duration\":", w.duration);
      out += '}';
    }
    out += ']';
  }
  out += ",\"partitions\":[";
  for (std::size_t i = 0; i < candidate.partitions.size(); ++i) {
    const model::PartitionModel& pm = candidate.partitions[i];
    num(i ? ",{\"id\":" : "{\"id\":", pm.id.value());
    str(",\"name\":", pm.name);
    out += ",\"processes\":[";
    for (std::size_t q = 0; q < pm.processes.size(); ++q) {
      const model::ProcessModel& proc = pm.processes[q];
      str(q ? ",{\"name\":" : "{\"name\":", proc.name);
      num(",\"period\":", ticks(proc.period));
      num(",\"deadline\":", ticks(proc.deadline));
      num(",\"priority\":", proc.priority);
      num(",\"wcet\":", proc.wcet);
      out += proc.periodic ? ",\"periodic\":true}" : ",\"periodic\":false}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace air::config
