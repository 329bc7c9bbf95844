#include "config/candidates.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "util/json.hpp"

namespace air::config {

namespace {

using util::json::Reader;
using Kind = Reader::Kind;

/// How an array member turned up in its object.
enum class Member : std::uint8_t { kAbsent, kArray, kOther };

/// Reads the object at the reader, calling `read(i)` on the value of the
/// first member named `keys[i]`; every other value is skipped, later
/// duplicates too (the first of duplicate keys wins). A value that is not
/// an object is skipped whole, so its fields keep their fallbacks.
template <std::size_t N, typename Read>
bool read_members(Reader& r, const std::array<std::string_view, N>& keys,
                  Read&& read) {
  static_assert(N <= 32);
  if (r.peek() != Kind::kObject) return r.skip_value();
  if (!r.begin_object()) return false;
  std::uint32_t seen = 0;
  std::string_view key;
  while (r.next_key(key)) {
    std::size_t i = 0;
    while (i < N && keys[i] != key) ++i;
    const bool first = i < N && (seen & (1u << i)) == 0;
    if (first) seen |= 1u << i;
    if (!(first ? read(i) : r.skip_value())) return false;
  }
  return !r.failed();
}

/// A number sets `out` (a double truncated and saturated); any other value
/// leaves the fallback in it.
bool read_int(Reader& r, std::int64_t& out) {
  if (r.peek() != Kind::kNumber) return r.skip_value();
  Reader::Number n;
  if (!r.read_number(n)) return false;
  out = n.as_int();
  return true;
}

bool read_string(Reader& r, std::string& out) {
  return r.peek() == Kind::kString ? r.read_string(out) : r.skip_value();
}

/// An array calls `element()` per element; any other value is skipped.
template <typename Element>
bool read_array(Reader& r, Member& member, Element&& element) {
  if (r.peek() != Kind::kArray) {
    member = Member::kOther;
    return r.skip_value();
  }
  member = Member::kArray;
  if (!r.begin_array()) return false;
  while (r.next_element()) {
    if (!element()) return false;
  }
  return !r.failed();
}

/// The 32-bit fields of a candidate, as bits of a set of fields seen out
/// of range: a wrapped value would silently name another partition or
/// priority ("partition":4294967296 is partition 0).
enum Narrow : std::uint8_t {
  kPartitionField = 1,  // "partition" of a requirement or a window
  kPartitionIdField = 2,
  kPriorityField = 4,
};

/// `raw` as int32; out of range, it reads 0 and marks `field` in `wide`.
[[nodiscard]] std::int32_t narrow(std::int64_t raw, Narrow field,
                                  std::uint8_t& wide) {
  if (raw < std::numeric_limits<std::int32_t>::min() ||
      raw > std::numeric_limits<std::int32_t>::max()) {
    wide |= field;
    return 0;
  }
  return static_cast<std::int32_t>(raw);
}

/// -1 (any negative) encodes "infinite".
[[nodiscard]] Ticks ticks_of(std::int64_t raw) {
  return raw < 0 ? kInfiniteTime : raw;
}

/// A requirement or a window: a partition and two tick counts, under
/// `keys` in that order.
bool read_partition_ticks(Reader& r,
                          const std::array<std::string_view, 3>& keys,
                          PartitionId& partition, Ticks& first, Ticks& second,
                          std::uint8_t& wide) {
  std::int64_t raw = 0;
  const bool ok = read_members(r, keys, [&](std::size_t key) {
    return read_int(r, key == 0 ? raw : key == 1 ? first : second);
  });
  partition = PartitionId{narrow(raw, kPartitionField, wide)};
  return ok;
}

bool read_process(Reader& r, model::ProcessModel& proc, std::uint8_t& wide) {
  static constexpr std::array<std::string_view, 6> kKeys = {
      "name", "period", "deadline", "priority", "wcet", "periodic"};
  std::int64_t period = 0;
  std::int64_t deadline = -1;
  std::int64_t priority = 0;
  const bool ok = read_members(r, kKeys, [&](std::size_t key) {
    switch (key) {
      case 0: return read_string(r, proc.name);
      case 1: return read_int(r, period);
      case 2: return read_int(r, deadline);
      case 3: return read_int(r, priority);
      case 4: return read_int(r, proc.wcet);
      default:
        return r.peek() == Kind::kBool ? r.read_bool(proc.periodic)
                                       : r.skip_value();
    }
  });
  proc.period = ticks_of(period);
  proc.deadline = ticks_of(deadline);
  proc.priority = narrow(priority, kPriorityField, wide);
  return ok;
}

/// `bad_processes` is set when "processes" is there but not an array.
bool read_partition(Reader& r, model::PartitionModel& pm, bool& bad_processes,
                    std::uint8_t& wide) {
  static constexpr std::array<std::string_view, 3> kKeys = {
      "id", "name", "processes"};
  std::int64_t id = 0;
  bool named = false;
  Member processes = Member::kAbsent;
  const bool ok = read_members(r, kKeys, [&](std::size_t key) {
    switch (key) {
      case 0: return read_int(r, id);
      case 1:
        named = r.peek() == Kind::kString;
        return read_string(r, pm.name);
      default:
        return read_array(r, processes, [&] {
          return read_process(r, pm.processes.emplace_back(), wide);
        });
    }
  });
  pm.id = PartitionId{narrow(id, kPartitionIdField, wide)};
  // The name falls back on the id wherever in the object the id stood.
  if (!named) pm.name = 'P' + std::to_string(pm.id.value());
  bad_processes = bad_processes || processes == Member::kOther;
  return ok;
}

}  // namespace

CandidateParse parse_candidate(std::string_view line) {
  static constexpr std::array<std::string_view, 6> kKeys = {
      "id", "name", "mtf", "requirements", "windows", "partitions"};
  static constexpr std::array<std::string_view, 3> kRequirementKeys = {
      "partition", "period", "duration"};
  static constexpr std::array<std::string_view, 3> kWindowKeys = {
      "partition", "offset", "duration"};
  Reader r(line);
  model::Candidate candidate;
  const bool object = r.peek() == Kind::kObject;
  std::int64_t id = 0;
  Member requirements = Member::kAbsent;
  Member windows = Member::kAbsent;
  Member partitions = Member::kAbsent;
  bool bad_processes = false;
  std::uint8_t wide = 0;
  const auto member = [&](std::size_t key) {
    switch (key) {
      case 0: return read_int(r, id);
      case 1: return read_string(r, candidate.name);
      case 2: return read_int(r, candidate.mtf);
      case 3:
        return read_array(r, requirements, [&] {
          model::ScheduleRequirement& q = candidate.requirements.emplace_back();
          return read_partition_ticks(r, kRequirementKeys, q.partition,
                                      q.period, q.duration, wide);
        });
      case 4:
        return read_array(r, windows, [&] {
          model::Window& w = candidate.windows.emplace_back();
          return read_partition_ticks(r, kWindowKeys, w.partition, w.offset,
                                      w.duration, wide);
        });
      default:
        return read_array(r, partitions, [&] {
          return read_partition(r, candidate.partitions.emplace_back(),
                                bad_processes, wide);
        });
    }
  };
  const bool parsed = read_members(r, kKeys, member) && r.finish();

  // The whole line is read before any schema check, so a syntax error
  // anywhere wins; the schema errors then come in this fixed order.
  CandidateParse result;
  if (!parsed) {
    result.error = r.error()->to_string();
  } else if (!object) {
    result.error = "candidate must be a JSON object";
  } else if (id < 0) {
    // Verdict lines echo the id, and util::json reads integers only within
    // the int64 range: a negative id would come back out as an unreadable
    // 2^64 - |id|.
    result.error = "id must be a non-negative integer";
  } else if (requirements != Member::kArray) {
    result.error = requirements == Member::kAbsent
                       ? "requirements missing"
                       : "requirements must be an array";
  } else if (windows == Member::kOther) {
    result.error = "windows must be an array";
  } else if (partitions != Member::kArray) {
    result.error = partitions == Member::kAbsent
                       ? "partitions missing"
                       : "partitions must be an array";
  } else if (bad_processes) {
    result.error = "processes must be an array";
  } else if (wide != 0) {
    result.error = std::string{(wide & kPartitionField) != 0 ? "partition"
                               : (wide & kPartitionIdField) != 0
                                   ? "partition id"
                                   : "priority"} +
                   " must be a 32-bit integer";
  } else {
    candidate.id = static_cast<std::uint64_t>(id);
    result.candidate = std::move(candidate);
  }
  return result;
}

CandidateStream parse_candidates(std::string_view text) {
  CandidateStream stream;
  // One candidate per line at most.
  stream.candidates.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      (!text.empty() && text.back() != '\n' ? 1 : 0));
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
  // Key order fixed here, not sorted: a reproducer line reads id first,
  // and the files must stay diffable.
  const auto ticks = [](Ticks t) {
    return t == kInfiniteTime ? std::int64_t{-1}
                              : static_cast<std::int64_t>(t);
  };
  std::string out;
  util::json::Writer w(out);
  w.begin_object().key("id").integer(candidate.id);
  w.key("name").string(candidate.name).key("mtf").integer(candidate.mtf);
  w.key("requirements").begin_array();
  for (const model::ScheduleRequirement& r : candidate.requirements) {
    w.begin_object().key("partition").integer(r.partition.value());
    w.key("period").integer(r.period);
    w.key("duration").integer(r.duration).end_object();
  }
  w.end_array();
  if (!candidate.windows.empty()) {
    w.key("windows").begin_array();
    for (const model::Window& win : candidate.windows) {
      w.begin_object().key("partition").integer(win.partition.value());
      w.key("offset").integer(win.offset);
      w.key("duration").integer(win.duration).end_object();
    }
    w.end_array();
  }
  w.key("partitions").begin_array();
  for (const model::PartitionModel& pm : candidate.partitions) {
    w.begin_object().key("id").integer(pm.id.value());
    w.key("name").string(pm.name).key("processes").begin_array();
    for (const model::ProcessModel& proc : pm.processes) {
      w.begin_object().key("name").string(proc.name);
      w.key("period").integer(ticks(proc.period));
      w.key("deadline").integer(ticks(proc.deadline));
      w.key("priority").integer(proc.priority);
      w.key("wcet").integer(proc.wcet);
      w.key("periodic").boolean(proc.periodic).end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace air::config
