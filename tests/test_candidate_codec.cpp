// The candidate decoder against a DOM reference, and the seeded mutation
// fuzz of util::json and the candidate codec.
//
// config::parse_candidate decodes a line straight from util::json::Reader.
// reference_parse_candidate below is the DOM decoder it replaced: parse
// the whole line into a json::Value tree, then read the schema from it.
// Every line must give the same outcome from both -- the same candidate
// (compared as candidate_to_jsonl bytes) or the same error string --
// including first-wins duplicate keys, wrong-typed fields, non-object
// array elements and the order in which errors are reported.
//
// The fuzz derives seeded mutants (byte flips, inserts, deletes,
// truncations, bracket splices, extreme numbers) from generated candidate
// lines and from the Fig. 8 integration file. Every mutant must parse or
// fail without a crash, every accepted document must survive
// parse(dump(x)), and an FNV-1a digest over all outcomes -- parse()'s
// (message, line, column) and the candidate bytes or error string -- must
// match the golden. Regenerate it after an *intentional* change with:
//   AIR_UPDATE_GOLDEN=1 ./air_tests --gtest_filter='JsonFuzz.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "config/candidates.hpp"
#include "config/export.hpp"
#include "config/fig8.hpp"
#include "fi/fault_plan.hpp"
#include "model/batch.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace air {
namespace {

using util::json::Value;

// ---------- the DOM reference decoder ----------

Ticks reference_ticks_of(const Value& v, std::string_view key,
                         Ticks fallback) {
  const std::int64_t raw = v.get_int(key, fallback);
  return raw < 0 ? kInfiniteTime : raw;
}

std::string reference_require_array(const Value& v, std::string_view key,
                                    const Value*& out) {
  out = v.find(key);
  if (out == nullptr) return std::string{key} + " missing";
  if (!out->is_array()) return std::string{key} + " must be an array";
  return {};
}

/// `raw` narrowed to int32; out of range, it reads 0 and sets `wide`.
std::int32_t reference_narrow(std::int64_t raw, bool& wide) {
  if (raw < INT32_MIN || raw > INT32_MAX) {
    wide = true;
    return 0;
  }
  return static_cast<std::int32_t>(raw);
}

config::CandidateParse reference_parse_candidate(std::string_view line) {
  config::CandidateParse result;
  bool wide_partition = false;
  bool wide_id = false;
  bool wide_priority = false;
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
  if (std::string err = reference_require_array(root, "requirements", reqs);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  for (const Value& r : reqs->as_array()) {
    model::ScheduleRequirement req;
    req.partition = PartitionId{
        reference_narrow(r.get_int("partition", 0), wide_partition)};
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
      window.partition = PartitionId{
          reference_narrow(w.get_int("partition", 0), wide_partition)};
      window.offset = w.get_int("offset", 0);
      window.duration = w.get_int("duration", 0);
      candidate.windows.push_back(window);
    }
  }

  const Value* partitions = nullptr;
  if (std::string err =
          reference_require_array(root, "partitions", partitions);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  for (const Value& p : partitions->as_array()) {
    model::PartitionModel pm;
    pm.id = PartitionId{reference_narrow(p.get_int("id", 0), wide_id)};
    pm.name = p.get_string("name", "P" + std::to_string(pm.id.value()));
    if (const Value* procs = p.find("processes"); procs != nullptr) {
      if (!procs->is_array()) {
        result.error = "processes must be an array";
        return result;
      }
      for (const Value& q : procs->as_array()) {
        model::ProcessModel proc;
        proc.name = q.get_string("name", "");
        proc.period = reference_ticks_of(q, "period", 0);
        proc.deadline = reference_ticks_of(q, "deadline", -1);
        proc.priority =
            reference_narrow(q.get_int("priority", 0), wide_priority);
        proc.wcet = q.get_int("wcet", 0);
        proc.periodic = q.get_bool("periodic", true);
        pm.processes.push_back(std::move(proc));
      }
    }
    candidate.partitions.push_back(std::move(pm));
  }

  if (wide_partition) {
    result.error = "partition must be a 32-bit integer";
  } else if (wide_id) {
    result.error = "partition id must be a 32-bit integer";
  } else if (wide_priority) {
    result.error = "priority must be a 32-bit integer";
  } else {
    result.candidate = std::move(candidate);
  }
  return result;
}

std::string outcome(const config::CandidateParse& parsed) {
  return parsed.ok() ? "ok " + config::candidate_to_jsonl(*parsed.candidate)
                     : "error " + parsed.error;
}

std::vector<std::string> generated_lines(std::size_t count,
                                         std::uint64_t seed) {
  model::CandidateSpec spec;
  spec.count = count;
  spec.seed = seed;
  std::vector<std::string> lines;
  for (const model::Candidate& c : model::generate_candidates(spec)) {
    lines.push_back(config::candidate_to_jsonl(c));
  }
  return lines;
}

// ---------- differential decode ----------

TEST(CandidateDecode, MatchesTheDomReferenceOnGeneratedStreams) {
  std::size_t accepted = 0;
  for (const std::uint64_t seed : {1u, 42u, 2024u}) {
    for (const std::string& line : generated_lines(128, seed)) {
      const std::string got = outcome(config::parse_candidate(line));
      ASSERT_EQ(got, outcome(reference_parse_candidate(line))) << line;
      // The codec is its own inverse on well-formed lines.
      ASSERT_EQ(got, "ok " + line);
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 3u * 128u);
}

TEST(CandidateDecode, MatchesTheDomReferenceOnEdgeLines) {
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  const std::string tail =
      R"(,"requirements":[{"partition":0,"period":100,"duration":10}],)"
      R"("partitions":[{"id":0,"processes":[{"name":"q","wcet":1}]}]})";
  const std::vector<std::string> lines = {
      // Duplicate keys at every level: the first occurrence wins, even
      // when it has the wrong type, and later ones are still parsed.
      R"({"id":1,"id":2,"name":"a","name":"b","mtf":10,"mtf":20,)"
      R"("requirements":[{"partition":0,"partition":1,"period":100,)"
      R"("period":50,"duration":10,"duration":5}],"requirements":[],)"
      R"("windows":[{"partition":0,"offset":0,"offset":5,"duration":10,)"
      R"("duration":1}],"windows":"x","partitions":[{"id":0,"id":1,)"
      R"("name":"P","name":"Q","processes":[{"name":"a","name":"b",)"
      R"("period":100,"period":1,"deadline":100,"deadline":2,)"
      R"("priority":1,"priority":2,"wcet":1,"wcet":2,"periodic":false,)"
      R"("periodic":true}],"processes":7}],"partitions":{}})",
      R"({"id":"x","id":-1,"requirements":"r","requirements":[],)"
      R"("partitions":[],"partitions":5})",
      R"({"id":1,"requirements":[],"partitions":[{"processes":5,)"
      R"("processes":[]}]})",
      R"({"id":1,"requirements":[],"partitions":[{"processes":[],)"
      R"("processes":5}]})",
      // Non-object elements in all four arrays.
      R"({"id":1,"requirements":[1,"a",null,[],true],"windows":[2,[],{}],)"
      R"("partitions":[3,{"id":1,"processes":[4,"q",{},null]},[]]})",
      // Wrong-typed fields take their fallbacks.
      R"({"id":true,"name":5,"mtf":"x","requirements":[{"partition":"0",)"
      R"("period":null,"duration":[1]}],"windows":[{"partition":{},)"
      R"("offset":"1","duration":false}],"partitions":[{"id":"1",)"
      R"("name":7,"processes":[{"name":null,"period":"p","deadline":true,)"
      R"("priority":{},"wcet":"w","periodic":1}]}]})",
      R"({"id":null,"name":[],"requirements":[],"partitions":[{"id":[],)"
      R"("name":null}]})",
      // Doubles truncate toward zero and saturate; a saturated 32-bit field
      // is out of range.
      R"({"id":80.9,"mtf":1e300,"requirements":[{"partition":-0.5,)"
      R"("period":80.9,"duration":1e300}],"windows":[{"partition":80.9,)"
      R"("offset":-0.5,"duration":-1e300}],"partitions":[{"id":-0.5,)"
      R"("processes":[{"period":-0.5,"deadline":-1e300,"priority":1e300,)"
      R"("wcet":80.9},{"period":-1,"deadline":80.9,"priority":-80.9}]}]})",
      R"({"id":80.9,"mtf":1e300,"requirements":[{"partition":-0.5,)"
      R"("period":80.9,"duration":1e300}],"windows":[{"partition":80.9,)"
      R"("offset":-0.5,"duration":-1e300}],"partitions":[{"id":-0.5,)"
      R"("processes":[{"period":-0.5,"deadline":-1e300,"priority":2.1e9,)"
      R"("wcet":80.9},{"period":-1,"deadline":80.9,"priority":-80.9}]}]})",
      R"({"id":-0.5,"mtf":-1e300,"requirements":[],"partitions":[]})",
      R"({"id":-1e300,"requirements":[],"partitions":[]})",
      R"({"id":9223372036854775807,"mtf":-9223372036854775808,)"
      R"("requirements":[],"partitions":[]})",
      R"({"id":9223372036854775808,"requirements":[],"partitions":[]})",
      R"({"id":1e400,"requirements":[],"partitions":[]})",
      R"({"id":-0.0,"mtf":-0,"requirements":[],"partitions":[]})",
      // Escapes in names and keys.
      R"({"id":1,"name":"café \"q\" é","requirements":[],)"
      R"("partitions":[{"id":0,"name":"é\"\\\/\b\f\n\r\t",)"
      R"("processes":[{"name":"caf\u00e9\\x\u0001\u20AC"}]}]})",
      R"({"i\u0064":3,"n\u0061me":"k","requirements":[],"partitions":[]})",
      R"({"requirements":[],"partitions":[],"i\u0064":-3})",
      R"({"id":2,"id\u0000":-3,"requirements":[],"partitions":[]})",
      R"({"id":1,"name":"\u12","requirements":[],"partitions":[]})",
      R"({"id":1,"name":"\q","requirements":[],"partitions":[]})",
      // A partition without a name is "P<id>", even when id comes last.
      R"({"id":1,"requirements":[],"partitions":[{"processes":[],"id":7},)"
      R"({"name":"N","id":8},{"id":-2},{}]})",
      // Syntax errors win over schema errors, in either order.
      R"({"id":-1,"requirements":5,"partitions":[}})",
      R"({"id":1,"requirements":[1,,],"partitions":5})",
      R"({"id":1,"requirements":[],"partitions":[]} x)",
      R"({"id":1,"requirements":[],"partitions":[]},)",
      R"({"id":1,"requirements":[],"partitions":[{"processes":"p"}],)",
      R"({"id":1,"requirements":tru,"partitions":[]})",
      R"({"id":1,"requirements":[],"partitions":[nul]})",
      R"({"id":1,"requirements":[-],"partitions":[]})",
      R"({"id":1,"requirements":[1e],"partitions":[]})",
      R"({"id":1,"requirements":[],"partitions":[],})",
      R"({"id":1,"requirements":[],"partitions":[] "x":1})",
      R"({"id":1,"requirements" [],"partitions":[]})",
      R"({"id":1,"requirements":[],"partitions":[1 2]})",
      R"({"id":1,"requirements":[],"partitions":["abc)",
      R"({"id":1,"requirements":[],"partitions":["abc\)",
      R"({,})",
      R"({)",
      R"([)",
      "",
      "   ",
      // Schema errors, in their order of precedence.
      R"([1,2])",
      R"("candidate")",
      R"(7)",
      R"(null)",
      R"({})",
      R"({"id":-1})",
      R"({"id":1})",
      R"({"id":1,"partitions":[]})",
      R"({"id":1,"requirements":{},"partitions":[]})",
      R"({"id":1,"requirements":[],"windows":{},"partitions":5})",
      R"({"id":1,"requirements":[],"windows":null})",
      R"({"id":1,"requirements":[]})",
      R"({"id":1,"requirements":[],"partitions":"p"})",
      R"({"id":1,"requirements":[],"partitions":[{"processes":[]},)"
      R"({"processes":{}},{"processes":1}]})",
      // ... and every pair of them on one line, in either key order.
      R"({"id":1,"windows":5,"partitions":[]})",
      R"({"windows":5,"id":1,"requirements":7,"partitions":[]})",
      R"({"windows":5,"id":-1})",
      R"({"id":1,"requirements":[],"windows":5,)"
      R"("partitions":[{"processes":1}]})",
      R"({"partitions":[{"processes":1}],"requirements":[],"windows":5})",
      R"({"partitions":[{"processes":1}],"id":-2,"requirements":[]})",
      R"({"id":1,"partitions":[{"processes":1}]})",
      R"({"partitions":5,"id":-1,"requirements":[]})",
      R"({"partitions":5,"windows":[]})",
      // Comments and whitespace inside a line.
      "{ \"id\" : 4 , // note\n \"requirements\":[\t],\r\"partitions\":[ ] }",
      "{\"id\":4,\"requirements\":[],\"partitions\":[]} // trailing",
      // Nesting inside an unknown key counts toward kMaxDepth with the
      // root object's own level.
      R"({"id":1,"x":)" + nested(util::json::kMaxDepth - 1) + tail,
      R"({"id":1,"x":)" + nested(util::json::kMaxDepth) + tail,
      R"({"id":1,"x":)" + nested(util::json::kMaxDepth + 1) + tail,
      R"({"id":1,"x":{"y":{"z":[{"w":)" + nested(util::json::kMaxDepth - 5) +
          "}]}}" + tail,
      R"({"id":1,"x":{"y":{"z":[{"w":)" + nested(util::json::kMaxDepth - 4) +
          "}]}}" + tail,
  };
  for (const std::string& line : lines) {
    EXPECT_EQ(outcome(config::parse_candidate(line)),
              outcome(reference_parse_candidate(line)))
        << line;
  }
}

TEST(CandidateDecode, StreamMatchesTheReferenceLineByLine) {
  std::string text = "// header\n\n  \t\r\n";
  std::vector<std::string> expected;
  std::size_t bad_lines = 0;
  for (const std::string& line : generated_lines(40, 9)) {
    text += line + "\r\n";
    expected.push_back(outcome(reference_parse_candidate(line)));
    if (expected.size() % 7 == 0) {
      text += "{\"id\":-4}\n";
      ++bad_lines;
    }
  }
  const config::CandidateStream stream = config::parse_candidates(text);
  EXPECT_EQ(stream.errors.size(), bad_lines);
  ASSERT_EQ(stream.candidates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ("ok " + config::candidate_to_jsonl(stream.candidates[i]),
              expected[i]);
  }
  for (const std::string& error : stream.errors) {
    EXPECT_NE(error.find(": id must be a non-negative integer"),
              std::string::npos)
        << error;
  }
}

// A value outside int32 in a 32-bit field is a line error: a wrapped value
// would name another partition or priority.
void expect_range_error(const std::string& line, const std::string& error) {
  const config::CandidateParse parsed = config::parse_candidate(line);
  EXPECT_FALSE(parsed.ok()) << line;
  EXPECT_EQ(parsed.error, error) << line;
  EXPECT_EQ(outcome(parsed), outcome(reference_parse_candidate(line)))
      << line;
}

TEST(CandidateDecode, RejectsAPartitionOutsideInt32) {
  const std::string procs = R"("partitions":[{"id":0,"processes":[]}]})";
  expect_range_error(
      R"({"id":1,"requirements":[{"partition":4294967296,"period":10,)"
      R"("duration":1}],)" + procs,
      "partition must be a 32-bit integer");
  expect_range_error(
      R"({"id":1,"requirements":[],"windows":[{"partition":-2147483649,)"
      R"("offset":0,"duration":1}],)" + procs,
      "partition must be a 32-bit integer");
  // The bounds themselves still fit.
  EXPECT_TRUE(config::parse_candidate(
                  R"({"id":1,"requirements":[{"partition":2147483647}],)"
                  R"("windows":[{"partition":-2147483648}],)" + procs)
                  .ok());
}

TEST(CandidateDecode, RejectsAPartitionIdOutsideInt32) {
  expect_range_error(
      R"({"id":1,"requirements":[],"partitions":[{"id":4294967297}]})",
      "partition id must be a 32-bit integer");
}

TEST(CandidateDecode, RejectsAPriorityOutsideInt32) {
  expect_range_error(
      R"({"id":1,"requirements":[],"partitions":[{"id":0,"processes":)"
      R"([{"name":"q","priority":1e300}]}]})",
      "priority must be a 32-bit integer");
  expect_range_error(
      R"({"id":1,"requirements":[],"partitions":[{"id":0,"processes":)"
      R"([{"name":"q","priority":-2147483649}]}]})",
      "priority must be a 32-bit integer");
}

// ---------- seeded mutation fuzz ----------

constexpr const char* kGoldenFuzzPath =
    AIR_SOURCE_DIR "/tests/golden/json_fuzz.digest";

constexpr std::size_t kCandidateMutants = 3584;
constexpr std::size_t kConfigMutants = 512;

constexpr std::string_view kExtremeNumbers[] = {
    "1e300", "-1e300", "1e400", "-1e-400", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "80.9", "-0.5", "-0.0", "-0", "0.", ".5", "1e", "-", "01", "2.5E+3",
    "1e-320", "4294967296", "-2147483649",
};

constexpr std::string_view kInsertBytes = "{}[]\",:\\/ \n\t0123456789eE.+-tfnu";

std::size_t pick(util::Rng& rng, std::size_t size) {
  return size == 0 ? 0
                   : static_cast<std::size_t>(rng.uniform(
                         0, static_cast<std::int64_t>(size) - 1));
}

/// Copy of `donor` from one of its brackets, of random length.
std::string bracket_fragment(util::Rng& rng, std::string_view donor) {
  std::size_t at = pick(rng, donor.size());
  while (at < donor.size() && donor[at] != '{' && donor[at] != '[') ++at;
  const auto length = static_cast<std::size_t>(rng.uniform(1, 160));
  return std::string{donor.substr(at, length)};
}

std::string mutate(std::string text, util::Rng& rng,
                   const std::vector<std::string>& donors) {
  const std::int64_t edits = rng.uniform(1, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    const std::size_t at = pick(rng, text.size() + 1);
    switch (rng.uniform(0, 5)) {
      case 0:  // byte flip
        if (at < text.size()) {
          text[at] = static_cast<char>(
              static_cast<unsigned char>(text[at]) ^ (1u << rng.uniform(0, 7)));
        }
        break;
      case 1:  // insert
        text.insert(at, 1,
                    rng.chance(0.75)
                        ? kInsertBytes[pick(rng, kInsertBytes.size())]
                        : static_cast<char>(rng.uniform(0, 255)));
        break;
      case 2:  // delete
        text.erase(at,
                   static_cast<std::size_t>(rng.uniform(1, 8)));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4:  // bracket splice: a donor fragment or a deep run of openers
        if (rng.chance(0.5)) {
          text.insert(at,
                      bracket_fragment(rng, donors[pick(rng, donors.size())]));
        } else {
          const auto run = static_cast<std::size_t>(rng.uniform(1, 300));
          std::string openers;
          for (std::size_t i = 0; i < run; ++i) {
            openers += rng.chance(0.5) ? "[" : "{\"k\":";
          }
          text.insert(at, openers);
        }
        break;
      default: {  // extreme number in place of the next digit run
        std::size_t start = at;
        while (start < text.size() &&
               (text[start] < '0' || text[start] > '9')) {
          ++start;
        }
        std::size_t end = start;
        while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
          ++end;
        }
        const std::string_view number =
            kExtremeNumbers[pick(rng, std::size(kExtremeNumbers))];
        text.replace(start, end - start, number);
        break;
      }
    }
  }
  return text;
}

struct FuzzDigests {
  std::uint64_t json{1469598103934665603ULL};
  std::uint64_t candidates{1469598103934665603ULL};
  std::size_t accepted_documents{0};
  std::size_t accepted_candidates{0};
  std::size_t round_trip_failures{0};
  std::size_t decoder_mismatches{0};
};

void fuzz_one(const std::string& mutant, FuzzDigests& d) {
  const util::json::ParseResult parsed = util::json::parse(mutant);
  if (parsed.ok()) {
    ++d.accepted_documents;
    d.json = fi::digest64("ok\n", d.json);
    const std::string dumped = parsed.value->dump();
    const util::json::ParseResult again = util::json::parse(dumped);
    if (!again.ok() || again.value->dump() != dumped) {
      ++d.round_trip_failures;
      ADD_FAILURE() << "parse(dump(x)) changed x: " << dumped.substr(0, 240);
    }
  } else {
    const util::json::ParseError& e = *parsed.error;
    d.json = fi::digest64(e.message + " " + std::to_string(e.line) + ":" +
                              std::to_string(e.column) + "\n",
                          d.json);
  }
  const std::string got = outcome(config::parse_candidate(mutant));
  if (got.rfind("ok ", 0) == 0) ++d.accepted_candidates;
  d.candidates = fi::digest64(got + "\n", d.candidates);
  if (got != outcome(reference_parse_candidate(mutant))) {
    ++d.decoder_mismatches;
    ADD_FAILURE() << "decoder and DOM reference disagree on: "
                  << mutant.substr(0, 240);
  }
}

FuzzDigests run_fuzz() {
  const std::vector<std::string> lines = generated_lines(64, 20);
  const std::vector<std::string> configs = {
      config::to_json(scenarios::fig8_config())};
  std::vector<std::string> donors = lines;
  donors.push_back(configs.front());

  FuzzDigests d;
  util::Rng rng(0xF022);
  for (std::size_t i = 0; i < kCandidateMutants; ++i) {
    fuzz_one(mutate(lines[i % lines.size()], rng, donors), d);
  }
  for (std::size_t i = 0; i < kConfigMutants; ++i) {
    fuzz_one(mutate(configs[i % configs.size()], rng, donors), d);
  }
  return d;
}

TEST(JsonFuzz, SeededMutantsMatchTheGoldenOutcomes) {
  const FuzzDigests d = run_fuzz();
  EXPECT_EQ(d.round_trip_failures, 0u);
  EXPECT_EQ(d.decoder_mismatches, 0u);
  // Not vacuous: both outcomes occur in quantity at both layers.
  const std::size_t total = kCandidateMutants + kConfigMutants;
  EXPECT_GT(d.accepted_documents, total / 10);
  EXPECT_LT(d.accepted_documents, total - total / 10);
  EXPECT_GT(d.accepted_candidates, total / 20);

  if (std::getenv("AIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFuzzPath, std::ios::binary);
    out << "json " << std::hex << d.json << "\n"
        << "candidates " << std::hex << d.candidates << "\n";
    GTEST_SKIP() << "golden digests regenerated at " << kGoldenFuzzPath;
  }

  std::ifstream in(kGoldenFuzzPath);
  ASSERT_TRUE(in) << "missing " << kGoldenFuzzPath
                  << " -- regenerate with AIR_UPDATE_GOLDEN=1";
  std::string key;
  std::uint64_t value = 0;
  std::uint64_t golden_json = 0;
  std::uint64_t golden_candidates = 0;
  while (in >> key >> std::hex >> value) {
    if (key == "json") golden_json = value;
    if (key == "candidates") golden_candidates = value;
  }
  EXPECT_EQ(d.json, golden_json)
      << "util::json outcomes diverged from the golden snapshot; if the "
         "change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
  EXPECT_EQ(d.candidates, golden_candidates)
      << "candidate decode outcomes diverged from the golden snapshot; if "
         "the change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace air
