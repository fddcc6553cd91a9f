// Differential test of the request grammar (src/net/dispatch.h). The
// dispatcher reads every number as a whole token; the stream parser it
// replaced read numbers with `operator>>`, which also takes the leading
// part of a token (`1.5` in the group slot read as group 1 and coordinate
// 0.5). The reference below is that stream parser's parse, kept as it was.
//
// Requests are generated from labelled tokens joined by every in-line
// whitespace character ('\n' ends the line). A request that holds no
// partly-read number must get the reference's reply bytes and consume
// the reference's payload lines; one that holds a partly-read number must
// be answered ERR and still consume the same lines. When the reference
// parse succeeds, its reply is the reply to the same request printed
// plainly (every number in canonical form), which any parser reads alike.

#include "net/dispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "file_bytes.h"
#include "replica/replica_manager.h"
#include "service/session_layout.h"
#include "service/session_manager.h"
#include "util/stringutil.h"

namespace fdm {
namespace {

// ---------------------------------------------------------------------------
// The reference: the stream parser.
// ---------------------------------------------------------------------------

bool RefAtLineEnd(std::istringstream& in) {
  std::string extra;
  return !(in >> extra);
}

std::string RefParsePointFields(std::istringstream& in, int64_t* id,
                                int32_t* group, std::vector<double>* coords) {
  if (!(in >> *id >> *group)) {
    return "requires <id> <group> <coords...>";
  }
  const size_t start = coords->size();
  double c = 0.0;
  while (in >> c) coords->push_back(c);
  if (coords->size() == start || !in.eof()) {
    coords->resize(start);
    return "requires numeric coordinates";
  }
  for (size_t i = start; i < coords->size(); ++i) {
    if (!std::isfinite((*coords)[i])) {
      coords->resize(start);
      return "requires finite coordinates";
    }
  }
  return "";
}

/// Prints a double so that every parser reads it back bit for bit.
std::string Exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string PointText(int64_t id, int32_t group,
                      const std::vector<double>& coords) {
  std::string text = std::to_string(id) + " " + std::to_string(group);
  for (const double c : coords) text += " " + Exact(c);
  return text;
}

/// What the reference makes of one request.
struct Reference {
  /// The reply when the request is answered without running anything (a
  /// parse failure, or a reply the verb alone decides).
  std::string reply;
  /// Otherwise the request it amounts to, printed plainly, payload lines
  /// included. Both empty: a blank line, which gets no reply.
  std::string canonical;
  int64_t consumed = 0;  // payload lines read
};

void RefDrain(std::istream& payload, int64_t n, Reference* ref) {
  std::string discard;
  for (int64_t i = 0; i < n && std::getline(payload, discard); ++i) {
    ++ref->consumed;
  }
}

/// The stream parser's reading of one request in either role.
Reference RefParse(const std::string& line, const std::string& payload_text,
                   bool follower, const std::string& root) {
  Reference ref;
  std::istringstream in(line);
  std::istringstream payload(payload_text);
  std::string command;
  if (!(in >> command)) return ref;  // blank line
  if (command == "QUIT" || command == "LIST") {
    if (!RefAtLineEnd(in)) {
      ref.reply = "ERR " + command + " takes no arguments\n";
    } else {
      ref.canonical = command + "\n";
    }
    return ref;
  }
  if (command == "METRICS") {
    std::string mode;
    in >> mode;
    if (mode == "json" && RefAtLineEnd(in)) {
      ref.canonical = "METRICS json\n";
    } else if (mode.empty()) {
      ref.canonical = "METRICS\n";
    } else {
      ref.reply = "ERR METRICS takes no argument or 'json'\n";
    }
    return ref;
  }
  if (follower && (command == "CREATE" || command == "OBSERVE" ||
                   command == "OBSERVEB" || command == "SNAPSHOT" ||
                   command == "RESTORE")) {
    if (command == "OBSERVEB") {
      std::string name;
      int64_t n = 0;
      if ((in >> name >> n) && n > 0) RefDrain(payload, n, &ref);
    }
    ref.reply = "ERR read-only follower (this process serves --follow=" +
                root + ")\n";
    return ref;
  }
  std::string name;
  if (!(in >> name)) {
    ref.reply = "ERR " + command + " requires a session name\n";
    return ref;
  }
  const bool session_only =
      follower ? command == "SOLVE" || command == "STATS" ||
                     command == "LAG" || command == "REPLICA"
               : command == "SOLVE" || command == "STATS" ||
                     command == "SNAPSHOT" || command == "RESTORE";
  if (session_only) {
    if (!RefAtLineEnd(in)) {
      ref.reply = "ERR " + command + " takes only a session name\n";
    } else {
      ref.canonical = command + " " + name + "\n";
    }
  } else if (follower) {
    ref.reply = "ERR unknown command '" + command + "'\n";
  } else if (command == "OBSERVE") {
    int64_t id = -1;
    int32_t group = 0;
    std::vector<double> coords;
    const std::string error = RefParsePointFields(in, &id, &group, &coords);
    if (!error.empty()) {
      ref.reply = "ERR OBSERVE " + error + "\n";
    } else {
      ref.canonical =
          "OBSERVE " + name + " " + PointText(id, group, coords) + "\n";
    }
  } else if (command == "OBSERVEB") {
    int64_t n = -1;
    if (!(in >> n) || n < 0) {
      ref.reply = "ERR OBSERVEB requires <name> <n>\n";
      return ref;
    }
    in.clear();
    if (!RefAtLineEnd(in)) {
      RefDrain(payload, n, &ref);
      ref.reply = "ERR OBSERVEB takes nothing after <n>\n";
      return ref;
    }
    std::string error;
    std::string points;
    std::string point_line;
    for (int64_t i = 0; i < n; ++i) {
      if (!std::getline(payload, point_line)) {
        error = "stream ended mid-batch";
        break;
      }
      ++ref.consumed;
      if (!error.empty()) continue;
      std::istringstream pin(point_line);
      int64_t id = -1;
      int32_t group = 0;
      std::vector<double> coords;
      const std::string reason =
          RefParsePointFields(pin, &id, &group, &coords);
      if (!reason.empty()) {
        error = "batch line " + std::to_string(i) + " " + reason;
        continue;
      }
      points += PointText(id, group, coords) + "\n";
    }
    if (!error.empty()) {
      ref.reply = "ERR OBSERVEB " + error + "\n";
    } else {
      ref.canonical =
          "OBSERVEB " + name + " " + std::to_string(n) + "\n" + points;
    }
  } else if (command == "RMANIFEST" || command == "RFETCHSNAP" ||
             command == "RFETCHWAL") {
    int64_t seq = 0;
    std::string offset_text;
    uint64_t offset = 0;
    if (!IsValidSessionName(name)) {
      ref.reply = "ERR invalid session name\n";
    } else if (command == "RFETCHSNAP") {
      if (!(in >> seq) || !RefAtLineEnd(in)) {
        ref.reply = "ERR RFETCHSNAP requires <name> <seq>\n";
      } else {
        ref.canonical =
            "RFETCHSNAP " + name + " " + std::to_string(seq) + "\n";
      }
    } else if (command == "RFETCHWAL") {
      if (!(in >> seq) || ((in >> offset_text) && !RefAtLineEnd(in)) ||
          (!offset_text.empty() && !ParseUint64(offset_text, &offset))) {
        ref.reply = "ERR RFETCHWAL requires <name> <first_seq> [<offset>]\n";
      } else {
        ref.canonical = "RFETCHWAL " + name + " " + std::to_string(seq) +
                        (offset_text.empty() ? ""
                                             : " " + std::to_string(offset)) +
                        "\n";
      }
    } else if (!RefAtLineEnd(in)) {
      ref.reply = "ERR RMANIFEST takes only a session name\n";
    } else {
      ref.canonical = "RMANIFEST " + name + "\n";
    }
  } else if (command == "REPLICA" || command == "LAG") {
    ref.reply =
        "ERR " + command + " is a follower verb (start with --follow=DIR)\n";
  } else {
    ref.reply = "ERR unknown command '" + command + "'\n";
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Labelled tokens and generated requests.
// ---------------------------------------------------------------------------

/// How `operator>>` reads a whole token into a T: all of it, none of it,
/// or only part (some characters taken, then a stop or a failure).
enum class Read { kWhole, kNone, kPartly };

template <typename T>
Read ReadAs(const std::string& token) {
  std::istringstream in(token);
  T value{};
  in >> value;
  const bool ok = !in.fail();
  in.clear();
  const auto taken = static_cast<size_t>(in.tellg());
  if (ok && taken == token.size()) return Read::kWhole;
  return taken == 0 ? Read::kNone : Read::kPartly;
}

// Labels as coordinates. As integers some read differently (`1E5` reads
// partly), so every slot is classified by the type it is read as.
const std::vector<std::string> kWellFormed = {
    "+5", "-0", "007", ".5", "5.", "1E5", "4e-324", "1e-400",
    "0",  "1",  "3",   "0.25"};
const std::vector<std::string> kNonNumeric = {"inf", "nan", "x"};
const std::vector<std::string> kPartlyRead = {
    "1.2.3", "5-3", "1e5-3", "2junk", "0x10", "1,5", "1e999",
    "1e",    "1e+", "-",     ".",     "+",    "+-5"};
constexpr char kBlanks[] = " \t\v\f\r";

class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  size_t Below(size_t n) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<size_t>(state_ % n);
  }
  std::string Pick(const std::vector<std::string>& pool) {
    return pool[Below(pool.size())];
  }
  /// Mostly well-formed, sometimes non-numeric or partly read.
  std::string Token() {
    const size_t roll = Below(10);
    if (roll < 7) return Pick(kWellFormed);
    return roll < 8 ? Pick(kNonNumeric) : Pick(kPartlyRead);
  }
  std::string Blank() {
    std::string blank(1, kBlanks[Below(sizeof(kBlanks) - 1)]);
    if (Below(4) == 0) blank += kBlanks[Below(sizeof(kBlanks) - 1)];
    return blank;
  }
  /// Joins `tokens` with blanks, sometimes with blanks before and after
  /// (a trailing '\r' is a CRLF client).
  std::string Join(const std::vector<std::string>& tokens) {
    std::string line = Below(4) == 0 ? Blank() : "";
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) line += Blank();
      line += tokens[i];
    }
    if (Below(4) == 0) line += Blank();
    return line;
  }

 private:
  uint64_t state_;
};

struct Sample {
  std::string line;
  std::string payload;  // '\n'-terminated lines after it
  bool partly = false;  // a number slot holds a partly-read token
};

/// `<id> <group> <c0> ...` with `coords` coordinates; flags a partly-read
/// number in `*partly`.
std::vector<std::string> PointTokens(Gen& gen, size_t coords, bool* partly) {
  // Ids and groups half the time from plain integers, so that many points
  // are accepted (groups 0..1 fit both sessions).
  std::vector<std::string> tokens = {
      gen.Below(2) == 0 ? gen.Pick({"12", "+7", "007", "-0", "0"})
                        : gen.Token(),
      gen.Below(2) == 0 ? gen.Pick({"0", "1", "+1", "-0", "001"})
                        : gen.Token()};
  *partly = *partly || ReadAs<int64_t>(tokens[0]) == Read::kPartly ||
            ReadAs<int32_t>(tokens[1]) == Read::kPartly;
  for (size_t i = 0; i < coords; ++i) {
    tokens.push_back(gen.Token());
    *partly = *partly || ReadAs<double>(tokens.back()) == Read::kPartly;
  }
  return tokens;
}

Sample ObserveSample(Gen& gen) {
  Sample sample;
  std::vector<std::string> tokens = {"OBSERVE",
                                     gen.Pick({"s", "u", "ghost"})};
  const size_t coords = gen.Below(3) == 0 ? gen.Below(4) : 2;  // dim 2
  for (const std::string& t : PointTokens(gen, coords, &sample.partly)) {
    tokens.push_back(t);
  }
  sample.line = gen.Join(tokens);
  return sample;
}

Sample ObserveBatchSample(Gen& gen) {
  Sample sample;
  const std::string count =
      gen.Below(2) == 0
          ? gen.Pick({"0", "1", "2", "3", "+2", "-0", "002", "-1"})
          : gen.Token();
  std::vector<std::string> header = {"OBSERVEB", gen.Pick({"s", "u"}), count};
  const bool extra = gen.Below(8) == 0;
  if (extra) header.push_back(gen.Token());
  sample.line = gen.Join(header);
  // Point lines are parsed only under a header that reads whole, and only
  // as many as it announces.
  int64_t parsed = 0;
  if (ReadAs<int64_t>(count) == Read::kWhole && !extra) {
    std::istringstream(count) >> parsed;
  }
  sample.partly = ReadAs<int64_t>(count) == Read::kPartly;
  const int64_t lines = static_cast<int64_t>(gen.Below(7));
  for (int64_t i = 0; i < lines; ++i) {
    bool partly = false;
    sample.payload +=
        gen.Join(PointTokens(gen, 1 + gen.Below(3), &partly)) + "\n";
    sample.partly = sample.partly || (partly && i < parsed);
  }
  return sample;
}

Sample FetchSample(Gen& gen) {
  Sample sample;
  const bool wal = gen.Below(2) == 0;
  const std::string seq = gen.Token();
  sample.partly = ReadAs<int64_t>(seq) == Read::kPartly;
  std::vector<std::string> tokens = {wal ? "RFETCHWAL" : "RFETCHSNAP",
                                     gen.Pick({"s", "ghost", "a/b"}), seq};
  if (wal && gen.Below(2) == 0) {
    tokens.push_back(gen.Below(2) == 0
                         ? gen.Pick({"0", "8", "60", "+8", "-8", "abc"})
                         : gen.Token());
  }
  if (gen.Below(8) == 0) tokens.push_back(gen.Token());
  sample.line = gen.Join(tokens);
  return sample;
}

/// Verbs that carry no number: only their arity is checked.
Sample NoPayloadSample(Gen& gen) {
  const std::string verb =
      gen.Pick({"SOLVE", "STATS", "SNAPSHOT", "RESTORE", "RMANIFEST", "LAG",
                "REPLICA", "LIST", "QUIT", "METRICS", "FROB"});
  std::vector<std::string> tokens = {verb};
  if (verb == "METRICS") {
    if (gen.Below(2) == 0) tokens.push_back("json");
  } else if (verb != "LIST" && verb != "QUIT" && gen.Below(8) != 0) {
    tokens.push_back(gen.Pick({"s", "ghost"}));
  }
  const size_t extra = gen.Below(2) == 0 ? 0 : 1 + gen.Below(2);
  for (size_t i = 0; i < extra; ++i) tokens.push_back(gen.Token());
  return Sample{gen.Join(tokens), "", false};
}

std::vector<Sample> Samples() {
  Gen gen(0x9e3779b97f4a7c15ull);
  std::vector<Sample> samples;
  for (int i = 0; i < 1500; ++i) samples.push_back(ObserveSample(gen));
  for (int i = 0; i < 600; ++i) samples.push_back(ObserveBatchSample(gen));
  for (int i = 0; i < 400; ++i) samples.push_back(FetchSample(gen));
  for (int i = 0; i < 400; ++i) samples.push_back(NoPayloadSample(gen));
  // Interleave the kinds, so reads and writes alternate.
  std::vector<Sample> mixed;
  while (!samples.empty()) {
    const size_t i = gen.Below(samples.size());
    mixed.push_back(std::move(samples[i]));
    samples[i] = std::move(samples.back());
    samples.pop_back();
  }
  return mixed;
}

// ---------------------------------------------------------------------------
// Running requests.
// ---------------------------------------------------------------------------

struct Served {
  std::string reply;
  int64_t consumed = 0;
  net::RequestOutcome outcome = net::RequestOutcome::kReply;
};

int64_t CountLines(std::string_view text) {
  return static_cast<int64_t>(std::count(text.begin(), text.end(), '\n'));
}

Served RunOn(net::RequestDispatcher& dispatcher, const std::string& line,
             const std::string& payload_text) {
  Served run;
  net::StringLineSource payload(payload_text);
  run.outcome = dispatcher.HandleRequest(line, payload, &run.reply);
  run.consumed = CountLines(payload_text) - CountLines(payload.rest());
  return run;
}

/// Runs a canonical request (its first line is the command line).
Served RunCanonical(net::RequestDispatcher& dispatcher,
                    const std::string& text) {
  const size_t nl = text.find('\n');
  return RunOn(dispatcher, text.substr(0, nl), text.substr(nl + 1));
}

/// The reply to a request the reference says runs: byte-identical, except
/// that METRICS renders a registry that counts the requests in between.
void ExpectSameRun(const Served& actual, const Served& expected,
                   const std::string& canonical, const std::string& what) {
  EXPECT_EQ(actual.outcome, expected.outcome) << what;
  if (canonical == "METRICS json\n") {
    EXPECT_EQ(actual.reply.rfind("OK {", 0), 0u) << what;
  } else if (canonical == "METRICS\n") {
    EXPECT_TRUE(actual.reply.ends_with("\nOK\n")) << what;
  } else {
    EXPECT_EQ(actual.reply, expected.reply) << what;
  }
}

std::string Describe(const Sample& sample) {
  std::string text;
  for (const char c : sample.line + "\n" + sample.payload) {
    if (c == '\t') {
      text += "\\t";
    } else if (c == '\v') {
      text += "\\v";
    } else if (c == '\f') {
      text += "\\f";
    } else if (c == '\r') {
      text += "\\r";
    } else if (c == '\n') {
      text += "\\n";
    } else {
      text += c;
    }
  }
  return text;
}

/// The WAL segments of session `name` under `root`, file name and bytes.
std::vector<std::pair<std::string, std::string>> WalFiles(
    const std::string& root, const std::string& name) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           SessionWalDir(root + "/" + name))) {
    auto bytes = FileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    files.emplace_back(entry.path().filename().string(), *bytes);
  }
  std::sort(files.begin(), files.end());
  return files;
}

class RequestGrammarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/fdm_request_grammar_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// A primary holding `s` (SFDM-2 over groups 0..1, dedup on) and `u`
  /// (unconstrained), both of dimension 2.
  std::unique_ptr<SessionManager> NewPrimary(const std::string& sub) {
    SessionManagerOptions options;
    options.root_dir = root_ + "/" + sub;
    auto manager = SessionManager::Create(options);
    EXPECT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_TRUE((*manager)
                    ->CreateSession("s",
                                    "algo=sfdm2 dim=2 quotas=2,2 dmin=0.01 "
                                    "dmax=100 dedup=on")
                    .ok());
    EXPECT_TRUE((*manager)
                    ->CreateSession("u",
                                    "algo=streaming_dm dim=2 k=3 dmin=0.01 "
                                    "dmax=100")
                    .ok());
    return std::move(manager.value());
  }

  std::string root_;
};

TEST_F(RequestGrammarTest, TokenLabelsAreHowTheStreamReadsCoordinates) {
  for (const std::string& t : kWellFormed) {
    EXPECT_EQ(ReadAs<double>(t), Read::kWhole) << t;
  }
  for (const std::string& t : kNonNumeric) {
    EXPECT_EQ(ReadAs<double>(t), Read::kNone) << t;
  }
  for (const std::string& t : kPartlyRead) {
    EXPECT_EQ(ReadAs<double>(t), Read::kPartly) << t;
  }
}

TEST_F(RequestGrammarTest, PrimaryRepliesAsTheStreamParserExceptOnPartlyRead) {
  // `a` serves the generated requests. `b` serves the canonical form of
  // each mutation the reference accepts (ingest, SNAPSHOT, RESTORE, QUIT),
  // so both hold the same state and their replies (dup=, kept=) compare.
  // Reads run their canonical form on `a` itself, right after: STATS
  // carries measured solve latencies, and snapshot files their write time.
  auto a_manager = NewPrimary("a");
  auto b_manager = NewPrimary("b");
  net::RequestDispatcher a(a_manager.get(), root_ + "/a");
  net::RequestDispatcher b(b_manager.get(), root_ + "/b");
  int partly = 0;
  int ok = 0;
  for (const Sample& sample : Samples()) {
    const std::string what = Describe(sample);
    const Reference ref = RefParse(sample.line, sample.payload,
                                   /*follower=*/false, root_ + "/a");
    const Served actual = RunOn(a, sample.line, sample.payload);
    EXPECT_EQ(actual.consumed, ref.consumed) << what;
    if (sample.partly) {
      // Rejected by the parser, not by the session after a misread.
      ++partly;
      EXPECT_TRUE(actual.reply.starts_with("ERR OBSERVE") ||
                  actual.reply.starts_with("ERR RFETCH") ||
                  actual.reply == "ERR invalid session name\n")
          << what << " -> " << actual.reply;
      continue;
    }
    if (ref.canonical.empty()) {
      EXPECT_EQ(actual.reply, ref.reply) << what;
      continue;
    }
    const bool mutation =
        ref.canonical.starts_with("OBSERVE") ||
        ref.canonical.starts_with("SNAPSHOT") ||
        ref.canonical.starts_with("RESTORE") || ref.canonical == "QUIT\n";
    const Served expected = RunCanonical(mutation ? b : a, ref.canonical);
    ExpectSameRun(actual, expected, ref.canonical, what);
    if (actual.reply.starts_with("OK")) ++ok;
  }
  // The generator reaches both sides of the contract.
  EXPECT_GT(partly, 1000);
  EXPECT_GT(ok, 300);
  // Every accepted point was read to the same id, group and coordinate
  // bits: the two logs are byte-identical.
  for (const std::string name : {"s", "u"}) {
    ASSERT_TRUE(a_manager->Snapshot(name).ok());  // flushes the WAL
    ASSERT_TRUE(b_manager->Snapshot(name).ok());
    EXPECT_TRUE(WalFiles(root_ + "/a", name) == WalFiles(root_ + "/b", name))
        << "session " << name << ": the two logs differ";
  }
}

TEST_F(RequestGrammarTest, FollowerRepliesAsTheStreamParser) {
  // A follower reads no number but OBSERVEB's count, which only decides
  // how many lines its read-only rejection drains: every reply matches.
  // Two followers of one primary: `a` serves the generated requests and
  // `b` their canonical forms, so polls (REPLICA, LAG) advance both alike.
  auto primary = NewPrimary("p");
  const double coords[] = {0.5, 0.25};
  const StreamPoint point{1, 0, coords};
  ASSERT_TRUE(primary->Ingest("s", {&point, 1}, /*as_batch=*/false).ok());
  ASSERT_TRUE(primary->Snapshot("s").ok());
  ReplicaManagerOptions options;
  options.primary_root = root_ + "/p";
  auto a_replicas = ReplicaManager::Create(options);
  auto b_replicas = ReplicaManager::Create(options);
  ASSERT_TRUE(a_replicas.ok()) << a_replicas.status().ToString();
  ASSERT_TRUE(b_replicas.ok()) << b_replicas.status().ToString();
  net::RequestDispatcher a(a_replicas->get(), options.primary_root);
  net::RequestDispatcher b(b_replicas->get(), options.primary_root);
  for (const Sample& sample : Samples()) {
    const std::string what = Describe(sample);
    const Reference ref = RefParse(sample.line, sample.payload,
                                   /*follower=*/true, options.primary_root);
    const Served actual = RunOn(a, sample.line, sample.payload);
    EXPECT_EQ(actual.consumed, ref.consumed) << what;
    if (ref.canonical.empty()) {
      EXPECT_EQ(actual.reply, ref.reply) << what;
    } else {
      ExpectSameRun(actual, RunCanonical(b, ref.canonical), ref.canonical,
                    what);
    }
  }
}

TEST(ReplyFormatTest, DoublesPrintAsTheStreamPrintsThem) {
  const auto expect_same = [](double v) {
    std::ostringstream stream;
    stream << v;
    std::string text;
    AppendGeneral(v, &text);
    EXPECT_EQ(text, stream.str()) << Exact(v);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, inf, -inf, nan, -nan, 1e-320, 4.9406564584124654e-324,
        123456.5, 1234565.0, 999999.5, 0.0001, 0.00001, 1e16, 1e21, 0.1,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min()}) {
    expect_same(v);
  }
  Gen gen(0x2545f4914f6cdd1dull);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = 0;
    for (int part = 0; part < 4; ++part) {
      bits = (bits << 16) | gen.Below(1 << 16);
    }
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    expect_same(v);                                   // any bit pattern
    expect_same(static_cast<double>(bits % 2000001) / 1000.0 - 1000.0);
    expect_same(static_cast<double>(static_cast<int64_t>(bits % 20000000)));
  }
}

}  // namespace
}  // namespace fdm
