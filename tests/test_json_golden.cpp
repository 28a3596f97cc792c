// Golden byte-identity suite for the JSON core and the serve wire format.
//
// The zero-copy parser/emitter rework must not move a single byte: parsed
// values must dump identically (plain and sorted-key), parse errors must
// keep their exact messages and offsets (error text is part of the serve
// response contract), serve responses over the request fixture must stay
// bit-identical, and canonical cache keys must not rotate (a changed
// canonical form would silently invalidate every deployed cache).
//
// The goldens were captured from the pre-rework implementation and are
// committed; any diff is an observable wire-format change. To regenerate
// after an *intentional* change, run the test binary with
// HPCARBON_REGEN_GOLDEN=1 and commit the rewritten fixtures together with
// an explanation of why the bytes moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace {

using namespace hpcarbon;

std::string data_path(const std::string& name) {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool regen_requested() {
  const char* env = std::getenv("HPCARBON_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  for (const auto& l : lines) out << l << '\n';
  std::fprintf(stderr, "regenerated golden %s (%zu lines)\n", path.c_str(),
               lines.size());
}

/// Compare produced lines against a committed golden, or rewrite the
/// golden under HPCARBON_REGEN_GOLDEN=1.
void expect_matches_golden(const std::vector<std::string>& produced,
                           const std::string& golden_name) {
  const std::string path = data_path(golden_name);
  if (regen_requested()) {
    write_lines(path, produced);
    return;
  }
  const std::vector<std::string> golden = read_lines(path);
  ASSERT_EQ(produced.size(), golden.size())
      << golden_name << " line count changed — the corpus and its golden "
      << "must move together";
  for (std::size_t i = 0; i < produced.size(); ++i) {
    EXPECT_EQ(produced[i], golden[i])
        << golden_name << " line " << i + 1 << " diverged";
  }
}

/// What the corpus golden records per document: dumps for valid
/// documents, the exact error text otherwise.
std::string corpus_result(const std::string& doc) {
  try {
    const json::Value v = json::Value::parse(doc);
    return "ok\t" + v.dump() + "\t" + v.dump(/*sort_keys=*/true);
  } catch (const Error& e) {
    return std::string("error\t") + e.what();
  }
}

TEST(JsonGolden, CorpusParseAndDumpBytes) {
  const auto corpus = read_lines(data_path("json_corpus.jsonl"));
  ASSERT_FALSE(corpus.empty());
  std::vector<std::string> produced;
  produced.reserve(corpus.size());
  for (const auto& doc : corpus) produced.push_back(corpus_result(doc));
  expect_matches_golden(produced, "json_corpus_golden.tsv");
}

TEST(JsonGolden, CorpusRoundTripIsStable) {
  // dump() output re-parsed and re-dumped must reproduce itself exactly —
  // emission is a fixed point of the parser, whatever the input spelling.
  for (const auto& doc : read_lines(data_path("json_corpus.jsonl"))) {
    json::Value v;
    try {
      v = json::Value::parse(doc);
    } catch (const Error&) {
      continue;  // error cases covered by CorpusParseAndDumpBytes
    }
    const std::string once = v.dump();
    EXPECT_EQ(json::Value::parse(once).dump(), once) << "input: " << doc;
    const std::string sorted = v.dump(/*sort_keys=*/true);
    EXPECT_EQ(json::Value::parse(sorted).dump(/*sort_keys=*/true), sorted)
        << "input: " << doc;
  }
}

TEST(JsonGolden, DumpToMatchesDump) {
  // The append-style emission the hot path uses must be byte-identical to
  // the returning form, including when appending after existing content.
  for (const auto& doc : read_lines(data_path("json_corpus.jsonl"))) {
    json::Value v;
    try {
      v = json::Value::parse(doc);
    } catch (const Error&) {
      continue;
    }
    for (const bool sort_keys : {false, true}) {
      std::string buf = "prefix:";
      v.dump_to(buf, sort_keys);
      EXPECT_EQ(buf, "prefix:" + v.dump(sort_keys)) << "input: " << doc;
    }
  }
}

TEST(JsonGolden, CanonicalKeysDoNotRotate) {
  // Canonical form + FNV key per parseable fixture request, or the exact
  // error text. A rotated key or reshaped canonical string silently severs
  // every deployed cache. canonical_requests.jsonl is parse-only: every
  // field of every family at a non-default value, every enum name, and one
  // line per single-fault error.
  std::vector<std::string> lines = read_lines(data_path("requests.jsonl"));
  for (auto& line : read_lines(data_path("canonical_requests.jsonl"))) {
    lines.push_back(std::move(line));
  }
  std::vector<std::string> produced;
  for (const auto& line : lines) {
    serve::Query q;
    try {
      q = serve::parse_query_line(line);
    } catch (const Error& e) {
      produced.push_back(std::string("error\t") + e.what());
      continue;
    }
    char key_hex[32];
    std::snprintf(key_hex, sizeof(key_hex), "%016llx",
                  static_cast<unsigned long long>(q.key));
    produced.push_back(std::string(key_hex) + "\t" + q.canonical);
    EXPECT_EQ(q.key, json::fnv1a64(q.canonical));
    // Round-trip oracle: a canonical key is itself a request that
    // normalizes to itself, and it is already in sorted-key dump form.
    const serve::Query again = serve::parse_query_line(q.canonical);
    EXPECT_EQ(again.canonical, q.canonical) << "input: " << line;
    EXPECT_EQ(again.key, q.key) << "input: " << line;
    EXPECT_EQ(json::Value::parse(q.canonical).dump(/*sort_keys=*/true),
              q.canonical)
        << "input: " << line;
  }
  expect_matches_golden(produced, "canonical_golden.tsv");
}

TEST(JsonGolden, ServeResponsesBitIdentical) {
  // The full front door: every fixture request line through a fresh
  // engine, responses byte-compared against the committed golden (success
  // and error lines alike). The trio fixture asks sched and fleetsim over
  // 1 to 7 regions, homes from the cleanest to the dirtiest, at capacity
  // 2 and 16: it pins the trio ranking of fleetsim/ablation.h, and its
  // golden was recorded by the build before that module existed.
  for (const auto& [fixture, golden] :
       {std::pair<std::string, std::string>{"requests.jsonl",
                                            "requests_golden.jsonl"},
        {"trio_requests.jsonl", "trio_golden.jsonl"}}) {
    SCOPED_TRACE(fixture);
    const auto lines = read_lines(data_path(fixture));
    serve::Engine engine;
    std::vector<std::string> produced;
    produced.reserve(lines.size());
    for (const auto& line : lines) produced.push_back(engine.handle_line(line));
    expect_matches_golden(produced, golden);

    // And the batch planner must agree with the line-at-a-time loop on a
    // second fresh engine, byte for byte.
    serve::Engine batch_engine;
    const auto batch = batch_engine.handle_batch(lines);
    ASSERT_EQ(batch.size(), produced.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i], produced[i]) << "batch/serve divergence on line "
                                       << i + 1;
    }
  }
}

}  // namespace
