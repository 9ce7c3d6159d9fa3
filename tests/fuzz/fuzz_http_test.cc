// Deterministic fuzzing of the telemetry server's request-head parser:
// seeded mutations of request lines (CR/LF splits, query strings, absolute
// URIs, NUL bytes, oversize heads) must never crash ParseRequestHead,
// every accepted head must be a GET of an origin-form path, and
// well-formed heads must round-trip their path and query string.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_harness.h"
#include "net/http_server.h"

namespace halk::net {
namespace {

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> kCorpus = {
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "GET /queryz?top=5 HTTP/1.1\r\n\r\n",
      "GET /profile?seconds=2&hz=99 HTTP/1.1\r\nConnection: close\r\n\r\n",
      "GET /traces?spans=10&&x= HTTP/1.0\r\n\r\n",
      "GET /?? HTTP/1.1\r\n\r\n",
      "GET http://localhost/metrics HTTP/1.1\r\n\r\n",
      "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
      "GET /healthz\r\n\r\n",
      "GET  /double-space HTTP/1.1\r\n\r\n",
      "GET /a\rb HTTP/1.1\r\n\r\n",
      "GET /a\nb HTTP/1.1\r\n\r\n",
      std::string("GET /nul\0byte HTTP/1.1\r\n\r\n", 27),
      "\r\n\r\n",
      "",
      "GET /" + std::string(20000, 'a') + " HTTP/1.1\r\n\r\n",
      "GET /x?" + std::string(20000, '&') + " HTTP/1.1\r\n" +
          std::string(20000, 'h') + "\r\n\r\n",
  };
  return kCorpus;
}

const std::vector<std::string>& Tokens() {
  static const std::vector<std::string> kTokens = {
      "GET ", "POST ", " HTTP/1.1", "\r\n", "\r", "\n", "\r\n\r\n", "?",
      "&",    "=",     "/",         " ",    "http://", "*", std::string(1, '\0'),
  };
  return kTokens;
}

TEST(HttpFuzzTest, ParserNeverCrashesAndAcceptsOnlyOriginFormGets) {
  int accepted = 0;
  fuzz::RunCorpus(
      Corpus(), Tokens(), /*seed=*/2027, /*iterations=*/20000,
      [&accepted](const std::string& input, const std::string& tag) {
        HttpRequest request;
        const Status parsed = ParseRequestHead(input, &request);
        if (!parsed.ok()) {
          EXPECT_TRUE(parsed.code() == StatusCode::kInvalidArgument ||
                      parsed.code() == StatusCode::kNotImplemented)
              << tag << ": " << parsed.ToString();
          return;
        }
        ++accepted;
        ASSERT_EQ(request.method, "GET") << tag;
        ASSERT_FALSE(request.path.empty()) << tag;
        ASSERT_EQ(request.path[0], '/') << tag;
        // Re-rendering what was understood parses back to the same target.
        std::string line = "GET " + request.path;
        if (!request.query.empty()) line += "?" + request.query;
        HttpRequest again;
        ASSERT_TRUE(ParseRequestHead(line + " HTTP/1.1\r\n\r\n", &again).ok())
            << tag;
        EXPECT_EQ(again.path, request.path) << tag;
        EXPECT_EQ(again.query, request.query) << tag;
      });
  EXPECT_GT(accepted, 0);
}

TEST(HttpFuzzTest, WellFormedHeadsRoundTripPathAndQuery) {
  // Path bytes exclude the separators of the request line and the query;
  // query bytes may repeat '?' and '&'.
  const std::string path_bytes = "abcXYZ019-._~%/=&;:@!$'()*+,";
  const std::string query_bytes = path_bytes + "?";
  fuzz::SplitMix64 rng(2028);
  for (int i = 0; i < 5000; ++i) {
    std::string path = "/";
    for (uint64_t n = rng.Below(24); n > 0; --n) {
      path += path_bytes[rng.Below(path_bytes.size())];
    }
    std::string query;
    for (uint64_t n = rng.Below(24); n > 0; --n) {
      query += query_bytes[rng.Below(query_bytes.size())];
    }
    const bool with_query = !query.empty() || rng.OneIn(4);
    const std::string head = "GET " + path + (with_query ? "?" + query : "") +
                             " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    HttpRequest request;
    ASSERT_TRUE(ParseRequestHead(head, &request).ok()) << head;
    EXPECT_EQ(request.method, "GET") << head;
    EXPECT_EQ(request.path, path) << head;
    EXPECT_EQ(request.query, query) << head;
  }
}

}  // namespace
}  // namespace halk::net
