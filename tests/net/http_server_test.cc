#include "net/http_server.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/http_client_for_test.h"

namespace halk::net {
namespace {

TEST(QueryParamTest, ParsesPairs) {
  EXPECT_EQ(QueryParam("a=1&b=2", "a"), "1");
  EXPECT_EQ(QueryParam("a=1&b=2", "b"), "2");
  EXPECT_EQ(QueryParam("a=1&b=2", "c"), "");
  EXPECT_EQ(QueryParam("a=1&b=2", "c", "9"), "9");
  EXPECT_EQ(QueryParam("", "a", "fallback"), "fallback");
  EXPECT_EQ(QueryParam("a=", "a", "fallback"), "");
}

TEST(QueryParamTest, MatchesWholeKeysOnly) {
  // `b` must not match inside `ab`, and a valueless key is not a pair.
  EXPECT_EQ(QueryParam("ab=1", "b"), "");
  EXPECT_EQ(QueryParam("seconds=5&spans=7", "s", "none"), "none");
  EXPECT_EQ(QueryParam("spans", "spans", "none"), "none");
}

TEST(HttpServerTest, BindsEphemeralPortAndStops) {
  HttpServer server;
  EXPECT_EQ(server.port(), 0);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(HttpServerTest, ServesRegisteredHandler) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "pong\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  const TestHttpResponse response = HttpGet(server.port(), "/ping");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "pong\n");
  EXPECT_EQ(response.content_type, "text/plain; charset=utf-8");
  server.Stop();
}

TEST(HttpServerTest, HandlerSeesQueryString) {
  HttpServer server;
  server.Handle("/echo", [](const HttpRequest& request) -> HttpResponse {
    return {200, "text/plain; charset=utf-8",
            request.path + "|" + QueryParam(request.query, "x", "?")};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/echo?x=42&y=1").body, "/echo|42");
  EXPECT_EQ(HttpGet(server.port(), "/echo").body, "/echo|?");
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404) {
  HttpServer server;
  server.Handle("/known", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(HttpGet(server.port(), "/unknown").status, 404);
  server.Stop();
}

TEST(HttpServerTest, NonGetIs405) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawHttpExchange(
      server.port(), "POST /x HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(raw.find(" 405 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineIs400) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  const std::string raw =
      RawHttpExchange(server.port(), "this is not http\r\n\r\n");
  EXPECT_NE(raw.find(" 400 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, OversizedRequestHeadIs400) {
  HttpServer::Options options;
  options.max_request_bytes = 256;
  HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawHttpExchange(
      server.port(), "GET /" + std::string(1024, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_NE(raw.find(" 400 "), std::string::npos) << raw;
  server.Stop();
}

TEST(HttpServerTest, PortAlreadyBoundFailsCleanly) {
  HttpServer first;
  ASSERT_TRUE(first.Start().ok());
  HttpServer::Options taken;
  taken.port = first.port();
  HttpServer second(taken);
  const Status started = second.Start();
  EXPECT_FALSE(started.ok());
  // A failed Start leaves the server restartable on a free port.
  first.Stop();
  ASSERT_TRUE(second.Start().ok());
  EXPECT_GT(second.port(), 0);
  second.Stop();
}

// TSan-targeted: concurrent clients against one server, handlers touching
// shared state, Stop racing the last requests.
TEST(HttpServerTest, ConcurrentClients) {
  HttpServer::Options options;
  options.num_threads = 4;
  HttpServer server(options);
  std::atomic<int64_t> handled{0};
  server.Handle("/inc", [&handled](const HttpRequest&) -> HttpResponse {
    // order: test counter; the final load happens after every join.
    handled.fetch_add(1, std::memory_order_relaxed);
    return {200, "text/plain; charset=utf-8", "ok\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequests; ++i) {
        if (HttpGet(server.port(), "/inc").status == 200) {
          // order: test counter, read after join.
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(ok_count.load(), kClients * kRequests);
  EXPECT_EQ(handled.load(), kClients * kRequests);
}

/// Connects to 127.0.0.1:`port` and sends nothing; -1 on failure.
int OpenIdleConnection(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One idle client per pool thread (the default two) must neither wedge
// /healthz nor hang Stop().
TEST(HttpServerTest, IdleConnectionsDoNotWedgeServingOrStop) {
  using Clock = std::chrono::steady_clock;
  HttpServer server;
  server.Handle("/healthz", [](const HttpRequest&) -> HttpResponse {
    return {200, "application/json; charset=utf-8", "{\"status\":\"ok\"}\n"};
  });
  ASSERT_TRUE(server.Start().ok());

  std::vector<int> idle = {OpenIdleConnection(server.port()),
                           OpenIdleConnection(server.port())};
  for (const int fd : idle) ASSERT_GE(fd, 0);
  // Let both pool threads pick up an idle connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Clock::time_point start = Clock::now();
  EXPECT_EQ(HttpGet(server.port(), "/healthz").status, 200);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));

  idle.push_back(OpenIdleConnection(server.port()));
  idle.push_back(OpenIdleConnection(server.port()));
  for (const int fd : idle) ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  start = Clock::now();
  server.Stop();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  for (const int fd : idle) ::close(fd);
}

/// Connects to 127.0.0.1:`port` with a small receive buffer, sends a GET
/// for `path`, and never reads the response; -1 on failure.
int OpenSlowReader(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const std::string request = "GET " + path + " HTTP/1.1\r\n\r\n";
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::send(fd, request.data(), request.size(), 0) !=
          static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client per pool thread that requests a large body and never reads
// it must neither wedge /healthz past the response deadline nor hang
// Stop().
TEST(HttpServerTest, SlowReadersDoNotWedgeServingOrStop) {
  using Clock = std::chrono::steady_clock;
  constexpr std::chrono::milliseconds kResponseDeadline{1000};
  HttpServer server;
  const std::string big(32u << 20, 'x');
  server.Handle("/big", [&big](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain; charset=utf-8", big};
  });
  server.Handle("/healthz", [](const HttpRequest&) -> HttpResponse {
    return {200, "application/json; charset=utf-8", "{\"status\":\"ok\"}\n"};
  });
  ASSERT_TRUE(server.Start().ok());

  std::vector<int> slow = {OpenSlowReader(server.port(), "/big"),
                           OpenSlowReader(server.port(), "/big")};
  for (const int fd : slow) ASSERT_GE(fd, 0);
  // Let both pool threads fill their send buffers first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Clock::time_point start = Clock::now();
  EXPECT_EQ(HttpGet(server.port(), "/healthz").status, 200);
  EXPECT_LT(Clock::now() - start, kResponseDeadline + std::chrono::seconds(1));

  slow.push_back(OpenSlowReader(server.port(), "/big"));
  slow.push_back(OpenSlowReader(server.port(), "/big"));
  for (const int fd : slow) ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  start = Clock::now();
  server.Stop();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  for (const int fd : slow) ::close(fd);
}

}  // namespace
}  // namespace halk::net
