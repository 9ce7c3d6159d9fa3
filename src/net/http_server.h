#ifndef HALK_NET_HTTP_SERVER_H_
#define HALK_NET_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace halk::net {

/// One parsed request. Only the request line is interpreted (method,
/// path, raw query string); headers are read to the blank line and
/// discarded — every telemetry endpoint is header-agnostic.
struct HttpRequest {
  std::string method;  // e.g. "GET"
  std::string path;    // e.g. "/metrics" (no query string)
  std::string query;   // raw bytes after '?', "" when absent
};

/// Value of `key` in a raw `k=v&k2=v2` query string, or `fallback` when
/// absent. No percent-decoding (telemetry parameters are plain numerals).
std::string QueryParam(const std::string& query, const std::string& key,
                       const std::string& fallback = "");

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal embedded HTTP/1.1 server for the telemetry plane: POSIX
/// sockets, a blocking accept loop shared by a small thread pool, one
/// request per connection (`Connection: close`), GET only. A client gets
/// a fixed deadline to deliver its request head, so idle connections
/// cannot hold the pool's threads for long. Stdlib-only by
/// design — observability must not pull a dependency into the serving
/// binary. Not a general web server: no keep-alive, no TLS, no bodies;
/// bind it to loopback (the default) and put a real proxy in front for
/// anything public.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// Numeric address to bind; loopback by default so the telemetry
    /// plane is host-local unless explicitly opened up.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    int port = 0;
    /// Threads blocking in accept(); each serves one connection at a time.
    int num_threads = 2;
    /// Request-head size bound; longer requests get 400 and a close.
    size_t max_request_bytes = 16 * 1024;
  };

  HttpServer() : HttpServer(Options()) {}
  explicit HttpServer(const Options& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers the handler for an exact path. Call before Start.
  void Handle(const std::string& path, Handler handler)
      HALK_EXCLUDES(mu_);

  /// Binds, listens, and launches the accept threads. kUnavailable when
  /// the socket cannot be bound. Idempotent failure: a failed Start leaves
  /// the server stopped and restartable.
  [[nodiscard]] Status Start() HALK_EXCLUDES(mu_);

  /// Stops accepting, shuts down live connections, joins the pool, closes
  /// the socket. Idempotent; also run by the destructor.
  void Stop() HALK_EXCLUDES(mu_);

  /// The bound port (the actual one when Options::port was 0); 0 before a
  /// successful Start.
  int port() const HALK_EXCLUDES(mu_);

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request) HALK_EXCLUDES(mu_);

  const Options options_;
  std::atomic<bool> stopping_{false};

  mutable Mutex mu_;
  std::map<std::string, Handler> handlers_ HALK_GUARDED_BY(mu_);
  int listen_fd_ HALK_GUARDED_BY(mu_) = -1;
  int port_ HALK_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_ HALK_GUARDED_BY(mu_);
  // Accepted connections still being served; Stop() shuts them down.
  std::set<int> connections_ HALK_GUARDED_BY(mu_);
};

}  // namespace halk::net

#endif  // HALK_NET_HTTP_SERVER_H_
