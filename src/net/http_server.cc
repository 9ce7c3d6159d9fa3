#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace halk::net {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a client gets to deliver its whole request head. Each pool
/// thread serves one connection at a time, so this bounds how long an idle
/// or trickling client can keep a thread from the next connection.
constexpr std::chrono::milliseconds kRequestHeadTimeout{500};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Writes all of `data`, tolerating partial writes and EINTR. MSG_NOSIGNAL
/// turns a peer hangup into EPIPE instead of killing the process.
void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing useful to do
    }
    sent += static_cast<size_t>(n);
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

std::string QueryParam(const std::string& query, const std::string& key,
                       const std::string& fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return fallback;
}

HttpServer::HttpServer(const Options& options) : options_(options) {
  HALK_CHECK_GT(options_.num_threads, 0);
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, Handler handler) {
  MutexLock lock(mu_);
  handlers_[path] = std::move(handler);
}

Status HttpServer::Start() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("socket(): " + std::string(strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return Status::Unavailable("bind(): " + std::string(strerror(errno)));
  }
  if (listen(fd, 64) < 0) {
    close(fd);
    return Status::Unavailable("listen(): " + std::string(strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    close(fd);
    return Status::Unavailable("getsockname(): " +
                               std::string(strerror(errno)));
  }
  // order: a restarted server must re-enter the accept loops cleanly.
  stopping_.store(false, std::memory_order_relaxed);
  MutexLock lock(mu_);
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  threads_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { AcceptLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  // order: the exchange makes Stop idempotent; accept threads observe the
  // flag after their blocking accept is broken by shutdown() below.
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  std::vector<std::thread> threads;
  int fd = -1;
  {
    MutexLock lock(mu_);
    fd = listen_fd_;
    listen_fd_ = -1;
    threads.swap(threads_);
    // Wakes any thread blocked on a connection; it then closes the fd.
    for (const int conn : connections_) shutdown(conn, SHUT_RDWR);
  }
  if (fd >= 0) {
    // Unblocks every thread parked in accept(fd).
    shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (fd >= 0) close(fd);
}

int HttpServer::port() const {
  MutexLock lock(mu_);
  return port_;
}

void HttpServer::AcceptLoop() {
  int fd = -1;
  {
    MutexLock lock(mu_);
    fd = listen_fd_;
  }
  if (fd < 0) return;
  // order: a stale false costs one extra accept round, nothing more.
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Closed or shut down (Stop), or a transient kernel error; either
      // way the loop re-checks the stop flag and bails on shutdown.
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == ECONNABORTED) continue;
      break;
    }
    {
      MutexLock lock(mu_);
      // order: Stop() sets the flag before sweeping connections_ under
      // mu_, so a connection registered here is either swept or refused.
      if (stopping_.load(std::memory_order_relaxed)) {
        close(conn);
        break;
      }
      connections_.insert(conn);
    }
    ServeConnection(conn);
    {
      MutexLock lock(mu_);
      connections_.erase(conn);
    }
    close(conn);
  }
}

void HttpServer::ServeConnection(int fd) {
  // Read the request head (through the blank line); the telemetry
  // endpoints take no bodies, so anything after it is ignored.
  std::string head;
  char buf[1024];
  const Clock::time_point deadline = Clock::now() + kRequestHeadTimeout;
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > options_.max_request_bytes) {
      SendAll(fd, RenderResponse({400, "text/plain; charset=utf-8",
                                  "request too large\n"}));
      return;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd readable{fd, POLLIN, 0};
    const int polled =
        left.count() > 0 ? poll(&readable, 1, static_cast<int>(left.count()))
                         : 0;
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) return;  // head deadline passed, or poll failed
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer closed before a full request head
    head.append(buf, static_cast<size_t>(n));
  }

  // Request line: METHOD SP request-target SP HTTP-version CRLF.
  const size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    SendAll(fd, RenderResponse({400, "text/plain; charset=utf-8",
                                "malformed request line\n"}));
    return;
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    request.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  request.path = std::move(target);

  // Only origin-form targets are meaningful here; anything else (absolute
  // URIs, or junk that happened to split into three tokens) is malformed.
  if (request.path.empty() || request.path[0] != '/') {
    SendAll(fd, RenderResponse({400, "text/plain; charset=utf-8",
                                "malformed request line\n"}));
    return;
  }

  if (request.method != "GET") {
    SendAll(fd, RenderResponse({405, "text/plain; charset=utf-8",
                                "only GET is supported\n"}));
    return;
  }
  SendAll(fd, RenderResponse(Dispatch(request)));
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  Handler handler;
  {
    MutexLock lock(mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (handler == nullptr) {
    return {404, "text/plain; charset=utf-8",
            "no handler for " + request.path + "\n"};
  }
  return handler(request);
}

}  // namespace halk::net
