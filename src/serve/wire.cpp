#include "serve/wire.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/format.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define HS_WIRE_POSIX 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define HS_WIRE_POSIX 0
#endif

namespace hs::serve {

namespace {

/// Largest dedup payload, and the largest mandel dim whose dim x dim frame
/// fits the same 64 MiB.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{64} << 20;
constexpr int kMaxMandelDim = 8192;

/// `tok` as an integer of `out`'s type (common/format's parse_int).
template <typename Int>
bool read_int(std::string_view tok, Int& out) {
  auto v = parse_int<Int>(tok);
  if (v.ok()) out = v.value();
  return v.ok();
}

/// Deterministic compressible-ish payload for wire dedup jobs: repeating
/// 251-byte ramp, so the dedup path sees duplicate blocks without the wire
/// ever carrying the bytes.
std::vector<std::uint8_t> synth_payload(std::uint64_t bytes) {
  std::vector<std::uint8_t> payload(bytes);
  for (std::uint64_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<std::uint8_t>(i % 251);
  }
  return payload;
}

}  // namespace

Result<WireRequest> parse_request(std::string_view line) {
  const auto toks = split_ws(line);
  if (toks.empty()) return InvalidArgument("empty request line");
  WireRequest req;
  if (toks[0] == "ping") {
    req.op = WireRequest::Op::kPing;
    return req;
  }
  if (toks[0] == "stats") {
    req.op = WireRequest::Op::kStats;
    return req;
  }
  if (toks[0] == "quit") {
    req.op = WireRequest::Op::kQuit;
    return req;
  }
  if (toks[0] != "job") {
    return InvalidArgument("unknown verb '" + std::string(toks[0]) + "'");
  }
  if (toks.size() < 3) return InvalidArgument("job: missing tenant/kind");
  req.op = WireRequest::Op::kJob;
  req.tenant = std::string(toks[1]);
  if (toks[2] == "mandel") {
    int dim = 0;
    int niter = 0;
    if (toks.size() != 5 || !read_int(toks[3], dim) ||
        !read_int(toks[4], niter) || dim < 1 || dim > kMaxMandelDim ||
        niter < 1) {
      return InvalidArgument("job mandel: want <dim> (<= 8192) <niter>");
    }
    req.job.kind = JobKind::kMandel;
    req.job.mandel.dim = dim;
    req.job.mandel.niter = niter;
    return req;
  }
  if (toks[2] == "dedup") {
    std::uint64_t bytes = 0;
    if (toks.size() != 4 || !read_int(toks[3], bytes) || bytes < 1 ||
        bytes > kMaxPayloadBytes) {
      return InvalidArgument("job dedup: want <payload_bytes> (<= 64MB)");
    }
    req.job.kind = JobKind::kDedup;
    req.job.payload = synth_payload(bytes);
    return req;
  }
  return InvalidArgument("unknown job kind '" + std::string(toks[2]) + "'");
}

std::string encode_job_line(std::string_view tenant, const JobRequest& job) {
  std::string line = "job ";
  line += tenant;
  if (job.kind == JobKind::kMandel) {
    line += " mandel " + std::to_string(job.mandel.dim) + " " +
            std::to_string(job.mandel.niter);
  } else {
    line += " dedup " + std::to_string(job.payload.size());
  }
  return line;
}

std::string encode_response(const WireResponse& resp) {
  switch (resp.kind) {
    case WireResponse::Kind::kOk:
      return "ok " + std::to_string(resp.job_id) + " " +
             std::to_string(resp.latency_ns) + " " +
             std::to_string(resp.device);
    case WireResponse::Kind::kRejected:
      return "rejected " + std::string(reject_code_name(resp.code));
    case WireResponse::Kind::kErr:
      return "err " + resp.detail;
    case WireResponse::Kind::kStats:
      return "stats " + std::to_string(resp.accepted) + " " +
             std::to_string(resp.shed) + " " +
             std::to_string(resp.quota_rejects) + " " +
             std::to_string(resp.completed) + " " +
             std::to_string(resp.workers);
    case WireResponse::Kind::kPong:
      return "pong";
  }
  return "err unreachable";
}

Result<WireResponse> parse_response(std::string_view line) {
  const auto toks = split_ws(line);
  if (toks.empty()) return InvalidArgument("empty response line");
  WireResponse resp;
  if (toks[0] == "pong") {
    resp.kind = WireResponse::Kind::kPong;
    return resp;
  }
  if (toks[0] == "ok") {
    if (toks.size() != 4 || !read_int(toks[1], resp.job_id) ||
        !read_int(toks[2], resp.latency_ns) ||
        !read_int(toks[3], resp.device)) {
      return InvalidArgument("malformed ok line");
    }
    resp.kind = WireResponse::Kind::kOk;
    return resp;
  }
  if (toks[0] == "rejected") {
    if (toks.size() != 2) return InvalidArgument("malformed rejected line");
    resp.kind = WireResponse::Kind::kRejected;
    if (toks[1] == reject_code_name(RejectCode::kOverload)) {
      resp.code = RejectCode::kOverload;
    } else if (toks[1] == reject_code_name(RejectCode::kShuttingDown)) {
      resp.code = RejectCode::kShuttingDown;
    } else if (toks[1] == reject_code_name(RejectCode::kQuota)) {
      resp.code = RejectCode::kQuota;
    } else {
      return InvalidArgument("unknown reject code '" + std::string(toks[1]) +
                             "'");
    }
    return resp;
  }
  if (toks[0] == "stats") {
    if (toks.size() != 6 || !read_int(toks[1], resp.accepted) ||
        !read_int(toks[2], resp.shed) ||
        !read_int(toks[3], resp.quota_rejects) ||
        !read_int(toks[4], resp.completed) ||
        !read_int(toks[5], resp.workers)) {
      return InvalidArgument("malformed stats line");
    }
    resp.kind = WireResponse::Kind::kStats;
    return resp;
  }
  if (toks[0] == "err") {
    resp.kind = WireResponse::Kind::kErr;
    resp.detail = line.size() > 4 ? std::string(line.substr(4)) : "";
    return resp;
  }
  return InvalidArgument("unknown response '" + std::string(toks[0]) + "'");
}

WireResponse response_for(const SubmitResult& submitted, JobResult result) {
  WireResponse resp;
  if (!submitted.accepted()) {
    resp.kind = WireResponse::Kind::kRejected;
    resp.code = submitted.rejected->code;
    return resp;
  }
  if (!result.status.ok()) {
    resp.kind = WireResponse::Kind::kErr;
    resp.detail = result.status.message();
    return resp;
  }
  resp.kind = WireResponse::Kind::kOk;
  resp.job_id = submitted.job_id;
  resp.latency_ns = result.latency_ns;
  resp.device = result.device;
  return resp;
}

#if HS_WIRE_POSIX

namespace {

/// Writes the whole buffer, absorbing short writes and EINTR.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, std::string line) {
  line.push_back('\n');
  return write_all(fd, line.data(), line.size());
}

/// Reads until `buf` holds a '\n'; returns the line (stripped) or false on
/// EOF/error. Leftover bytes stay in buf for the next call.
bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buf.size() > (1u << 16)) return false;  // unframed garbage
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

struct WireServer::Impl {
  Service* service;
  WireServerConfig config;
  int listen_fd = -1;
  int bound_port = 0;
  std::thread acceptor;
  std::atomic<bool> stopping{false};
  std::atomic<int> connections{0};

  std::mutex mu;  ///< guards conn_fds + conn_threads
  std::vector<int> conn_fds;
  std::vector<std::thread> conn_threads;

  void serve_connection(int fd) {
    std::string rx;
    std::string line;
    while (!stopping.load(std::memory_order_acquire) &&
           read_line(fd, rx, line)) {
      auto parsed = parse_request(line);
      if (!parsed.ok()) {
        if (!write_line(fd, "err " +
                                std::string(parsed.status().message()))) {
          break;
        }
        continue;
      }
      WireRequest& req = parsed.value();
      bool keep = true;
      switch (req.op) {
        case WireRequest::Op::kPing:
          keep = write_line(fd, "pong");
          break;
        case WireRequest::Op::kQuit:
          keep = false;
          break;
        case WireRequest::Op::kStats: {
          const ServiceStats s = service->stats();
          WireResponse resp;
          resp.kind = WireResponse::Kind::kStats;
          resp.accepted = s.accepted;
          resp.shed = s.shed;
          resp.quota_rejects = s.quota_rejects;
          resp.completed = s.completed;
          resp.workers = s.workers_active;
          keep = write_line(fd, encode_response(resp));
          break;
        }
        case WireRequest::Op::kJob: {
          SubmitResult sub =
              service->submit(req.tenant, std::move(req.job), true);
          JobResult result;
          if (sub.accepted()) result = sub.result.get();
          keep = write_line(fd, encode_response(
                                    response_for(sub, std::move(result))));
          break;
        }
      }
      if (!keep) break;
    }
    // Deregister and close atomically: stop() only shutdown()s fds still in
    // conn_fds, so a number recycled by the kernel after this close can
    // never be hit by a stale shutdown.
    {
      std::lock_guard<std::mutex> lock(mu);
      conn_fds.erase(std::remove(conn_fds.begin(), conn_fds.end(), fd),
                     conn_fds.end());
      ::close(fd);
    }
    connections.fetch_sub(1, std::memory_order_relaxed);
  }

  /// `lfd` is a by-value copy: stop() invalidates the member while this
  /// thread is still inside accept().
  void accept_loop(int lfd) {
    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed by stop()
      }
      if (stopping.load(std::memory_order_acquire) ||
          connections.load(std::memory_order_relaxed) >=
              config.max_connections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      connections.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      conn_fds.push_back(fd);
      conn_threads.emplace_back([this, fd] { serve_connection(fd); });
    }
  }
};

WireServer::WireServer(Service* service, WireServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->service = service;
  impl_->config = std::move(config);
}

WireServer::~WireServer() { stop(); }

Status WireServer::start() {
  if (impl_->listen_fd >= 0) {
    return FailedPrecondition("wire server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Internal("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(impl_->config.port));
  if (::inet_pton(AF_INET, impl_->config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host '" + impl_->config.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Internal("bind(): " + std::string(strerror(errno)));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Internal("listen(): " + std::string(strerror(errno)));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Internal("getsockname(): " + std::string(strerror(errno)));
  }
  impl_->bound_port = ntohs(addr.sin_port);
  impl_->listen_fd = fd;
  impl_->stopping.store(false, std::memory_order_release);
  impl_->acceptor = std::thread([impl = impl_.get(), fd] {
    impl->accept_loop(fd);
  });
  return OkStatus();
}

void WireServer::stop() {
  if (impl_->listen_fd < 0) return;
  impl_->stopping.store(true, std::memory_order_release);
  // Closing the listener pops the acceptor out of accept(); shutting the
  // connection sockets pops their threads out of recv().
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  impl_->listen_fd = -1;  // after the join: the acceptor owns its copy
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    // Still-registered fds are guaranteed open (close is under mu too);
    // the owning threads deregister and close them on their way out.
    for (const int fd : impl_->conn_fds) ::shutdown(fd, SHUT_RDWR);
    threads.swap(impl_->conn_threads);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

int WireServer::port() const { return impl_->bound_port; }

int WireServer::connection_count() const {
  return impl_->connections.load(std::memory_order_relaxed);
}

WireClient::WireClient() = default;

WireClient::~WireClient() { close(); }

Status WireClient::connect(const std::string& host, int port) {
  if (fd_ >= 0) return FailedPrecondition("already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Internal("socket(): " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Unavailable("connect(): " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  rxbuf_.clear();
  return OkStatus();
}

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WireResponse> WireClient::call(const std::string& line) {
  if (fd_ < 0) return FailedPrecondition("not connected");
  if (!write_line(fd_, line)) {
    return Unavailable("send failed: " + std::string(strerror(errno)));
  }
  std::string reply;
  if (!read_line(fd_, rxbuf_, reply)) {
    return Unavailable("connection closed by server");
  }
  return parse_response(reply);
}

#else  // !HS_WIRE_POSIX

struct WireServer::Impl {
  Service* service = nullptr;
  WireServerConfig config;
};

WireServer::WireServer(Service* service, WireServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->service = service;
  impl_->config = std::move(config);
}
WireServer::~WireServer() = default;
Status WireServer::start() {
  return Unimplemented("wire server needs BSD sockets");
}
void WireServer::stop() {}
int WireServer::port() const { return 0; }
int WireServer::connection_count() const { return 0; }

WireClient::WireClient() = default;
WireClient::~WireClient() = default;
Status WireClient::connect(const std::string&, int) {
  return Unimplemented("wire client needs BSD sockets");
}
void WireClient::close() {}
Result<WireResponse> WireClient::call(const std::string&) {
  return Unimplemented("wire client needs BSD sockets");
}

#endif  // HS_WIRE_POSIX

}  // namespace hs::serve
