// Minimal line-protocol front-end for serve::Service — the paper's stream
// source arriving over a real transport instead of in-process submit()
// calls, so the service's admission control can be driven (and observed)
// from outside the process.
//
// The protocol is newline-delimited ASCII over a blocking TCP socket, one
// request line per response line, synchronous per connection (concurrency =
// connections, matching a closed-loop load generator):
//
//   job <tenant> mandel <dim> <niter>      ->  ok <job_id> <latency_ns> <device>
//   job <tenant> dedup <payload_bytes>     ->  ok <job_id> <latency_ns> <device>
//                                          |   rejected <code>   (admission)
//                                          |   err <detail...>   (job failed)
//   stats  ->  stats <accepted> <shed> <quota_rejects> <completed> <workers>
//   ping   ->  pong
//   quit   ->  (connection closed)
//
// Dedup payloads are synthesized server-side from the requested size — the
// wire carries load shape, not data, which keeps the generator cheap enough
// to saturate the service from one driver process. Tokens are separated by
// whitespace. A request's host memory is capped at 64 MiB either way: a
// dedup payload at 64 MiB, a mandel frame (dim x dim bytes) at dim 8192.
//
// Framing (parse_request/encode_*/parse_response) is pure string code,
// testable without sockets. WireServer/WireClient are the blocking POSIX
// transport; on platforms without BSD sockets they return Unimplemented.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "serve/service.hpp"

namespace hs::serve {

/// One parsed request line.
struct WireRequest {
  enum class Op : std::uint8_t { kJob, kStats, kPing, kQuit };
  Op op = Op::kPing;
  std::string tenant;  ///< kJob only
  JobRequest job;      ///< kJob only (dedup payload already synthesized)
};

/// One parsed response line.
struct WireResponse {
  enum class Kind : std::uint8_t { kOk, kRejected, kErr, kStats, kPong };
  Kind kind = Kind::kPong;
  std::uint64_t job_id = 0;      ///< kOk
  std::uint64_t latency_ns = 0;  ///< kOk
  int device = -1;               ///< kOk (-1 = CPU path)
  RejectCode code = RejectCode::kOverload;  ///< kRejected
  std::string detail;            ///< kErr message
  std::uint64_t accepted = 0, shed = 0, quota_rejects = 0, completed = 0;
  int workers = 0;               ///< kStats
};

/// Parses one request line (no trailing newline). InvalidArgument on
/// malformed input — the server answers those with an err line rather than
/// dropping the connection.
Result<WireRequest> parse_request(std::string_view line);

/// Client-side encoders (no trailing newline).
std::string encode_job_line(std::string_view tenant, const JobRequest& job);
std::string encode_response(const WireResponse& resp);

/// Parses one response line (no trailing newline).
Result<WireResponse> parse_response(std::string_view line);

/// Builds the response line for one submit outcome (the server's core,
/// shared with in-process tests).
WireResponse response_for(const SubmitResult& submitted, JobResult result);

struct WireServerConfig {
  std::string host = "127.0.0.1";  ///< loopback by default, deliberately
  int port = 0;                    ///< 0 = kernel-assigned (see port())
  /// Accepted connections beyond this are closed immediately; each
  /// connection costs one blocking thread.
  int max_connections = 64;
};

/// Thread-per-connection blocking server bridging the wire to a started
/// Service. start() binds + listens + spawns the acceptor; stop() closes
/// the listener, shuts down live connections and joins every thread.
/// The Service must be start()ed before and stop()ed after the WireServer.
class WireServer {
 public:
  explicit WireServer(Service* service, WireServerConfig config = {});
  ~WireServer();
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  Status start();
  void stop();
  /// The bound port (the kernel's pick when config.port == 0); valid after
  /// start().
  [[nodiscard]] int port() const;
  /// Connections currently being served.
  [[nodiscard]] int connection_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking request/response client for the load generator and tests.
class WireClient {
 public:
  WireClient();
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  Status connect(const std::string& host, int port);
  void close();
  /// Sends one request line (newline appended) and reads one response line.
  Result<WireResponse> call(const std::string& line);

 private:
  int fd_ = -1;
  std::string rxbuf_;
};

}  // namespace hs::serve
