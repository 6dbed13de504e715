#pragma once

// Minimal TCP exposition endpoint for the daemon's Prometheus text page
// (obs/prom.h). One background thread accepts connections on a loopback
// listener and answers every request with the most recently published
// document — no HTTP parsing beyond draining the request bytes, no
// keep-alive, no TLS. The atomically published status file
// (DaemonConfig::metrics_path) is the primary scrape surface; this
// endpoint exists so `curl localhost:<port>/metrics` works against a live
// daemon without touching its filesystem.
//
// Threading: publish() swaps the document under a mutex; the serve loop
// copies it under the same mutex before writing. The daemon publishes
// only at pool-quiescent slot boundaries, so the served text is always a
// complete snapshot.

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace cea::serve {

class MetricsServer {
 public:
  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start the
  /// serve thread. Throws std::invalid_argument for a port outside
  /// [0, 65535] and std::runtime_error when the socket cannot be bound.
  explicit MetricsServer(int port);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// The bound port (useful with port 0).
  int port() const noexcept { return port_; }

  /// Replace the document served to subsequent connections.
  void publish(std::string text);

 private:
  void serve_loop();

  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mutex_;
  std::string text_;
  bool stop_ = false;  ///< written under mutex_ before closing the fd
  std::thread thread_;
};

}  // namespace cea::serve
