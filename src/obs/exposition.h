// Embedded HTTP exposition server (DESIGN.md §10): a single-threaded,
// plain-blocking-sockets HTTP/1.1 responder that makes a running cluster
// interrogable without stopping it. No third-party dependencies; one accept
// loop thread; one request in flight at a time (connection: close). Started
// by Cluster when ClusterOptions::statusz_port >= 0, or standalone in
// tests/tools.
//
// Built-in endpoints (all registered in obs/metric_names.h kEndpointNames):
//   /          — index of registered endpoints
//   /healthz   — "ok"
//   /metricsz  — MetricsRegistry::DumpPrometheus() (Prometheus text format)
//   /tracez    — most recent completed spans per thread, from the trace
//                rings (requires tracing enabled to have content)
//   /profilez  — on-demand sampling-profile window (?seconds=N, default 1,
//                max 30; ?hz=N rate, default 100) returning collapsed
//                stacks; ?view=spans returns the span-attributed table.
//                Threads must have registered with the Profiler.
// Callers add more (Cluster adds /statusz) via AddEndpoint.
//
// Binding: loopback only (introspection output is not for the open
// network). port 0 binds an ephemeral port; read it back with port().
//
// Lock class (leaf, DESIGN.md §5): `ExpositionServer::mu` guards the
// endpoint table only; handlers run outside it.
#ifndef FRACTAL_OBS_EXPOSITION_H_
#define FRACTAL_OBS_EXPOSITION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fractal {
namespace obs {

class ExpositionServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 binds an ephemeral port.
    int port = 0;
    /// Address to bind. Keep this loopback unless you know better.
    std::string bind_address = "127.0.0.1";
  };

  struct Request {
    std::string path;   // decoded-enough: no %-unescaping, no fragments
    std::string query;  // raw "k=v&k2=v2" text after '?', may be empty
    /// Value of `key` in the query string, or `fallback`.
    std::string QueryParam(const std::string& key,
                           const std::string& fallback = "") const;
    /// Integer value of `key` clamped to [lo, hi], or `fallback` when the
    /// key is absent or empty. InvalidArgument unless the whole value is a
    /// decimal integer that fits an int.
    StatusOr<int> IntParam(const std::string& key, int fallback, int lo,
                           int hi) const;
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  using Handler = std::function<Response(const Request&)>;

  /// Binds, registers the built-in endpoints, and starts the accept-loop
  /// thread. Fails (with the errno text) if the port cannot be bound.
  static StatusOr<std::unique_ptr<ExpositionServer>> Start(
      const Options& options);

  /// Stops the accept loop and joins the server thread. In-flight requests
  /// finish first (handlers are bounded: the longest is /profilez's capped
  /// window).
  ~ExpositionServer();

  /// The bound TCP port (useful with Options::port == 0).
  int port() const { return port_; }

  /// Registers (or replaces) the handler for an exact path. Paths must be
  /// registered in obs/metric_names.h kEndpointNames (lint rule
  /// metric-name).
  void AddEndpoint(const std::string& path, Handler handler) EXCLUDES(mu_);

 private:
  ExpositionServer(int listen_fd, int wake_fd_read, int wake_fd_write,
                   int port);

  void Serve();
  void HandleConnection(int fd);

  int listen_fd_;
  int wake_fd_read_;   // self-pipe: Serve polls this to notice shutdown
  int wake_fd_write_;
  int port_;
  std::atomic<bool> stop_{false};
  mutable Mutex mu_{"ExpositionServer::mu"};
  std::map<std::string, Handler> handlers_ GUARDED_BY(mu_);
  std::thread thread_;
};

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_EXPOSITION_H_
