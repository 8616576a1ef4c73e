// Tests for the embedded exposition server (obs/exposition.h) and the
// Prometheus rendering behind /metricsz: round-trips over a raw client
// socket (no curl dependency), handler registration, query parsing, the
// histogram invariants of DumpPrometheus, and the Cluster /statusz wiring.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cluster.h"

namespace fractal {
namespace {

/// Minimal blocking HTTP client: sends `request_text` to 127.0.0.1:port and
/// returns everything the server wrote before closing the connection.
std::string RawRoundTrip(int port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n =
        ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    EXPECT_GT(n, 0) << "send failed";
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& target) {
  return RawRoundTrip(
      port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::unique_ptr<obs::ExpositionServer> MustStart() {
  obs::ExpositionServer::Options options;
  options.port = 0;  // ephemeral: tests never collide on a fixed port
  auto server = obs::ExpositionServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).value();
}

TEST(ExpositionTest, ServesHealthzOnEphemeralPort) {
  auto server = MustStart();
  ASSERT_GT(server->port(), 0);
  const std::string response = Get(server->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST(ExpositionTest, IndexListsRegisteredEndpoints) {
  auto server = MustStart();
  const std::string response = Get(server->port(), "/");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  for (const char* endpoint :
       {"/healthz", "/metricsz", "/tracez", "/profilez"}) {
    EXPECT_NE(response.find(endpoint), std::string::npos)
        << "index is missing " << endpoint;
  }
}

TEST(ExpositionTest, UnknownPathIs404AndNonGetIs405) {
  auto server = MustStart();
  EXPECT_NE(Get(server->port(), "/nonexistent").find("HTTP/1.1 404"),
            std::string::npos);
  const std::string post = RawRoundTrip(
      server->port(), "POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;
}

TEST(ExpositionTest, MalformedRequestIs400) {
  auto server = MustStart();
  const std::string response = RawRoundTrip(server->port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

TEST(ExpositionTest, CustomEndpointSeesQueryParams) {
  auto server = MustStart();
  server->AddEndpoint(
      "/statusz", [](const obs::ExpositionServer::Request& request) {
        obs::ExpositionServer::Response response;
        response.body = "verbose=" + request.QueryParam("verbose", "0") +
                        " missing=" + request.QueryParam("nope", "fallback");
        return response;
      });
  const std::string response =
      Get(server->port(), "/statusz?verbose=2&other=x");
  EXPECT_NE(response.find("verbose=2 missing=fallback"), std::string::npos)
      << response;
}

TEST(ExpositionTest, MetricszIsPrometheusText) {
  obs::MetricsRegistry::Get().GetCounter("test.exposition_counter").Add(7);
  obs::MetricsRegistry::Get().GetHistogram("test.exposition_hist").Record(6);
  auto server = MustStart();
  const std::string response = Get(server->port(), "/metricsz");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE fractal_test_exposition_counter_total "
                          "counter"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("# TYPE fractal_test_exposition_hist histogram"),
            std::string::npos);
  EXPECT_NE(response.find("fractal_test_exposition_hist_bucket{le="),
            std::string::npos);
}

// The histogram series must satisfy the Prometheus contract: buckets are
// cumulative in le order and the +Inf bucket equals _count (what
// tools/check_metricsz.py gates in CI, pinned here at unit level).
TEST(ExpositionTest, DumpPrometheusHistogramInvariants) {
  obs::Histogram& hist =
      obs::MetricsRegistry::Get().GetHistogram("test.prom_invariants");
  for (uint64_t value : {0, 1, 3, 9, 200, 201, 202}) hist.Record(value);
  const std::string text = obs::MetricsRegistry::Get().DumpPrometheus();
  std::istringstream lines(text);
  std::string line;
  std::vector<double> counts;
  double count_series = -1;
  bool saw_inf = false, saw_sum = false;
  while (std::getline(lines, line)) {
    if (line.find("fractal_test_prom_invariants_bucket") == 0) {
      counts.push_back(std::stod(line.substr(line.rfind(' ') + 1)));
      saw_inf = saw_inf || line.find("le=\"+Inf\"") != std::string::npos;
    } else if (line.find("fractal_test_prom_invariants_count") == 0) {
      count_series = std::stod(line.substr(line.rfind(' ') + 1));
    } else if (line.find("fractal_test_prom_invariants_sum") == 0) {
      saw_sum = true;
    }
  }
  ASSERT_FALSE(counts.empty());
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]) << "buckets must be cumulative";
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_sum);
  EXPECT_EQ(counts.back(), count_series);
  // p50/p90/p99 companions are emitted as their own gauge families.
  EXPECT_NE(text.find("fractal_test_prom_invariants_p90"), std::string::npos);
}

TEST(ExpositionTest, TracezShowsCompletedSpans) {
  obs::Tracer::Get().Enable();
  {
    FRACTAL_TRACE_SPAN("test/tracez_outer");
    FRACTAL_TRACE_SPAN("test/tracez_inner");
  }
  auto server = MustStart();
  const std::string response = Get(server->port(), "/tracez");
  obs::Tracer::Get().Disable();
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("test/tracez_inner"), std::string::npos) << response;
}

TEST(ExpositionTest, ProfilezReturnsAWindow) {
  auto server = MustStart();
  // The serve thread registers itself with the profiler, so a short window
  // always has at least one sampleable thread; content may still be empty
  // ("# no samples") on a loaded host — only the shape is asserted.
  const std::string response =
      Get(server->port(), "/profilez?seconds=1&hz=50");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  const std::string spans =
      Get(server->port(), "/profilez?seconds=1&hz=50&view=spans");
  EXPECT_NE(spans.find("HTTP/1.1 200"), std::string::npos);
}

TEST(ExpositionTest, ProfilezRejectsMalformedParameters) {
  auto server = MustStart();
  // Answered before any profiling window opens.
  for (const char* target :
       {"/profilez?seconds=abc", "/profilez?hz=9999999999999",
        "/profilez?seconds=1x&hz=50"}) {
    SCOPED_TRACE(target);
    const std::string response = Get(server->port(), target);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  }
}

TEST(ExpositionTest, ServerStopsCleanlyWithPendingNothing) {
  // Start/stop churn: the self-pipe shutdown must join promptly.
  for (int i = 0; i < 3; ++i) {
    auto server = MustStart();
    EXPECT_GT(server->port(), 0);
  }
}

TEST(ClusterStatuszTest, ClusterServesStatuszAndRendersWorkers) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.statusz_port = 0;
  Cluster cluster(options);
  ASSERT_GT(cluster.statusz_port(), 0);
  const std::string response = Get(cluster.statusz_port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("fractal statusz"), std::string::npos) << response;
  EXPECT_NE(response.find("workers            2 x 1 threads"),
            std::string::npos);
  EXPECT_NE(response.find("live_workers       2/2"), std::string::npos);
  EXPECT_NE(response.find("worker 0"), std::string::npos);
  EXPECT_NE(response.find("worker 1"), std::string::npos);
  // The cluster's server carries the built-ins too.
  EXPECT_NE(Get(cluster.statusz_port(), "/metricsz").find("fractal_"),
            std::string::npos);
}

TEST(ClusterStatuszTest, RenderStatuszDirectlyTracksLiveMask) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  Cluster cluster(options);  // no server: RenderStatusz works regardless
  EXPECT_EQ(cluster.statusz_port(), -1);
  cluster.MarkWorkerDead(1);
  const std::string statusz = cluster.RenderStatusz();
  EXPECT_NE(statusz.find("live_workers       1/2"), std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("live_mask          0x1"), std::string::npos);
}

TEST(ClusterStatuszTest, BindFailureIsNotFatal) {
  auto server = MustStart();  // occupy a port
  ClusterOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.statusz_port = server->port();  // already taken
  Cluster cluster(options);  // must construct anyway (introspection is
                             // never load-bearing)
  EXPECT_EQ(cluster.statusz_port(), -1);
}

}  // namespace
}  // namespace fractal
