#include "obs/exposition.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace fractal {
namespace obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr int kIoTimeoutMillis = 2000;
constexpr int kTracezSpansPerThread = 32;

std::string StatusLine(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    default:
      return "500 Internal Server Error";
  }
}

void SetIoTimeouts(int fd) {
  struct timeval tv;
  tv.tv_sec = kIoTimeoutMillis / 1000;
  tv.tv_usec = (kIoTimeoutMillis % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// --- Built-in endpoint renderings ----------------------------------------

ExpositionServer::Response RenderMetricsz(
    const ExpositionServer::Request& /*request*/) {
  ExpositionServer::Response response;
  // The de-facto content type Prometheus scrapers expect.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = MetricsRegistry::Get().DumpPrometheus();
  return response;
}

ExpositionServer::Response RenderTracez(
    const ExpositionServer::Request& /*request*/) {
  ExpositionServer::Response response;
  const TraceSnapshot snapshot = Tracer::Get().Snapshot();
  std::ostringstream out;
  out << "tracez: most recent completed spans per thread (newest first)\n";
  if (!Tracer::TracingEnabled()) {
    out << "note: tracing is currently disabled; showing retained rings\n";
  }
  for (const ThreadTrace& thread : snapshot.threads) {
    struct Open {
      uint32_t name_id;
      int64_t ts_nanos;
    };
    struct Done {
      uint32_t name_id;
      int64_t ts_nanos;
      int64_t dur_nanos;
    };
    std::vector<Open> open;
    std::vector<Done> done;
    for (const TraceEvent& event : thread.events) {
      if (event.phase == TracePhase::kBegin) {
        open.push_back({event.name_id, event.ts_nanos});
      } else if (event.phase == TracePhase::kEnd && !open.empty()) {
        // Rings are balanced per thread after the exporter's repair, but a
        // raw snapshot can hold orphan ends past wraparound — match
        // innermost-first and drop ends with no open begin.
        const Open begin = open.back();
        open.pop_back();
        done.push_back(
            {begin.name_id, begin.ts_nanos, event.ts_nanos - begin.ts_nanos});
      }
    }
    out << StrFormat("\nthread %s/%s (pid %u tid %u): %zu completed, "
                     "%zu still open, %llu dropped\n",
                     thread.process_name.empty() ? "?"
                                                 : thread.process_name.c_str(),
                     thread.thread_name.empty() ? "?"
                                                : thread.thread_name.c_str(),
                     thread.pid, thread.tid, done.size(), open.size(),
                     (unsigned long long)thread.dropped);
    const size_t limit =
        std::min<size_t>(done.size(), kTracezSpansPerThread);
    for (size_t i = 0; i < limit; ++i) {
      const Done& span = done[done.size() - 1 - i];
      const std::string& name = span.name_id < snapshot.names.size()
                                    ? snapshot.names[span.name_id]
                                    : std::string("?");
      out << StrFormat("  t=%10.6fs dur=%9.3fus  %s\n",
                       static_cast<double>(span.ts_nanos) / 1e9,
                       static_cast<double>(span.dur_nanos) / 1e3,
                       name.c_str());
    }
  }
  response.body = out.str();
  return response;
}

ExpositionServer::Response RenderProfilez(
    const ExpositionServer::Request& request) {
  FRACTAL_TRACE_SPAN("obs/profile_window");
  const StatusOr<int> seconds = request.IntParam("seconds", 1, 1, 30);
  const StatusOr<int> hz =
      request.IntParam("hz", Profiler::kDefaultHz, 1, Profiler::kMaxHz);
  for (const StatusOr<int>* param : {&seconds, &hz}) {
    if (!param->ok()) {
      return ExpositionServer::Response{
          400, "text/plain; charset=utf-8",
          param->status().ToString() + "\n"};
    }
  }
  Profiler& profiler = Profiler::Get();
  const std::vector<uint64_t> marks = profiler.Marks();
  // If a session is already running (e.g. --profile-out), piggyback on it
  // instead of failing: the window is still delimited by the marks.
  const bool started_here = !profiler.running();
  if (started_here) {
    const Status status = profiler.Start(hz.value());
    if (!status.ok()) {
      return ExpositionServer::Response{
          500, "text/plain; charset=utf-8",
          StrFormat("profiler start failed: %s\n",
                    status.ToString().c_str())};
    }
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds.value()));
  if (started_here) profiler.Stop();
  const ProfileSnapshot snapshot = profiler.Snapshot(&marks);
  ExpositionServer::Response response;
  response.body = request.QueryParam("view", "") == "spans"
                      ? Profiler::SpanProfile(snapshot)
                      : Profiler::CollapsedStacks(snapshot);
  if (response.body.empty()) {
    response.body =
        "# no samples: no registered threads ran during the window\n";
  }
  return response;
}

}  // namespace

StatusOr<int> ExpositionServer::Request::IntParam(const std::string& key,
                                                  int fallback, int lo,
                                                  int hi) const {
  const std::string raw = QueryParam(key, "");
  if (raw.empty()) return fallback;
  int value = 0;
  const char* end = raw.data() + raw.size();
  const auto [parsed_to, error] = std::from_chars(raw.data(), end, value);
  if (error != std::errc() || parsed_to != end) {
    return InvalidArgumentError(StrFormat(
        "query parameter %s=%s is not an integer in int range", key.c_str(),
        raw.c_str()));
  }
  return std::clamp(value, lo, hi);
}

std::string ExpositionServer::Request::QueryParam(
    const std::string& key, const std::string& fallback) const {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, end - eq - 1);
    }
    pos = end + 1;
  }
  return fallback;
}

StatusOr<std::unique_ptr<ExpositionServer>> ExpositionServer::Start(
    const Options& options) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return InternalError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd);
    return InvalidArgumentError(
        StrFormat("bad bind address %s", options.bind_address.c_str()));
  }
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string message = StrFormat(
        "bind(%s:%d): %s", options.bind_address.c_str(), options.port,
        std::strerror(errno));
    ::close(listen_fd);
    return InternalError(message);
  }
  if (::listen(listen_fd, 8) != 0) {
    const std::string message =
        StrFormat("listen(): %s", std::strerror(errno));
    ::close(listen_fd);
    return InternalError(message);
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  int port = options.port;
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    port = ntohs(bound.sin_port);
  }
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC) != 0) {
    const std::string message = StrFormat("pipe2(): %s", std::strerror(errno));
    ::close(listen_fd);
    return InternalError(message);
  }
  std::unique_ptr<ExpositionServer> server(
      new ExpositionServer(listen_fd, wake[0], wake[1], port));
  server->AddEndpoint("/healthz", [](const Request&) {
    return Response{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server->AddEndpoint("/metricsz", RenderMetricsz);
  server->AddEndpoint("/tracez", RenderTracez);
  server->AddEndpoint("/profilez", RenderProfilez);
  ExpositionServer* raw = server.get();
  server->AddEndpoint("/", [raw](const Request&) {
    std::ostringstream out;
    out << "fractal exposition server\n";
    {
      MutexLock lock(raw->mu_);
      for (const auto& [path, handler] : raw->handlers_) {
        (void)handler;
        out << "  " << path << "\n";
      }
    }
    return Response{200, "text/plain; charset=utf-8", out.str()};
  });
  server->thread_ = std::thread(&ExpositionServer::Serve, raw);
  FRACTAL_LOG(Info) << "exposition server listening on "
                    << options.bind_address << ":" << port;
  return server;
}

ExpositionServer::ExpositionServer(int listen_fd, int wake_fd_read,
                                   int wake_fd_write, int port)
    : listen_fd_(listen_fd),
      wake_fd_read_(wake_fd_read),
      wake_fd_write_(wake_fd_write),
      port_(port) {}

ExpositionServer::~ExpositionServer() {
  stop_.store(true, std::memory_order_release);
  const char byte = 'x';
  // Best-effort: if the pipe is somehow full the poll timeout still ends
  // the loop within one tick.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_write_, &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(wake_fd_read_);
  ::close(wake_fd_write_);
}

void ExpositionServer::AddEndpoint(const std::string& path, Handler handler) {
  MutexLock lock(mu_);
  handlers_[path] = std::move(handler);
}

void ExpositionServer::Serve() {
  Profiler::Get().RegisterCurrentThread("obs/exposition");
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fd_read_, POLLIN, 0};
    const int ready = ::poll(fds, 2, /*timeout_ms=*/250);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) continue;
    SetIoTimeouts(conn);
    HandleConnection(conn);
    ::close(conn);
  }
}

void ExpositionServer::HandleConnection(int fd) {
  std::string raw;
  raw.reserve(512);
  char buf[1024];
  while (raw.size() < kMaxRequestBytes &&
         raw.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) return;  // not HTTP; drop silently
  const std::string request_line = raw.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  Response response;
  Request request;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = Response{400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (request_line.substr(0, sp1) != "GET") {
    response =
        Response{405, "text/plain; charset=utf-8", "only GET is served\n"};
  } else {
    std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t question = target.find('?');
    if (question != std::string::npos) {
      request.query = target.substr(question + 1);
      target.resize(question);
    }
    request.path = target;
    Handler handler;
    {
      MutexLock lock(mu_);
      const auto it = handlers_.find(request.path);
      if (it != handlers_.end()) handler = it->second;
    }
    if (handler) {
      // Outside mu_: handlers may block (e.g. /profilez's sample window).
      response = handler(request);
    } else {
      response = Response{404, "text/plain; charset=utf-8",
                          StrFormat("no endpoint %s (see /)\n",
                                    request.path.c_str())};
    }
  }
  ExpositionRequestsCounter().Add(1);
  const std::string head = StrFormat(
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      StatusLine(response.status).c_str(), response.content_type.c_str(),
      response.body.size());
  if (WriteAll(fd, head.data(), head.size())) {
    WriteAll(fd, response.body.data(), response.body.size());
  }
}

}  // namespace obs
}  // namespace fractal
