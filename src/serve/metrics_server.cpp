#include "serve/metrics_server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace cea::serve {
namespace {

void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a scraper that hangs up mid-response must not SIGPIPE
    // the daemon.
    const ssize_t n =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

MetricsServer::MetricsServer(int port) {
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("MetricsServer: port " + std::to_string(port) +
                                " is outside [0, 65535]");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("MetricsServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 8) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("MetricsServer: cannot listen on port " +
                             std::to_string(port) + ": " + what);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsServer::~MetricsServer() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  // The serve loop only blocks in poll() with a timeout, so it observes
  // stop_ promptly; closing the fd after join keeps the poll target valid.
  thread_.join();
  ::close(listen_fd_);
}

void MetricsServer::publish(std::string text) {
  const std::lock_guard<std::mutex> lock(mutex_);
  text_ = std::move(text);
}

void MetricsServer::serve_loop() {
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    // Drain whatever request line the client sent (bounded, best-effort),
    // then answer with the current document and close.
    char scratch[1024];
    pollfd cfd{client, POLLIN, 0};
    if (::poll(&cfd, 1, 100) > 0) {
      (void)::recv(client, scratch, sizeof(scratch), 0);
    }
    std::string body;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      body = text_;
    }
    const std::string header =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    send_all(client, header.data(), header.size());
    send_all(client, body.data(), body.size());
    ::close(client);
  }
}

}  // namespace cea::serve
