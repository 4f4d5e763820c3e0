// TCP transport tests: framing, concurrency, the full MIE stack over
// real loopback sockets, and fault regression tests — a misbehaving peer
// must surface a typed TransportError, never a hang.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <functional>
#include <thread>

#include "mie/client.hpp"
#include "mie/server.hpp"
#include "net/frame.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "sim/dataset.hpp"

namespace mie::net {
namespace {

/// Echo-with-prefix handler for framing tests.
class PrefixEcho final : public RequestHandler {
public:
    Bytes handle(BytesView request) override {
        Bytes response = to_bytes("ack:");
        response.insert(response.end(), request.begin(), request.end());
        return response;
    }
};

TEST(Tcp, RoundtripSmallAndLargeFrames) {
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    TcpTransport client("127.0.0.1", server.port());

    EXPECT_EQ(to_string(client.call(to_bytes("hello"))), "ack:hello");
    EXPECT_EQ(to_string(client.call({})), "ack:");

    // A frame large enough to span many TCP segments.
    Bytes big(1 << 20, 0x7e);
    const Bytes response = client.call(big);
    ASSERT_EQ(response.size(), big.size() + 4);
    EXPECT_EQ(response[4], 0x7e);
    EXPECT_GT(client.network_seconds(), 0.0);
}

TEST(Tcp, SequentialRequestsOnOneConnection) {
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    TcpTransport client("127.0.0.1", server.port());
    for (int i = 0; i < 50; ++i) {
        const std::string message = "msg" + std::to_string(i);
        EXPECT_EQ(to_string(client.call(to_bytes(message))),
                  "ack:" + message);
    }
}

TEST(Tcp, MultipleConcurrentClients) {
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            try {
                TcpTransport client("127.0.0.1", server.port());
                for (int i = 0; i < 20; ++i) {
                    const std::string message =
                        std::to_string(c) + ":" + std::to_string(i);
                    if (to_string(client.call(to_bytes(message))) !=
                        "ack:" + message) {
                        ++failures;
                    }
                }
            } catch (...) {
                ++failures;
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Tcp, TransientAcceptErrorsClassified) {
    // The accept loop must survive these (count + continue)...
    EXPECT_TRUE(is_transient_accept_error(ECONNABORTED));
    EXPECT_TRUE(is_transient_accept_error(EINTR));
    EXPECT_TRUE(is_transient_accept_error(EMFILE));
    EXPECT_TRUE(is_transient_accept_error(ENFILE));
    EXPECT_TRUE(is_transient_accept_error(ENOBUFS));
    EXPECT_TRUE(is_transient_accept_error(ENOMEM));
    EXPECT_TRUE(is_transient_accept_error(EPROTO));
    EXPECT_TRUE(is_transient_accept_error(EAGAIN));
    // ...and die on these (the listener itself is unusable).
    EXPECT_FALSE(is_transient_accept_error(EBADF));
    EXPECT_FALSE(is_transient_accept_error(EINVAL));
    EXPECT_FALSE(is_transient_accept_error(ENOTSOCK));

    // A healthy server reports zero transient accept errors.
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    TcpTransport client("127.0.0.1", server.port());
    EXPECT_EQ(to_string(client.call(to_bytes("x"))), "ack:x");
    EXPECT_EQ(server.accept_transient_errors(), 0u);
}

TEST(Tcp, ConnectToClosedPortFails) {
    // Grab an ephemeral port, close the server, then try to connect.
    std::uint16_t dead_port;
    {
        PrefixEcho echo;
        TcpServer server(echo);
        dead_port = server.port();
    }
    EXPECT_THROW(TcpTransport("127.0.0.1", dead_port), std::runtime_error);
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    EXPECT_THROW(TcpTransport("not-an-ip", server.port()),
                 std::runtime_error);
}

TEST(Tcp, StopIsIdempotentAndRestartable) {
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    server.start();  // no-op
    {
        TcpTransport client("127.0.0.1", server.port());
        EXPECT_EQ(to_string(client.call(to_bytes("x"))), "ack:x");
    }
    server.stop();
    server.stop();  // no-op
}

TEST(Tcp, FullMieStackOverLoopback) {
    // The real thing: MIE client -> TCP -> MIE server, end to end.
    MieServer cloud;
    TcpServer server(cloud);
    server.start();

    TcpTransport transport("127.0.0.1", server.port());
    MieClient client(transport, "tcp-repo",
                     RepositoryKey::generate(to_bytes("tcp"), 64, 64,
                                             0.7978845608),
                     to_bytes("user"));
    client.train_params.tree_branch = 5;
    client.train_params.tree_depth = 2;

    sim::FlickrLikeGenerator gen(
        sim::FlickrLikeParams{.num_classes = 3, .image_size = 48, .seed = 2});
    client.create_repository();
    for (const auto& object : gen.make_batch(0, 8)) {
        client.update(object);
    }
    client.train();

    const auto results = client.search(gen.make(4), 3);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.front().object_id, 4u);
    const auto decrypted = client.decrypt_result(results.front());
    EXPECT_EQ(decrypted.text, gen.make(4).text);
    EXPECT_GT(transport.network_seconds(), 0.0);

    // Second client over its own connection sees the same repository.
    TcpTransport transport2("127.0.0.1", server.port());
    MieClient client2(transport2, "tcp-repo",
                      RepositoryKey::generate(to_bytes("tcp"), 64, 64,
                                              0.7978845608),
                      to_bytes("user-2"));
    const auto results2 = client2.search(gen.make(4), 1);
    ASSERT_FALSE(results2.empty());
    EXPECT_EQ(results2.front().object_id, 4u);
}

// ---------------------------------------------------------------------------
// Fault regressions: each kind of peer misbehaviour surfaces a typed
// TransportError within its deadline. Before the poll-based client these
// were hangs (blocking recv with no timeout).
// ---------------------------------------------------------------------------

/// Minimal raw TCP listener whose per-connection behaviour is scripted by
/// the test — stand-in for a broken / malicious / dying server.
class RawListener {
public:
    explicit RawListener(std::function<void(int)> on_connection)
        : on_connection_(std::move(on_connection)) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&address),
                         sizeof(address)),
                  0);
        EXPECT_EQ(::listen(fd_, 16), 0);
        socklen_t length = sizeof(address);
        EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&address),
                                &length),
                  0);
        port_ = ntohs(address.sin_port);
        thread_ = std::thread([this] {
            while (true) {
                const int conn = ::accept(fd_, nullptr, nullptr);
                if (conn < 0) return;
                on_connection_(conn);
                // FIN, not RST: whatever the callback sent reaches the
                // client before it sees the end of the stream.
                ::shutdown(conn, SHUT_WR);
                ::close(conn);
            }
        });
    }

    ~RawListener() {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        if (thread_.joinable()) thread_.join();
    }

    std::uint16_t port() const { return port_; }

private:
    std::function<void(int)> on_connection_;
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

/// Reads exactly `length` bytes; false if the peer closed first.
bool recv_all(int conn, std::uint8_t* out, std::size_t length) {
    std::size_t received = 0;
    while (received < length) {
        const ssize_t n = ::recv(conn, out + received, length - received, 0);
        if (n <= 0) return false;
        received += static_cast<std::size_t>(n);
    }
    return true;
}

/// Reads one whole request frame (header, then the payload length it
/// announces). Closing a socket with unread request bytes makes the
/// kernel send RST, which would race the reply the client should see.
void read_request_frame(int conn) {
    std::uint8_t header[kFrameHeaderSize];
    if (!recv_all(conn, header, kFrameHeaderSize)) return;
    Bytes payload(parse_frame_header(header).length);
    (void)recv_all(conn, payload.data(), payload.size());
}

/// Drains the connection until the peer gives up (EOF).
void drain(int conn) {
    std::uint8_t buffer[512];
    while (::recv(conn, buffer, sizeof(buffer), 0) > 0) {
    }
}

TransportErrorKind call_and_kind(TcpTransport& client, BytesView request) {
    try {
        client.call(request);
    } catch (const TransportError& error) {
        return error.kind();
    }
    ADD_FAILURE() << "call unexpectedly succeeded";
    return TransportErrorKind::kConnectFailed;
}

TEST(TcpFault, SilentPeerTimesOutInsteadOfHanging) {
    // The original bug: a peer that accepts the request and then goes
    // silent left the client blocked in recv() forever.
    RawListener listener(drain);
    TcpTransport client("127.0.0.1", listener.port(),
                        TcpOptions{.io_timeout_seconds = 0.2});
    const Bytes request = to_bytes("anyone there?");
    EXPECT_EQ(call_and_kind(client, request), TransportErrorKind::kTimeout);
}

TEST(TcpFault, ConnectTimeoutOnSaturatedBacklog) {
    // listen(fd, 0) + unaccepted plug connections fill the accept queue;
    // further SYNs are silently dropped, so the dial must time out
    // instead of blocking in connect().
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
                     sizeof(address)),
              0);
    ASSERT_EQ(::listen(listen_fd, 0), 0);
    socklen_t length = sizeof(address);
    ASSERT_EQ(::getsockname(listen_fd,
                            reinterpret_cast<sockaddr*>(&address), &length),
              0);
    const std::uint16_t port = ntohs(address.sin_port);

    std::vector<int> plugs;
    for (int i = 0; i < 8; ++i) {
        const int plug = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(plug, 0);
        // Non-blocking: we only need the SYN in flight, not completion.
        ::fcntl(plug, F_SETFL, O_NONBLOCK);
        ::connect(plug, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address));
        plugs.push_back(plug);
    }

    try {
        TcpTransport client("127.0.0.1", port,
                            TcpOptions{.connect_timeout_seconds = 0.25});
        ADD_FAILURE() << "connect to saturated backlog succeeded";
    } catch (const TransportError& error) {
        EXPECT_EQ(error.kind(), TransportErrorKind::kConnectTimeout);
    }
    for (int plug : plugs) ::close(plug);
    ::close(listen_fd);
}

TEST(TcpFault, PeerDyingBeforeResponseIsTypedReset) {
    // Server killed mid-request: the connection closes after the request
    // is read but before any response byte.
    RawListener listener([](int conn) {
        read_request_frame(conn);
        // close(conn) happens in RawListener — response never sent.
    });
    TcpTransport client("127.0.0.1", listener.port(),
                        TcpOptions{.io_timeout_seconds = 1.0});
    EXPECT_EQ(call_and_kind(client, to_bytes("req")),
              TransportErrorKind::kConnectionReset);
}

TEST(TcpFault, PeerDyingMidResponseFrameIsTruncated) {
    // The peer sends a valid header promising 100 bytes, delivers 10,
    // then dies.
    RawListener listener([](int conn) {
        read_request_frame(conn);
        const Bytes payload(100, 0xab);
        std::uint8_t header[kFrameHeaderSize];
        encode_frame_header(payload, header);
        (void)::send(conn, header, sizeof(header), MSG_NOSIGNAL);
        (void)::send(conn, payload.data(), 10, MSG_NOSIGNAL);
    });
    TcpTransport client("127.0.0.1", listener.port(),
                        TcpOptions{.io_timeout_seconds = 1.0});
    EXPECT_EQ(call_and_kind(client, to_bytes("req")),
              TransportErrorKind::kTruncatedFrame);
}

TEST(TcpFault, CorruptResponseChecksumIsTyped) {
    RawListener listener([](int conn) {
        read_request_frame(conn);
        Bytes frame = encode_frame(to_bytes("tampered-response"));
        frame.back() ^= 0x01;  // corrupt the payload after checksumming
        (void)::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
        drain(conn);
    });
    TcpTransport client("127.0.0.1", listener.port(),
                        TcpOptions{.io_timeout_seconds = 1.0});
    EXPECT_EQ(call_and_kind(client, to_bytes("req")),
              TransportErrorKind::kCorruptFrame);
}

TEST(TcpFault, BrokenConnectionRequiresReconnect) {
    PrefixEcho echo;
    TcpServer server(echo);
    server.start();
    TcpTransport client("127.0.0.1", server.port(),
                        TcpOptions{.io_timeout_seconds = 0.2});
    EXPECT_EQ(to_string(client.call(to_bytes("a"))), "ack:a");

    // Kill the server under the client.
    server.stop();
    EXPECT_THROW(client.call(to_bytes("b")), TransportError);
    // Without reconnect() every further call fails fast, no hang.
    EXPECT_EQ(call_and_kind(client, to_bytes("c")),
              TransportErrorKind::kConnectionReset);

    // A new server on the same port + reconnect() restores service.
    TcpServer revived(echo, server.port());
    revived.start();
    client.reconnect();
    EXPECT_EQ(to_string(client.call(to_bytes("d"))), "ack:d");
}

TEST(TcpFault, RetryingTransportRecoversAcrossServerRestart) {
    PrefixEcho echo;
    auto server = std::make_unique<TcpServer>(echo);
    server->start();
    const std::uint16_t port = server->port();

    TcpTransport socket_transport("127.0.0.1", port,
                                  TcpOptions{.io_timeout_seconds = 0.5});
    RetryingTransport client(socket_transport,
                             RetryPolicy{.max_attempts = 5,
                                         .base_backoff_seconds = 0.01});
    client.set_sleeper([](double) {});
    EXPECT_EQ(to_string(client.call(to_bytes("x"))), "ack:x");

    // Restart the server; the next call's first attempt fails, a retry
    // reconnects and succeeds — the caller sees no error at all.
    server = nullptr;
    server = std::make_unique<TcpServer>(echo, port);
    server->start();
    EXPECT_EQ(to_string(client.call(to_bytes("y"))), "ack:y");
    EXPECT_GE(client.stats().retries, 1u);
    EXPECT_GE(client.stats().reconnects, 1u);
}

}  // namespace
}  // namespace mie::net
