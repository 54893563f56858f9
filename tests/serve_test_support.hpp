// Shared helpers for the plt-serve suites: build a Table 1 blob on disk and
// run an in-process daemon on an ephemeral port.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "compress/codec.hpp"
#include "core/builder.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "test_support.hpp"

namespace plt::testing {

/// Builds the paper's Table 1 PLT at `minsup` (no prefix insertion, so
/// core::support_of is an exact reference) and writes the PLT3 blob under
/// gtest's temp dir. Returns the blob path, which carries the process id:
/// ctest runs each test in its own process, in parallel, and two processes
/// writing one path race on its temp-file rename.
inline std::string write_table1_blob(Count minsup, const std::string& name) {
  const core::BuiltPlt built = core::build_from_database(
      paper_table1(), minsup);
  const std::vector<std::uint8_t> bytes = compress::encode_plt(built.plt);
  const std::string path =
      ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  compress::write_blob_file(bytes, path);
  return path;
}

/// An in-process daemon over one or more blobs, stopped on destruction.
class TestServer {
 public:
  explicit TestServer(std::vector<std::string> blob_paths,
                      unsigned threads = 1, std::uint32_t deadline_ms = 0) {
    serve::ServerOptions options;
    options.blob_paths = std::move(blob_paths);
    options.threads = threads;
    options.default_deadline_ms = deadline_ms;
    server_ = std::make_unique<serve::Server>(std::move(options));
    server_->start();
  }
  explicit TestServer(serve::ServerOptions options) {
    server_ = std::make_unique<serve::Server>(std::move(options));
    server_->start();
  }
  ~TestServer() { server_->stop(); }

  std::uint16_t port() const { return server_->port(); }
  serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<serve::Server> server_;
};

}  // namespace plt::testing
