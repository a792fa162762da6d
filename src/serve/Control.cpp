//===- serve/Control.cpp --------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Control.h"

#include "pasta/StreamEnvelope.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pasta;
using namespace pasta::serve;
using namespace pasta::trace;

namespace {

bool writeAll(int Fd, const std::string &Bytes, SessionError &Err) {
  std::size_t Written = 0;
  while (Written < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Written, Bytes.size() - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err.assign(std::string("control: write error: ") +
                 std::strerror(errno));
      return false;
    }
    Written += static_cast<std::size_t>(N);
  }
  return true;
}

/// Reads exactly \p Want bytes into \p Out (appending). False on error
/// or premature EOF.
bool readExactly(int Fd, std::size_t Want, std::string &Out,
                 SessionError &Err) {
  char Buf[4096];
  while (Want > 0) {
    std::size_t Take = Want < sizeof(Buf) ? Want : sizeof(Buf);
    ssize_t N = ::read(Fd, Buf, Take);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err.assign(std::string("control: read error: ") +
                 std::strerror(errno));
      return false;
    }
    if (N == 0) {
      Err.assign("control: daemon closed the connection before a "
                 "complete response");
      return false;
    }
    Out.append(Buf, static_cast<std::size_t>(N));
    Want -= static_cast<std::size_t>(N);
  }
  return true;
}

} // namespace

bool serve::sendControlCommand(const std::string &SocketPath,
                               const std::string &Command,
                               std::string &Response, SessionError &Err) {
  if (Command.empty() || Command.size() > ControlMaxCommandBytes) {
    Err.assign("control: command must be 1-" +
               std::to_string(ControlMaxCommandBytes) + " bytes");
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err.assign("control: socket path too long: '" + SocketPath + "'");
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err.assign(std::string("control: cannot create socket: ") +
               std::strerror(errno));
    return false;
  }
  if (faultConnect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err.assign("control: cannot connect to '" + SocketPath +
               "': " + std::strerror(errno));
    ::close(Fd);
    return false;
  }

  std::string Request;
  encodeControlRequest(Request, Command);
  if (!writeAll(Fd, Request, Err)) {
    ::close(Fd);
    return false;
  }

  // Response: u32 status + u32 length + message bytes.
  std::string Header;
  if (!readExactly(Fd, 8, Header, Err)) {
    ::close(Fd);
    return false;
  }
  ByteReader Cursor(reinterpret_cast<const unsigned char *>(Header.data()),
                    Header.size());
  std::uint32_t Status = 0;
  std::uint32_t Length = 0;
  Cursor.readU32(Status);
  Cursor.readU32(Length);
  if (Length > ControlMaxCommandBytes) {
    Err.assign("control: invalid response length " + std::to_string(Length));
    ::close(Fd);
    return false;
  }
  std::string Message;
  if (Length > 0 && !readExactly(Fd, Length, Message, Err)) {
    ::close(Fd);
    return false;
  }
  ::close(Fd);

  if (Status != ControlStatusOk) {
    Err.assign(Message.empty() ? "control: daemon reported an error"
                               : Message);
    return false;
  }
  Response = Message;
  return true;
}
